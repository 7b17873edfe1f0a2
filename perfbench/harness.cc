#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "hadooppp/hadooppp_upload.h"
#include "hadooppp/trojan_block.h"
#include "hail/hail_block.h"
#include "hail/hail_client.h"
#include "mapreduce/input_format.h"
#include "util/macros.h"

namespace perfbench {

using hail::Result;
using hail::Status;
using hail::mapreduce::System;

namespace {

/// HAIL's per-replica sort columns for Bob's workload (paper §6.4.1).
const std::vector<int>& BobSortColumns() {
  static const std::vector<int> cols = {hail::workload::kVisitDate,
                                        hail::workload::kSourceIP,
                                        hail::workload::kAdRevenue};
  return cols;
}

std::vector<hail::hdfs::ParallelUploadSpec> Specs(const Inputs& inputs) {
  std::vector<hail::hdfs::ParallelUploadSpec> specs;
  for (size_t i = 0; i < inputs.texts.size(); ++i) {
    char part[32];
    std::snprintf(part, sizeof(part), "/part-%05zu", i);
    specs.push_back({static_cast<int>(i), std::string(kDataPath) + part,
                     inputs.texts[i]});
  }
  return specs;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadDef* out) {
  WorkloadDef def;
  def.name = name;
  if (name == "bob_hail") {
    def.systems = {System::kHail};
    def.cold_passes_per_round = 3;
    def.warm_passes_per_round = 4;
  } else if (name == "bob_baselines") {
    def.systems = {System::kHadoop, System::kHadoopPP};
    def.warm_passes_per_round = 1;
  } else if (name == "uv_planned") {
    def.systems = {System::kHail};
    def.time_ordered = true;
    def.encode_blocks = true;
    def.build_stats = true;
    def.hail_splitting = true;
    def.use_planner = true;
    def.cold_passes_per_round = 3;
    def.warm_passes_per_round = 4;
  } else {
    return false;
  }
  *out = def;
  return true;
}

hail::workload::TestbedConfig PaperConfig(const WorkloadDef& def) {
  hail::workload::TestbedConfig config;
  config.num_nodes = 10;
  config.real_block_bytes = 32 * 1024;  // 64 MB logical at scale 2048
  config.blocks_per_node = 320;         // 20 GB of UserVisits per node
  config.encode_blocks = def.encode_blocks;
  config.build_stats = def.build_stats;
  config.time_ordered_uservisits = def.time_ordered;
  return config;
}

Inputs GenerateInputs(const WorkloadDef& def, uint64_t seed) {
  const hail::workload::TestbedConfig config = PaperConfig(def);
  Inputs inputs;
  const uint64_t rows_per_node = static_cast<uint64_t>(
      static_cast<double>(config.blocks_per_node) *
      static_cast<double>(config.real_block_bytes) /
      hail::workload::UserVisitsAvgRowBytes());
  for (int node = 0; node < config.num_nodes; ++node) {
    hail::workload::UserVisitsConfig uv;
    uv.rows = rows_per_node;
    uv.seed = seed * 1009 + static_cast<uint64_t>(node);
    uv.scale_factor = static_cast<double>(config.logical_block_bytes) /
                      static_cast<double>(config.real_block_bytes);
    uv.time_ordered = def.time_ordered;
    inputs.texts.push_back(hail::workload::GenerateUserVisitsText(uv));
    inputs.rows += rows_per_node;
    inputs.bytes += inputs.texts.back().size();
  }
  return inputs;
}

Result<Deployment> Deploy(const WorkloadDef& def, System system,
                          const Inputs& inputs) {
  Deployment dep;
  dep.system = system;
  dep.bed = std::make_unique<hail::workload::Testbed>(PaperConfig(def));
  hail::hdfs::MiniDfs* dfs = &dep.bed->dfs();
  const hail::Schema schema = hail::workload::UserVisitsSchema();
  switch (system) {
    case System::kHadoop: {
      HAIL_ASSIGN_OR_RETURN(hail::hdfs::UploadReport r,
                            hail::hdfs::ParallelUploadText(dfs, Specs(inputs)));
      dep.sim_upload_s = r.duration();
      break;
    }
    case System::kHadoopPP: {
      hail::hadooppp::HadoopPPUploadConfig config;
      config.schema = schema;
      config.index_column = hail::workload::kSourceIP;
      HAIL_ASSIGN_OR_RETURN(
          hail::hadooppp::HadoopPPUploadReport r,
          hail::hadooppp::HadoopPPUpload(dfs, config, Specs(inputs)));
      dep.sim_upload_s = r.duration();
      break;
    }
    case System::kHail: {
      hail::HailUploadConfig config;
      config.schema = schema;
      config.sort_columns = BobSortColumns();
      config.build_stats = def.build_stats;
      HAIL_ASSIGN_OR_RETURN(
          hail::HailUploadReport r,
          hail::HailParallelUpload(dfs, config, Specs(inputs)));
      dep.sim_upload_s = r.duration();
      break;
    }
  }
  return dep;
}

Result<hail::mapreduce::JobSpec> MakeJob(const WorkloadDef& def,
                                         const Deployment& dep,
                                         const hail::workload::QueryDef& query,
                                         bool collect_output) {
  HAIL_ASSIGN_OR_RETURN(
      hail::mapreduce::JobSpec spec,
      hail::workload::MakeQueryJob(hail::workload::UserVisitsSchema(),
                                   kDataPath, dep.system, query,
                                   def.hail_splitting, collect_output));
  spec.use_planner = def.use_planner && dep.system == System::kHail;
  return spec;
}

Result<hail::mapreduce::JobResult> RunQuery(
    const WorkloadDef& def, Deployment& dep,
    const hail::workload::QueryDef& query,
    const hail::mapreduce::RunOptions& options, bool collect_output) {
  HAIL_ASSIGN_OR_RETURN(hail::mapreduce::JobSpec spec,
                        MakeJob(def, dep, query, collect_output));
  hail::mapreduce::JobRunner runner(&dep.bed->dfs());
  return runner.Run(spec, options);
}

uint64_t StoredBytes(const Deployment& dep) {
  hail::hdfs::MiniDfs& dfs = dep.bed->dfs();
  uint64_t bytes = 0;
  for (int dn = 0; dn < dfs.num_datanodes(); ++dn) {
    bytes += dfs.datanode(dn).store().total_bytes();
  }
  auto blocks = dfs.namenode().GetFileBlocks(kDataPath);
  if (blocks.ok()) {
    for (const hail::hdfs::BlockLocation& loc : *blocks) {
      auto stats = dfs.namenode().GetBlockStats(loc.block_id);
      if (stats.ok()) bytes += stats->size();
    }
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Calibration kernel.

Calibrator::Calibrator() {
  // 2000 fixed rows shaped like UserVisits; no seed, no program code.
  char buf[256];
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 2000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::snprintf(buf, sizeof(buf),
                  "%u.%u.%u.%u,http://www.k%llx.com/p%u,%04u-%02u-%02u,%u.%02u,"
                  "Mozilla/5.0 (X11; Linux x86_64),USA,en,kilo,%u\n",
                  static_cast<unsigned>(x % 223 + 1),
                  static_cast<unsigned>((x >> 8) % 256),
                  static_cast<unsigned>((x >> 16) % 256),
                  static_cast<unsigned>((x >> 24) % 256),
                  static_cast<unsigned long long>(x >> 20),
                  static_cast<unsigned>(x % 977),
                  static_cast<unsigned>(1980 + x % 32),
                  static_cast<unsigned>(1 + (x >> 5) % 12),
                  static_cast<unsigned>(1 + (x >> 9) % 28),
                  static_cast<unsigned>((x >> 12) % 520),
                  static_cast<unsigned>((x >> 3) % 100),
                  static_cast<unsigned>((x >> 30) % 10000));
    text_ += buf;
  }
  last_kernel_ = RunKernel();
}

double Calibrator::RunKernel() {
  // The minimum of several short timings: an interruption or a cold cache
  // only ever makes one timing slower, while a slow phase of the host
  // slows them all.
  double best = 1e9;
  for (int trial = 0; trial < kKernelTrials; ++trial) {
    const auto start = Clock::now();
    uint64_t acc = 0;
    for (int rep = 0; rep < 2; ++rep) {
      size_t pos = 0;
      while (pos < text_.size()) {
        const size_t nl = text_.find('\n', pos);
        std::string_view row(text_.data() + pos, nl - pos);
        pos = nl + 1;
        // Split into owned strings (allocation), then convert the numeric
        // fields (parsing): the two costs that dominate the program's passes.
        std::vector<std::string> fields;
        size_t s = 0;
        for (size_t i = 0; i <= row.size(); ++i) {
          if (i == row.size() || row[i] == ',') {
            fields.emplace_back(row.substr(s, i - s));
            s = i + 1;
          }
        }
        acc += static_cast<uint64_t>(std::strtod(fields[3].c_str(), nullptr));
        acc += static_cast<uint64_t>(std::strtoll(fields[8].c_str(), nullptr, 10));
        acc += fields[1].size() + fields[2][3];
      }
    }
    sink_ += acc;
    best = std::min(best, SecondsSince(start));
  }
  return best;
}

// ---------------------------------------------------------------------------
// Spans.

uint64_t SpanLog::Open(const std::string& name, uint64_t parent) {
  const double now = std::chrono::duration<double>(Clock::now() - origin_).count();
  spans_.push_back(Span{spans_.size() + 1, parent, name, now, -1.0});
  return spans_.size();
}

void SpanLog::Close(uint64_t id) {
  Span& s = spans_[id - 1];
  s.end_s = std::chrono::duration<double>(Clock::now() - origin_).count();
  totals_[s.name] += s.end_s - s.start_s;
}

double SpanLog::Total(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

std::string SpanLog::ToJson() const {
  std::string out = "[\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.name.c_str(),
                  s.start_s * 1e6, s.end_s * 1e6,
                  i + 1 < spans_.size() ? "," : "");
    out += buf;
  }
  out += "]\n";
  return out;
}

// ---------------------------------------------------------------------------
// Oracle answers and checks.

Expected ComputeExpected(const Inputs& inputs) {
  Expected e;
  for (const hail::workload::QueryDef& q : hail::workload::BobQueries()) {
    OracleQuery oq;
    std::string error;
    if (!ParseOracleQuery(q.filter, q.projection, &oq, &error)) {
      std::fprintf(stderr, "oracle cannot parse %s: %s\n", q.name.c_str(),
                   error.c_str());
    }
    e.queries.push_back(std::move(oq));
  }
  for (const std::string& text : inputs.texts) {
    EvaluateText(e.queries, text, /*collect_rows=*/true, &e.answers);
  }
  for (OracleAnswer& a : e.answers) std::sort(a.rows.begin(), a.rows.end());
  return e;
}

namespace {

/// Records of one stored replica, or an error.
Result<uint64_t> ReplicaRecords(System system, std::string_view bytes,
                                int* sort_column, bool* sorted) {
  *sort_column = -1;
  *sorted = true;
  switch (system) {
    case System::kHadoop:
      return static_cast<uint64_t>(std::count(bytes.begin(), bytes.end(), '\n'));
    case System::kHadoopPP: {
      HAIL_ASSIGN_OR_RETURN(hail::hadooppp::TrojanBlockView view,
                            hail::hadooppp::TrojanBlockView::Open(bytes));
      HAIL_ASSIGN_OR_RETURN(hail::RowBinaryBlockView rows, view.OpenRows());
      return static_cast<uint64_t>(rows.num_records());
    }
    case System::kHail: {
      HAIL_ASSIGN_OR_RETURN(hail::HailBlockView view,
                            hail::HailBlockView::Open(bytes));
      HAIL_ASSIGN_OR_RETURN(hail::PaxBlockView pax, view.OpenPax());
      *sort_column = view.sort_column();
      if (*sort_column >= 0) {
        hail::Value prev;
        for (uint32_t r = 0; r < pax.num_records(); ++r) {
          HAIL_ASSIGN_OR_RETURN(hail::Value v, pax.GetAnyValue(*sort_column, r));
          if (r > 0 && v < prev) *sorted = false;
          prev = std::move(v);
        }
      }
      return static_cast<uint64_t>(pax.num_records()) + pax.num_bad_records();
    }
  }
  return Status::InvalidArgument("unknown system");
}

}  // namespace

int CheckReplicas(const Deployment& dep, const Inputs& inputs,
                  std::vector<std::string>* errors) {
  hail::hdfs::MiniDfs& dfs = dep.bed->dfs();
  const std::string sys(hail::mapreduce::SystemName(dep.system));
  auto blocks = dfs.namenode().GetFileBlocks(kDataPath);
  if (!blocks.ok()) {
    errors->push_back(sys + ": " + blocks.status().ToString());
    return 1;
  }
  int violations = 0;
  uint64_t total = 0;
  for (const hail::hdfs::BlockLocation& loc : *blocks) {
    int64_t first = -1;
    std::set<int> sort_columns;
    for (int dn : loc.datanodes) {
      auto bytes = dfs.datanode(dn).ReadBlockRaw(loc.block_id);
      int sort_column = -1;
      bool sorted = true;
      Result<uint64_t> records =
          bytes.ok() ? ReplicaRecords(dep.system, *bytes, &sort_column, &sorted)
                     : Result<uint64_t>(bytes.status());
      const std::string where = sys + " block " + std::to_string(loc.block_id) +
                                " on datanode " + std::to_string(dn);
      if (!records.ok()) {
        errors->push_back(where + ": " + records.status().ToString());
        ++violations;
        continue;
      }
      if (!sorted) {
        errors->push_back(where + ": replica not sorted on its column " +
                          std::to_string(sort_column));
        ++violations;
      }
      sort_columns.insert(sort_column);
      if (first < 0) {
        first = static_cast<int64_t>(*records);
        total += *records;
      } else if (first != static_cast<int64_t>(*records)) {
        errors->push_back(where + ": record count differs between replicas");
        ++violations;
      }
    }
    if (dep.system == System::kHail &&
        sort_columns != std::set<int>(BobSortColumns().begin(),
                                      BobSortColumns().end())) {
      errors->push_back(sys + " block " + std::to_string(loc.block_id) +
                        ": replicas are not sorted on visitDate, sourceIP "
                        "and adRevenue");
      ++violations;
    }
  }
  if (total != inputs.rows) {
    errors->push_back(sys + ": stored records " + std::to_string(total) +
                      " != generated rows " + std::to_string(inputs.rows));
    ++violations;
  }
  return violations;
}

int CheckCollectedOutput(const WorkloadDef& def, Deployment& dep,
                         const Expected& expected,
                         std::vector<std::string>* errors) {
  hail::mapreduce::RunOptions serial;
  serial.execution = hail::mapreduce::ExecutionMode::kSerial;
  const auto queries = hail::workload::BobQueries();
  int violations = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string what = std::string(hail::mapreduce::SystemName(dep.system)) +
                             " " + queries[q].name;
    auto r = RunQuery(def, dep, queries[q], serial, /*collect_output=*/true);
    if (!r.ok()) {
      errors->push_back(what + ": " + r.status().ToString());
      ++violations;
      continue;
    }
    std::vector<std::string> rows = r->output_rows;
    std::sort(rows.begin(), rows.end());
    if (rows != expected.answers[q].rows) {
      errors->push_back(what + ": output rows differ from the oracle (" +
                        std::to_string(rows.size()) + " vs " +
                        std::to_string(expected.answers[q].rows.size()) + ")");
      ++violations;
    }
  }
  return violations;
}

int CheckZoneSkips(const WorkloadDef& def, Deployment& dep,
                   const Expected& expected, std::vector<std::string>* errors) {
  if (!def.use_planner || dep.system != System::kHail) return 0;
  hail::hdfs::MiniDfs& dfs = dep.bed->dfs();
  const auto queries = hail::workload::BobQueries();
  const std::vector<FieldKind>& kinds = UserVisitsKinds();
  int violations = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto spec = MakeJob(def, dep, queries[q], false);
    auto plan = spec.ok() ? hail::mapreduce::ComputeJobPlan(&dfs, *spec)
                          : Result<hail::mapreduce::JobPlan>(spec.status());
    if (!plan.ok()) {
      errors->push_back(queries[q].name + ": " + plan.status().ToString());
      ++violations;
      continue;
    }
    for (size_t b = 0; b < plan->decisions.size(); ++b) {
      if (plan->decisions[b].path != hail::planner::AccessPath::kSkipZoneMap) {
        continue;
      }
      const hail::hdfs::BlockLocation& loc = plan->file_blocks[b];
      const std::string where =
          queries[q].name + " zone-skipped block " + std::to_string(loc.block_id);
      auto bytes = dfs.datanode(loc.datanodes.front()).ReadBlockRaw(loc.block_id);
      auto view = bytes.ok() ? hail::HailBlockView::Open(*bytes)
                             : Result<hail::HailBlockView>(bytes.status());
      auto block = view.ok() ? hail::PaxBlock::Deserialize(view->pax_section())
                             : Result<hail::PaxBlock>(view.status());
      if (!block.ok()) {
        errors->push_back(where + ": " + block.status().ToString());
        ++violations;
        continue;
      }
      if (!block->bad_records().empty()) {
        errors->push_back(where + ": holds bad records");
        ++violations;
      }
      std::vector<std::string> texts(kinds.size());
      std::vector<std::string_view> fields(kinds.size());
      for (uint32_t r = 0; r < block->num_records(); ++r) {
        const std::vector<hail::Value> row = block->GetRow(r);
        for (size_t c = 0; c < kinds.size(); ++c) {
          texts[c] = row[c].ToText(block->schema().field(static_cast<int>(c)).type);
          fields[c] = texts[c];
        }
        if (RowMatches(expected.queries[q], fields)) {
          errors->push_back(where + ": holds a qualifying row");
          ++violations;
          break;
        }
      }
    }
  }
  return violations;
}

}  // namespace perfbench
