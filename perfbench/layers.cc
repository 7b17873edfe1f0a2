// The traced run: replays each layer's share of the workload on the same
// inputs, under spans recorded around the benchmark's own calls into the
// program's public functions, and reads the program's own counters.

#include <optional>

#include "hadooppp/trojan_block.h"
#include "hail/hail_block.h"
#include "hail/hail_client.h"
#include "harness.h"
#include "hdfs/packet.h"
#include "mapreduce/input_format.h"
#include "obs/trace.h"
#include "planner/access_planner.h"
#include "planner/block_stats.h"
#include "query/vectorized.h"
#include "schema/row_parser.h"
#include "util/crc32c.h"

namespace perfbench {

namespace {

using hail::mapreduce::ExecutionMode;
using hail::mapreduce::JobResult;
using hail::mapreduce::RunOptions;
using hail::mapreduce::System;

bool HasSystem(const WorkloadDef& def, System system) {
  for (System s : def.systems) {
    if (s == system) return true;
  }
  return false;
}

/// Write path: what the uploads do to the text, block by block.
void ReplayWritePath(const WorkloadDef& def, const Inputs& inputs,
                     const hail::hdfs::DfsConfig& cfg, SpanLog* spans,
                     uint64_t parent, uint64_t* sink) {
  const hail::Schema schema = hail::workload::UserVisitsSchema();
  const hail::RowParser parser(schema);
  hail::hadooppp::TrojanTransformParams trojan;
  trojan.schema = schema;
  trojan.index_column = hail::workload::kSourceIP;
  const int sort_columns[] = {hail::workload::kVisitDate,
                              hail::workload::kSourceIP,
                              hail::workload::kAdRevenue};
  const bool hail = HasSystem(def, System::kHail);
  uint64_t block_id = 0;
  for (const std::string& text : inputs.texts) {
    for (std::string_view block_text :
         hail::CutRowAlignedBlocks(text, cfg.block_size)) {
      const std::vector<std::string_view> rows = hail::SplitRows(block_text);
      {
        ScopedSpan s(spans, "schema.parse", parent);
        for (std::string_view row : rows) *sink += parser.Parse(row).ok;
      }
      hail::PaxBlock pax(schema, cfg.format);
      {
        ScopedSpan s(spans, "schema.append", parent);
        hail::ColumnarAppender appender(schema, &pax.mutable_columns());
        for (std::string_view row : rows) {
          if (!appender.AppendRow(row)) pax.AppendBadRecord(row);
        }
      }
      {
        ScopedSpan s(spans, "planner.stats_build", parent);
        *sink += hail::planner::BlockStats::Build(pax).num_records;
      }
      std::string sent;
      if (hail) {
        ScopedSpan s(spans, "layout.serialize", parent);
        sent = pax.Serialize();
      } else {
        sent = std::string(block_text);
      }
      {
        ScopedSpan s(spans, "hdfs.packetize", parent);
        *sink += hail::hdfs::MakePackets(++block_id, sent, cfg.chunk_bytes,
                                         cfg.packet_bytes)
                     .size();
      }
      for (int column : sort_columns) {
        std::optional<hail::PaxBlock> sorted;
        {
          ScopedSpan s(spans, "layout.sort", parent);
          sorted.emplace(pax.PermutedCopy(hail::ArgSortColumn(pax.column(column))));
        }
        {
          ScopedSpan s(spans, "index.build", parent);
          *sink += hail::ClusteredIndex::Build(sorted->column(column),
                                               cfg.format.varlen_partition_size)
                       .Serialize()
                       .size();
        }
        {
          ScopedSpan s(spans, "layout.serialize", parent);
          *sink += sorted->Serialize().size();
        }
      }
      {
        ScopedSpan s(spans, "hadooppp.trojan_build", parent);
        hail::hadooppp::TrojanReplicaTransformer transformer(trojan);
        *sink += transformer.BeginBlock(block_text).ok();
      }
    }
  }
}

/// Checksums and opens every stored replica, as a cold pass does once per
/// block version.
void ReplayStoredReplicas(const Deployment& dep, SpanLog* spans,
                          uint64_t parent, double* crc_mb, uint64_t* sink,
                          std::vector<std::string>* errors) {
  hail::hdfs::MiniDfs& dfs = dep.bed->dfs();
  auto blocks = dfs.namenode().GetFileBlocks(kDataPath);
  if (!blocks.ok()) {
    errors->push_back(blocks.status().ToString());
    return;
  }
  for (const hail::hdfs::BlockLocation& loc : *blocks) {
    for (int dn : loc.datanodes) {
      auto bytes = dfs.datanode(dn).ReadBlockRaw(loc.block_id);
      if (!bytes.ok()) {
        errors->push_back(bytes.status().ToString());
        continue;
      }
      {
        ScopedSpan s(spans, "util.crc32c", parent);
        *sink += hail::hdfs::ComputeChunkChecksums(*bytes, dfs.config().chunk_bytes)
                     .size();
      }
      *crc_mb += static_cast<double>(bytes->size()) / 1e6;
      if (dep.system == System::kHail) {
        ScopedSpan s(spans, "layout.block_open", parent);
        auto view = hail::HailBlockView::Open(*bytes);
        if (view.ok()) *sink += view->OpenPax().ok();
      } else if (dep.system == System::kHadoopPP) {
        ScopedSpan s(spans, "layout.block_open", parent);
        auto view = hail::hadooppp::TrojanBlockView::Open(*bytes);
        if (view.ok()) *sink += view->OpenRows().ok();
      }
    }
  }
}

/// Reconstructs the projected values of the selected rows.
hail::Status Reconstruct(const hail::PaxBlockView& pax,
                         const std::vector<int>& proj,
                         const hail::SelectionVector& sel, uint64_t* sink) {
  std::vector<std::optional<hail::VarlenCursor>> cursors(proj.size());
  for (size_t i = 0; i < proj.size(); ++i) {
    if (pax.schema().field(proj[i]).type == hail::FieldType::kString &&
        pax.column_encoding(proj[i]) == hail::MiniPageEncoding::kPlain) {
      HAIL_ASSIGN_OR_RETURN(hail::VarlenCursor c, pax.OpenVarlenCursor(proj[i]));
      cursors[i].emplace(std::move(c));
    }
  }
  for (uint32_t row : sel.rows()) {
    std::vector<hail::Value> values;
    values.reserve(proj.size());
    for (size_t i = 0; i < proj.size(); ++i) {
      if (cursors[i].has_value()) {
        HAIL_ASSIGN_OR_RETURN(std::string_view s, cursors[i]->Get(row));
        values.emplace_back(std::string(s));
      } else {
        HAIL_ASSIGN_OR_RETURN(hail::Value v, pax.GetAnyValue(proj[i], row));
        values.push_back(std::move(v));
      }
    }
    *sink += values.size();
  }
  return hail::Status::OK();
}

struct ReadCounts {
  uint64_t probes = 0;
  uint64_t rows_filtered = 0;
};

/// Read path of one query on one deployment: planning, then per block the
/// index probe, the predicate filter and tuple reconstruction.
hail::Status ReplayQuery(const WorkloadDef& def, Deployment& dep,
                         const Inputs& inputs,
                         const hail::workload::QueryDef& query, SpanLog* spans,
                         uint64_t parent, ReadCounts* counts, uint64_t* sink) {
  hail::hdfs::MiniDfs& dfs = dep.bed->dfs();
  const hail::Schema schema = hail::workload::UserVisitsSchema();
  HAIL_ASSIGN_OR_RETURN(hail::mapreduce::JobSpec spec,
                        MakeJob(def, dep, query, false));
  const hail::QueryAnnotation& annotation = *spec.annotation;
  hail::mapreduce::JobPlan plan;
  {
    ScopedSpan s(spans, "mapreduce.plan", parent);
    HAIL_ASSIGN_OR_RETURN(plan, hail::mapreduce::ComputeJobPlan(&dfs, spec));
  }
  {
    ScopedSpan s(spans, "planner.plan", parent);
    const int column = plan.index_column >= 0
                           ? plan.index_column
                           : annotation.preferred_index_column();
    *sink += hail::planner::PlanAccessPaths(dfs, schema, annotation, column,
                                            plan.file_blocks)
                 .blocks_skipped;
  }
  HAIL_ASSIGN_OR_RETURN(hail::CompiledPredicate compiled,
                        hail::CompiledPredicate::Compile(annotation.filter, schema));
  const std::optional<hail::KeyRange> key_range =
      plan.index_column >= 0 ? annotation.filter.KeyRangeFor(plan.index_column)
                             : std::nullopt;

  if (dep.system == System::kHadoop) {
    // The text reader parses every row and filters the boxed values.
    const hail::RowParser parser(schema);
    for (const std::string& text : inputs.texts) {
      for (std::string_view block : hail::CutRowAlignedBlocks(text, dfs.config().block_size)) {
        std::vector<hail::ParsedRow> parsed;
        for (std::string_view row : hail::SplitRows(block)) {
          parsed.push_back(parser.Parse(row));
        }
        ScopedSpan s(spans, "query.filter", parent);
        for (const hail::ParsedRow& row : parsed) {
          *sink += row.ok && compiled.MatchesRow(row.values);
        }
        counts->rows_filtered += parsed.size();
      }
    }
    return hail::Status::OK();
  }

  for (size_t b = 0; b < plan.file_blocks.size(); ++b) {
    if (b < plan.decisions.size() &&
        plan.decisions[b].path == hail::planner::AccessPath::kSkipZoneMap) {
      continue;
    }
    const hail::hdfs::BlockLocation& loc = plan.file_blocks[b];
    std::vector<int> hosts;
    if (plan.index_column >= 0) {
      hosts = dfs.namenode().GetHostsWithIndex(loc.block_id, plan.index_column);
    }
    const int dn = hosts.empty() ? loc.datanodes.front() : hosts.front();
    HAIL_ASSIGN_OR_RETURN(std::string_view bytes,
                          dfs.datanode(dn).ReadBlockRaw(loc.block_id));
    if (dep.system == System::kHadoopPP) {
      HAIL_ASSIGN_OR_RETURN(hail::hadooppp::TrojanBlockView view,
                            hail::hadooppp::TrojanBlockView::Open(bytes));
      HAIL_ASSIGN_OR_RETURN(hail::RowBinaryBlockView rows, view.OpenRows());
      if (key_range.has_value() && view.has_index() &&
          view.sort_column() == plan.index_column) {
        HAIL_ASSIGN_OR_RETURN(hail::TrojanIndex index, view.ReadIndex());
        ScopedSpan s(spans, "index.probe", parent);
        *sink += index.Lookup(*key_range).end_row;
        ++counts->probes;
      } else {
        // A Hadoop++ full scan decodes every binary row.
        ScopedSpan s(spans, "layout.reconstruct", parent);
        HAIL_ASSIGN_OR_RETURN(auto decoded, rows.DecodeAll());
        *sink += decoded.size();
        counts->rows_filtered += decoded.size();
      }
      continue;
    }
    HAIL_ASSIGN_OR_RETURN(hail::HailBlockView view, hail::HailBlockView::Open(bytes));
    HAIL_ASSIGN_OR_RETURN(hail::PaxBlockView pax, view.OpenPax());
    hail::RowRange range{0, pax.num_records()};
    if (key_range.has_value() && view.has_index() &&
        view.sort_column() == plan.index_column) {
      HAIL_ASSIGN_OR_RETURN(hail::ClusteredIndex index, view.ReadIndex());
      ScopedSpan s(spans, "index.probe", parent);
      range = index.Lookup(*key_range);
      ++counts->probes;
    }
    hail::SelectionVector sel;
    {
      ScopedSpan s(spans, "query.filter", parent);
      HAIL_RETURN_NOT_OK(compiled.FilterBlock(pax, range, &sel));
    }
    counts->rows_filtered += range.size();
    std::vector<int> proj = annotation.projection;
    if (proj.empty()) {
      for (int c = 0; c < pax.num_columns(); ++c) proj.push_back(c);
    }
    ScopedSpan s(spans, "layout.reconstruct", parent);
    HAIL_RETURN_NOT_OK(Reconstruct(pax, proj, sel, sink));
  }
  return hail::Status::OK();
}

/// One pass over the query mix on every deployment; returns its wall time.
double Pass(const WorkloadDef& def, std::vector<Deployment>& deps,
            const RunOptions& options, std::vector<JobResult>* results,
            std::vector<std::string>* errors) {
  results->clear();
  const auto start = Clock::now();
  for (Deployment& dep : deps) {
    for (const hail::workload::QueryDef& q : hail::workload::BobQueries()) {
      auto r = RunQuery(def, dep, q, options, false);
      if (r.ok()) {
        results->push_back(std::move(*r));
      } else {
        errors->push_back(q.name + ": " + r.status().ToString());
      }
    }
  }
  return SecondsSince(start);
}

}  // namespace

LayerFigures RunLayers(const WorkloadDef& def, std::vector<Deployment>& deps,
                       const Inputs& inputs, SpanLog* spans) {
  LayerFigures out;
  std::map<std::string, double>& v = out.values;
  uint64_t sink = 0;
  const uint64_t root = spans->Open("traced_run", 0);
  const hail::hdfs::DfsConfig& cfg = deps.front().bed->dfs().config();

  {
    ScopedSpan write(spans, "replay.write_path", root);
    ReplayWritePath(def, inputs, cfg, spans, write.id(), &sink);
  }
  double crc_mb = 0.0;
  {
    ScopedSpan stored(spans, "replay.stored_replicas", root);
    for (const Deployment& dep : deps) {
      ReplayStoredReplicas(dep, spans, stored.id(), &crc_mb, &sink, &out.errors);
    }
  }
  ReadCounts counts;
  {
    ScopedSpan read(spans, "replay.read_path", root);
    for (Deployment& dep : deps) {
      for (const hail::workload::QueryDef& q : hail::workload::BobQueries()) {
        ScopedSpan qs(spans, "query." + q.name, read.id());
        hail::Status st =
            ReplayQuery(def, dep, inputs, q, spans, qs.id(), &counts, &sink);
        if (!st.ok()) out.errors.push_back(q.name + " replay: " + st.ToString());
      }
    }
  }

  // The program's own counters and the engine passes.
  RunOptions serial;
  serial.execution = ExecutionMode::kSerial;
  std::vector<JobResult> cold, warm, parallel, traced;
  hail::hdfs::BlockCacheStats before, after;
  for (Deployment& dep : deps) dep.bed->dfs().block_cache().Clear();
  for (const Deployment& dep : deps) {
    const hail::hdfs::BlockCacheStats s = dep.bed->dfs().block_cache().stats();
    before.verify_hits += s.verify_hits;
    before.verify_misses += s.verify_misses;
    before.artifact_hits += s.artifact_hits;
    before.artifact_misses += s.artifact_misses;
    before.bytes_verified += s.bytes_verified;
    before.index_decodes += s.index_decodes;
  }
  double cold_s = 0.0, warm_s = 0.0, parallel_s = 0.0, traced_s = 0.0;
  {
    ScopedSpan s(spans, "pass.cold_serial", root);
    cold_s = Pass(def, deps, serial, &cold, &out.errors);
  }
  for (const Deployment& dep : deps) {
    const hail::hdfs::BlockCacheStats s = dep.bed->dfs().block_cache().stats();
    after.verify_hits += s.verify_hits;
    after.verify_misses += s.verify_misses;
    after.artifact_hits += s.artifact_hits;
    after.artifact_misses += s.artifact_misses;
    after.bytes_verified += s.bytes_verified;
    after.index_decodes += s.index_decodes;
  }
  {
    ScopedSpan s(spans, "pass.warm_serial", root);
    warm_s = Pass(def, deps, serial, &warm, &out.errors);
  }
  {
    RunOptions options;
    options.execution = ExecutionMode::kParallel;
    ScopedSpan s(spans, "pass.parallel", root);
    parallel_s = Pass(def, deps, options, &parallel, &out.errors);
  }
  hail::obs::Tracer tracer;
  {
    RunOptions options = serial;
    options.tracer = &tracer;
    options.profile = true;
    ScopedSpan s(spans, "pass.traced", root);
    traced_s = Pass(def, deps, options, &traced, &out.errors);
  }
  // Serial and parallel results are bit-identical; tracing bills nothing.
  if (parallel.size() != warm.size() || traced.size() != warm.size()) {
    out.errors.push_back("a pass lost jobs");
  } else {
    for (size_t i = 0; i < warm.size(); ++i) {
      if (hail::workload::DumpResult(warm[i]) !=
          hail::workload::DumpResult(parallel[i])) {
        out.errors.push_back(warm[i].job_name + ": serial and parallel results differ");
      }
      if (warm[i].billed_cost_seconds != traced[i].billed_cost_seconds ||
          !(warm[i].cost == traced[i].cost)) {
        out.errors.push_back(warm[i].job_name + ": tracing changed the billed cost");
      }
    }
  }
  spans->Close(root);

  v["schema.parse_s"] = spans->Total("schema.parse");
  v["schema.append_s"] = spans->Total("schema.append");
  v["layout.sort_s"] = spans->Total("layout.sort");
  v["index.build_s"] = spans->Total("index.build");
  v["layout.serialize_s"] = spans->Total("layout.serialize");
  v["planner.stats_build_s"] = spans->Total("planner.stats_build");
  v["hdfs.packetize_s"] = spans->Total("hdfs.packetize");
  v["hadooppp.trojan_build_s"] = spans->Total("hadooppp.trojan_build");
  v["util.crc32c_s"] = spans->Total("util.crc32c");
  v["util.crc32c_mb"] = crc_mb;
  v["layout.block_open_s"] = spans->Total("layout.block_open");
  v["mapreduce.plan_s"] = spans->Total("mapreduce.plan");
  v["planner.plan_s"] = spans->Total("planner.plan");
  v["index.probe_s"] = spans->Total("index.probe");
  v["query.filter_s"] = spans->Total("query.filter");
  v["layout.reconstruct_s"] = spans->Total("layout.reconstruct");
  v["index.probes"] = static_cast<double>(counts.probes);
  v["query.rows_filtered"] = static_cast<double>(counts.rows_filtered);

  v["hdfs.cache_verify_hits"] = static_cast<double>(after.verify_hits - before.verify_hits);
  v["hdfs.cache_verify_misses"] =
      static_cast<double>(after.verify_misses - before.verify_misses);
  v["hdfs.cache_artifact_hits"] =
      static_cast<double>(after.artifact_hits - before.artifact_hits);
  v["hdfs.cache_artifact_misses"] =
      static_cast<double>(after.artifact_misses - before.artifact_misses);
  v["hdfs.bytes_verified"] =
      static_cast<double>(after.bytes_verified - before.bytes_verified);
  v["hdfs.index_decodes"] =
      static_cast<double>(after.index_decodes - before.index_decodes);

  double map_tasks = 0, seen = 0, qualifying = 0, zone_skipped = 0,
         overhead = 0, rr = 0;
  double buckets[hail::obs::kNumCostBuckets] = {};
  for (const JobResult& r : cold) {
    map_tasks += r.map_tasks;
    seen += static_cast<double>(r.records_seen);
    qualifying += static_cast<double>(r.records_qualifying);
    zone_skipped += static_cast<double>(r.zone_skipped_blocks);
    overhead += r.overhead_seconds;
    rr += r.avg_record_reader_seconds;
    for (int b = 0; b < hail::obs::kNumCostBuckets; ++b) {
      buckets[b] += static_cast<double>(r.cost.nanos[b]) / 1e9;
    }
  }
  v["mapreduce.map_tasks"] = map_tasks;
  v["mapreduce.records_seen"] = seen;
  v["mapreduce.records_qualifying"] = qualifying;
  v["mapreduce.qualifying_ratio"] = seen > 0 ? qualifying / seen : 0.0;
  v["planner.zone_skipped_blocks"] = zone_skipped;
  v["mapreduce.overhead_sim_s"] = overhead;
  v["mapreduce.record_reader_sim_s"] = rr;
  using hail::obs::CostBucket;
  v["cost.seek_s"] = buckets[static_cast<int>(CostBucket::kSeek)];
  v["cost.transfer_s"] = buckets[static_cast<int>(CostBucket::kTransfer)];
  v["cost.network_s"] = buckets[static_cast<int>(CostBucket::kNetwork)];
  v["cost.cpu_s"] = buckets[static_cast<int>(CostBucket::kCpu)];
  v["cost.decode_s"] = buckets[static_cast<int>(CostBucket::kDecode)];
  v["cost.encode_s"] = buckets[static_cast<int>(CostBucket::kEncode)];

  v["wall.cold_pass_raw_s"] = cold_s;
  v["wall.query_pass_raw_s"] = warm_s;
  v["mapreduce.parallel_pass_s"] = parallel_s;
  v["obs.traced_pass_s"] = traced_s;
  v["obs.trace_overhead_ratio"] = warm_s > 0 ? traced_s / warm_s : 0.0;
  // Estimate: the warm pass minus the read layers replayed above (the text
  // reader also parses every row once per Hadoop query).
  double read_layers = v["index.probe_s"] + v["query.filter_s"] +
                       v["layout.reconstruct_s"];
  if (HasSystem(def, System::kHadoop)) {
    read_layers += v["schema.parse_s"] *
                   static_cast<double>(hail::workload::BobQueries().size());
  }
  v["mapreduce.engine_residual_s"] = warm_s - read_layers;
  if (sink == 0) out.errors.push_back("layer replays produced nothing");
  return out;
}

}  // namespace perfbench
