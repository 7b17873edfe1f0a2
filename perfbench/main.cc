/// \file main.cc
/// \brief Benchmark entry point: one workload, one seed, one process.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--out <dir>]
///
/// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
/// per-layer metrics of a separate traced run. The last stdout line is one
/// JSON object {correct, attempted, failed, metrics}. Any failed operation
/// or failed correctness check makes the exit code nonzero.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

using hail::mapreduce::ExecutionMode;
using hail::mapreduce::JobResult;
using hail::mapreduce::RunOptions;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string out = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Calibrated samples of one repeated operation.
struct Samples {
  std::vector<double> ratios;
  std::vector<double> raw;
  double Reference() const {
    return Median(ratios) * Calibrator::kReferenceSeconds;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string Key(const Deployment& dep, size_t q) {
  return std::string(hail::mapreduce::SystemName(dep.system)) + "/Q" +
         std::to_string(q + 1);
}

int Main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Args args;
  WorkloadDef def;
  if (!ParseArgs(argc, argv, &args) || !FindWorkload(args.workload, &def)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload bob_hail|bob_baselines|"
                 "uv_planned --seed N --seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  const auto queries = hail::workload::BobQueries();
  RunOptions serial;
  serial.execution = ExecutionMode::kSerial;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  // Output counts seen per (system, query), checked against the oracle.
  std::map<std::string, std::vector<uint64_t>> counts;

  // ---- set-up: generation, first uploads, one warm-up pass ----
  Calibrator calibrator;
  const Inputs inputs = GenerateInputs(def, args.seed);
  std::vector<Deployment> deps;
  for (hail::mapreduce::System system : def.systems) {
    ++attempted;
    auto dep = Deploy(def, system, inputs);
    if (!dep.ok()) {
      std::fprintf(stderr, "upload failed: %s\n", dep.status().ToString().c_str());
      return 1;
    }
    deps.push_back(std::move(*dep));
  }
  std::vector<JobResult> first_pass;
  for (Deployment& dep : deps) {
    for (size_t q = 0; q < queries.size(); ++q) {
      ++attempted;
      auto r = RunQuery(def, dep, queries[q], serial, false);
      if (!r.ok()) {
        std::fprintf(stderr, "%s: %s\n", Key(dep, q).c_str(),
                     r.status().ToString().c_str());
        return 1;
      }
      counts[Key(dep, q)].push_back(r->output_count);
      first_pass.push_back(*r);
    }
  }
  const double setup_s = SecondsSince(process_start);

  double sim_query_s = 0.0, billed_cost_s = 0.0, sim_upload_s = 0.0;
  uint64_t stored_bytes = 0;
  for (const JobResult& r : first_pass) {
    sim_query_s += r.end_to_end_seconds;
    billed_cost_s += r.billed_cost_seconds;
  }
  for (const Deployment& dep : deps) {
    sim_upload_s += dep.sim_upload_s;
    stored_bytes += StoredBytes(dep);
  }

  std::vector<Metric> metrics;
  SpanLog spans;
  std::map<std::string, Samples> warm, cold, upload;
  uint64_t rounds = 0;
  if (args.trace == 1) {
    LayerFigures layers = RunLayers(def, deps, inputs, &spans);
    for (const std::string& e : layers.errors) errors.push_back(e);
    for (const auto& [name, value] : layers.values) {
      // Simulated-clock seconds repeat exactly for a seed; "sim_s" keeps
      // them apart from wall-clock seconds.
      const bool simulated = name.rfind("cost.", 0) == 0 ||
                             name.find("_sim_s") != std::string::npos;
      const std::string unit =
          simulated ? "sim_s"
          : name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0
              ? "s"
              : (name.size() > 3 && name.compare(name.size() - 3, 3, "_mb") == 0
                     ? "MB"
                     : (name.find("ratio") != std::string::npos ? "ratio"
                                                                 : "count"));
      metrics.push_back({name, value, unit});
    }
    attempted += layers.values.size();
  } else {
    // ---- measurement: whole rounds until the time is up ----
    // A round is the workload's cold passes, its warm passes, then a fresh
    // upload of every system (which the next round's passes read).
    const auto window = Clock::now();
    auto timed_pass = [&](std::map<std::string, Samples>* into) {
      for (Deployment& dep : deps) {
        for (size_t q = 0; q < queries.size(); ++q) {
          ++attempted;
          hail::Result<JobResult> r = hail::Status::Unknown("not run");
          double ratio = 0.0;
          const double raw = calibrator.Time(
              [&] { r = RunQuery(def, dep, queries[q], serial, false); }, &ratio);
          if (!r.ok()) {
            ++failed;
            errors.push_back(Key(dep, q) + ": " + r.status().ToString());
            continue;
          }
          counts[Key(dep, q)].push_back(r->output_count);
          (*into)[Key(dep, q)].ratios.push_back(ratio);
          (*into)[Key(dep, q)].raw.push_back(raw);
        }
      }
    };
    do {
      for (int c = 0; c < def.cold_passes_per_round; ++c) {
        for (Deployment& dep : deps) dep.bed->dfs().block_cache().Clear();
        timed_pass(&cold);
      }
      for (int w = 0; w < def.warm_passes_per_round; ++w) timed_pass(&warm);
      for (Deployment& dep : deps) {
        const hail::mapreduce::System system = dep.system;
        dep.bed.reset();  // free the old copy before storing the new one
        ++attempted;
        hail::Result<Deployment> fresh = hail::Status::Unknown("not run");
        double ratio = 0.0;
        const double raw = calibrator.Time(
            [&] { fresh = Deploy(def, system, inputs); }, &ratio);
        if (!fresh.ok()) {
          std::fprintf(stderr, "upload failed: %s\n",
                       fresh.status().ToString().c_str());
          return 1;
        }
        dep = std::move(*fresh);
        Samples& s = upload[std::string(hail::mapreduce::SystemName(system))];
        s.ratios.push_back(ratio);
        s.raw.push_back(raw);
      }
      ++rounds;
    } while (SecondsSince(window) < args.seconds);

    double query_pass_s = 0.0, cold_pass_s = 0.0, upload_s = 0.0;
    for (const auto& [key, s] : warm) query_pass_s += s.Reference();
    for (const auto& [key, s] : cold) cold_pass_s += s.Reference();
    for (const auto& [key, s] : upload) upload_s += s.Reference();
    for (const auto* group : {&warm, &cold, &upload}) {
      for (const auto& [key, s] : *group) {
        std::fprintf(stderr, "%-6s %-12s n=%-3zu raw median %.4f s, scaled %.4f s\n",
                     group == &warm ? "warm" : (group == &cold ? "cold" : "upload"),
                     key.c_str(), s.raw.size(), Median(s.raw), s.Reference());
      }
    }
    std::fprintf(stderr, "rounds=%llu\n", static_cast<unsigned long long>(rounds));
    metrics = {
        {"query_pass_s", query_pass_s, "s"},
        {"cold_pass_s", cold_pass_s, "s"},
        {"upload_s", upload_s, "s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", 0.0, "MB"},
        {"stored_mb", static_cast<double>(stored_bytes) / 1e6, "MB"},
        {"sim_query_s", sim_query_s, "s"},
        {"sim_upload_s", sim_upload_s, "s"},
        {"billed_cost_s", billed_cost_s, "s"},
    };
  }
  const double peak_rss_mb = PeakRssMb();

  // ---- correctness: oracle, stored replicas, zone skips ----
  const Expected expected = ComputeExpected(inputs);
  for (const Deployment& dep : deps) {
    for (size_t q = 0; q < queries.size(); ++q) {
      for (uint64_t c : counts[Key(dep, q)]) {
        if (c != expected.answers[q].count) {
          ++failed;
          errors.push_back(Key(dep, q) + ": output_count " + std::to_string(c) +
                           " != oracle " +
                           std::to_string(expected.answers[q].count));
        }
      }
    }
  }
  int violations = 0;
  for (Deployment& dep : deps) {
    violations += CheckReplicas(dep, inputs, &errors);
    violations += CheckCollectedOutput(def, dep, expected, &errors);
    violations += CheckZoneSkips(def, dep, expected, &errors);
    attempted += 3;
  }
  failed += static_cast<uint64_t>(violations);
  for (Metric& m : metrics) {
    if (m.name == "peak_rss_mb") m.value = peak_rss_mb;
  }

  if (args.trace == 1) {
    const std::string path = args.out + "/spans-" + def.name + "-" +
                             std::to_string(args.seed) + ".json";
    std::ofstream(path) << spans.ToJson();
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  for (const std::string& e : errors) std::fprintf(stderr, "ERROR: %s\n", e.c_str());
  const bool correct = errors.empty();
  PrintResult(correct, attempted, failed, metrics);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
