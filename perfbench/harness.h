/// \file harness.h
/// \brief Shared pieces of the benchmark: workload definitions, deployed
/// datasets, the calibration kernel, span recording and correctness checks.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mapreduce/job_runner.h"
#include "oracle.h"
#include "workload/testbed.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One benchmark workload (see README.md for why each exists).
struct WorkloadDef {
  std::string name;
  std::vector<hail::mapreduce::System> systems;
  bool time_ordered = false;
  bool encode_blocks = false;  // format v3 minipages
  bool build_stats = false;    // upload-time planner statistics
  bool hail_splitting = false;
  bool use_planner = false;
  /// Cold and warm passes per measurement round; cheap passes repeat
  /// more often so every median rests on enough samples.
  int cold_passes_per_round = 1;
  int warm_passes_per_round = 1;
};

/// Returns false for an unknown name.
bool FindWorkload(const std::string& name, WorkloadDef* out);

/// The paper-scale testbed: 10 nodes, 320 blocks of 32 KB real / 64 MB
/// logical per node.
hail::workload::TestbedConfig PaperConfig(const WorkloadDef& def);

/// Generated input: one distinct UserVisits text per node.
struct Inputs {
  std::vector<std::string> texts;
  uint64_t rows = 0;
  uint64_t bytes = 0;
};
Inputs GenerateInputs(const WorkloadDef& def, uint64_t seed);

/// One system's uploaded copy of the inputs.
struct Deployment {
  hail::mapreduce::System system = hail::mapreduce::System::kHail;
  std::unique_ptr<hail::workload::Testbed> bed;
  double sim_upload_s = 0.0;
};

/// Uploads the inputs into a fresh testbed the way \p system ingests data.
hail::Result<Deployment> Deploy(const WorkloadDef& def,
                                hail::mapreduce::System system,
                                const Inputs& inputs);

inline constexpr const char* kDataPath = "/uv";

/// Runs one Bob query on a deployment.
hail::Result<hail::mapreduce::JobResult> RunQuery(
    const WorkloadDef& def, Deployment& dep,
    const hail::workload::QueryDef& query,
    const hail::mapreduce::RunOptions& options, bool collect_output);

/// Builds the job spec the workload runs for \p query on \p dep.
hail::Result<hail::mapreduce::JobSpec> MakeJob(
    const WorkloadDef& def, const Deployment& dep,
    const hail::workload::QueryDef& query, bool collect_output);

/// Real bytes stored on every datanode plus the namenode's stats sidecars.
uint64_t StoredBytes(const Deployment& dep);

/// \brief A fixed parse/alloc kernel, independent of the seed and of the
/// program, timed next to each measured operation.
///
/// The host's speed drifts in phases of several seconds; dividing an
/// operation's time by the kernel's time around it cancels the drift.
class Calibrator {
 public:
  Calibrator();
  /// Runs and times the kernel once.
  double RunKernel();
  /// Times \p op and returns its raw seconds; \p ratio receives the raw
  /// time divided by the mean of the kernel times just before and after.
  template <typename Op>
  double Time(Op&& op, double* ratio) {
    const auto start = Clock::now();
    op();
    const double raw = SecondsSince(start);
    const double after = RunKernel();
    *ratio = raw / (0.5 * (last_kernel_ + after));
    last_kernel_ = after;
    return raw;
  }
  /// The kernel's nominal time on the reference host: a ratio times this
  /// is the operation's time in reference-host seconds.
  static constexpr double kReferenceSeconds = 0.0025;

 private:
  static constexpr int kKernelTrials = 5;

  std::string text_;
  double last_kernel_ = 0.0;
  uint64_t sink_ = 0;
};

/// \brief In-memory spans recorded around the benchmark's own calls into
/// the program's layers; written out when the run ends.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  /// Opens a span; returns its id.
  uint64_t Open(const std::string& name, uint64_t parent);
  void Close(uint64_t id);
  /// Sum of the durations of every closed span called \p name.
  double Total(const std::string& name) const;
  std::string ToJson() const;

 private:
  struct Span {
    uint64_t id;
    uint64_t parent;
    std::string name;
    double start_s;
    double end_s;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<std::string, double> totals_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, uint64_t parent)
      : log_(log), id_(log->Open(name, parent)) {}
  ~ScopedSpan() { log_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

/// Oracle answers for the Bob queries over the generated inputs.
struct Expected {
  std::vector<OracleQuery> queries;
  std::vector<OracleAnswer> answers;  // sorted rows
};
Expected ComputeExpected(const Inputs& inputs);

/// Correctness checks that read the stored data; each returns the number
/// of violations and appends a line per violation to \p errors.
int CheckReplicas(const Deployment& dep, const Inputs& inputs,
                  std::vector<std::string>* errors);
int CheckCollectedOutput(const WorkloadDef& def, Deployment& dep,
                         const Expected& expected,
                         std::vector<std::string>* errors);
int CheckZoneSkips(const WorkloadDef& def, Deployment& dep,
                   const Expected& expected, std::vector<std::string>* errors);

/// The traced run's per-layer figures, by metric name.
struct LayerFigures {
  std::map<std::string, double> values;
  std::vector<std::string> errors;
};
/// Replays each layer's share of the workload on the same inputs, reads
/// the program's counters, and runs the parallel and traced passes.
LayerFigures RunLayers(const WorkloadDef& def,
                       std::vector<Deployment>& deps, const Inputs& inputs,
                       SpanLog* spans);

}  // namespace perfbench
