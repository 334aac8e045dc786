// Shared plumbing of the repo benchmark: run options, the metric
// catalogue and result line, sample statistics, disk accounting, and the
// benchmark-owned layer spans with their self-time analysis.
//
// Every timing here is taken from *outside* the library: the benchmark
// times its own calls into each layer's public functions and reads the
// counters the program already exposes (RunStats, Engine::last_profile(),
// metrics registries). Nothing in src/ is instrumented for it.
#ifndef ITG_PERFBENCH_BENCH_H_
#define ITG_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement budget the run is sized for (informational: workloads
  /// run a fixed, seed-determined amount of work so that every run of
  /// every commit measures the same thing).
  int seconds = 0;
  bool trace = false;
  /// Gate self-test: corrupt one batch's result on purpose; the run must
  /// then report failed ops and exit non-zero.
  bool inject_corruption = false;
  /// Scratch root for store files, relative to the checkout root.
  std::string scratch_root = ".bench_build/scratch";
  /// Where the traced run writes its Chrome trace JSON.
  std::string trace_dir = ".bench_build/traces";
};

/// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}
double Mean(const std::vector<double>& samples);

struct MetricDef {
  const char* name;
  const char* unit;
};
/// The benchmark's metric catalogue (mirrors BENCHMARK.json).
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Metric values and the correctness tally of one run.
class Results {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const;

  /// Counts `ops` mutation ops as attempted.
  void Attempt(uint64_t ops) { attempted_ += ops; }
  /// Counts `ops` as failed and records why.
  void Fail(uint64_t ops, const std::string& why);
  /// A check that fails the run without a specific batch to blame.
  void Error(const std::string& why);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::map<std::string, double> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// Prints the metric table and, as the last line of stdout, the JSON
/// result object (end-to-end metrics, or per-layer ones when `trace`).
void PrintResults(const Options& options, const Results& results);

// ---- disk and memory ------------------------------------------------------

/// Apparent size (st_size) of all regular files under `dir`, recursively;
/// 0 when it does not exist. Apparent bytes are deterministic for a given
/// seed, unlike allocated blocks under delayed allocation.
uint64_t DirBytes(const std::string& dir);
/// Bytes available to an unprivileged writer on the filesystem of `dir`.
uint64_t FreeBytes(const std::string& dir);
/// Refuses (error Status) when `dir`'s filesystem has less than `need`
/// bytes free.
itg::Status CheckFreeSpace(const std::string& dir, uint64_t need,
                           const std::string& what);
/// Flushes the filesystem holding `dir` (syncfs) so that write-back and
/// discards left by earlier runs or windows finish before the next timed
/// phase instead of during it.
void SettleDisk(const std::string& dir);
/// Removes `dir` recursively and fails if anything is left behind.
itg::Status RemoveTree(const std::string& dir);
/// Peak resident set of this process (ru_maxrss) in MiB.
double PeakRssMb();

// ---- layer spans --------------------------------------------------------

/// Category of every benchmark-owned span. The benchmark wraps each call into
/// a layer in an itg::TraceSpan of this category named "<layer>.<Call>"
/// whose argument is the batch the call belongs to; the program's own
/// phase spans use other categories and are ignored by the self-time
/// analysis.
inline constexpr const char* kSpanCat = "bench";

/// Per-layer self time (span minus its child spans) of every benchmark
/// span in a subtree rooted at a span named in `roots`, in milliseconds,
/// keyed by layer (the span-name prefix before the first '.').
struct SelfTimes {
  std::map<std::string, double> self_ms;
  uint64_t spans = 0;
};
SelfTimes ComputeSelfTimes(
    const std::vector<itg::Tracer::CollectedEvent>& events,
    const std::set<std::string>& roots);

/// Writes the recorded spans (benchmark and program phase spans) as
/// Chrome trace JSON under options.trace_dir.
itg::Status WriteTrace(const Options& options);

// ---- workloads ------------------------------------------------------------

/// incr-qpr / incr-tc: one-shot at G0, then a stream of mutation batches
/// through ApplyMutations + RunIncremental, gated against fresh recomputes.
void RunIncrWorkload(const Options& options, Results* results);
/// serve-2wcc: open-loop Poisson ingest into an in-process serve::Service
/// with two identical wcc views, stepping up a rate ladder.
void RunServeWorkload(const Options& options, Results* results);

}  // namespace perfbench

#endif  // ITG_PERFBENCH_BENCH_H_
