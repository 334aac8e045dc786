#ifndef ITG_GSA_PROFILE_H_
#define ITG_GSA_PROFILE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace itg::gsa {

/// Runtime work counters of one GSA operator (keyed by the PlanNode's
/// stable `op_id`). The integer fields are *deterministic*: for a given
/// program, graph and mutation stream they are bit-identical across
/// thread counts and machines (enforced by parallel_determinism_test and
/// the report_diff regression gate). `wall_nanos` is measured time and is
/// excluded from determinism comparisons and from the default gate.
struct OperatorCounters {
  /// Input tuples by multiplicity sign (retractions are `neg`).
  uint64_t in_pos = 0;
  uint64_t in_neg = 0;
  /// Output tuples by multiplicity sign.
  uint64_t out_pos = 0;
  uint64_t out_neg = 0;
  /// Candidate extensions rejected by neighbor pruning's allow-sets —
  /// Δ-walks the §6 optimizations saved enumerating.
  uint64_t pruned = 0;
  /// Adjacency window blocks read by this operator's W-Seeks.
  uint64_t windows = 0;
  /// Adjacency entries scanned while joining against those windows.
  uint64_t edges = 0;
  /// L_NGA expression evaluations attributed to this operator
  /// (level predicates / emission guards and values).
  uint64_t evals = 0;
  /// Measured wall time inside the operator. On the parallel path this
  /// sums per-task time over workers, so it can exceed the run's wall
  /// clock — it is a work measure, not a latency.
  uint64_t wall_nanos = 0;

  void Merge(const OperatorCounters& o) {
    in_pos += o.in_pos;
    in_neg += o.in_neg;
    out_pos += o.out_pos;
    out_neg += o.out_neg;
    pruned += o.pruned;
    windows += o.windows;
    edges += o.edges;
    evals += o.evals;
    wall_nanos += o.wall_nanos;
  }

  /// Equality over the deterministic fields only (no wall_nanos).
  bool SameWork(const OperatorCounters& o) const {
    return in_pos == o.in_pos && in_neg == o.in_neg &&
           out_pos == o.out_pos && out_neg == o.out_neg &&
           pruned == o.pruned && windows == o.windows && edges == o.edges &&
           evals == o.evals;
  }

  bool IsZero() const {
    return in_pos == 0 && in_neg == 0 && out_pos == 0 && out_neg == 0 &&
           pruned == 0 && windows == 0 && edges == 0 && evals == 0 &&
           wall_nanos == 0;
  }
};

/// How a superstep enumerated its walks: a one-shot walk, incremental
/// Δ-walks, or an incremental superstep that chose to recompute its
/// accumulators with one walk over the current snapshot.
enum class SuperstepMode { kOneShot, kDelta, kRecompute };

const char* SuperstepModeName(SuperstepMode mode);

/// One row of the per-superstep timeline.
struct SuperstepProfile {
  int superstep = 0;
  SuperstepMode mode = SuperstepMode::kOneShot;
  /// The incremental cost model's level-1 edge-scan estimates for the
  /// Δ-walk plan and for a recompute walk (0 when no decision was made:
  /// one-shot rows, or programs/options that never recompute).
  uint64_t delta_cost = 0;
  uint64_t recompute_cost = 0;
  /// Vertices with active=true entering the superstep.
  uint64_t active_vertices = 0;
  /// Enumeration frontier: active starts (one-shot) or Δvs changed
  /// starts (incremental).
  uint64_t frontier = 0;
  uint64_t emissions = 0;
  uint64_t windows = 0;
  uint64_t edges = 0;
  /// Wall / CPU time of the superstep (CPU is the calling thread's
  /// CLOCK_THREAD_CPUTIME_ID slice; nondeterministic, never gated).
  uint64_t wall_nanos = 0;
  uint64_t cpu_nanos = 0;
  /// Pre-aggregated shuffle volume sent per simulated partition during
  /// this superstep (empty unless num_partitions > 1).
  std::vector<uint64_t> shuffle_bytes;

  /// Δ-walk and recompute supersteps both belong to an incremental run.
  bool incremental() const { return mode != SuperstepMode::kOneShot; }

  bool SameWork(const SuperstepProfile& o) const {
    return superstep == o.superstep && mode == o.mode &&
           delta_cost == o.delta_cost &&
           recompute_cost == o.recompute_cost &&
           active_vertices == o.active_vertices && frontier == o.frontier &&
           emissions == o.emissions && windows == o.windows &&
           edges == o.edges && shuffle_bytes == o.shuffle_bytes;
  }
};

/// The runtime profile of one engine run: per-operator counters keyed by
/// the stable operator ids the compiler assigned to the GSA plans, plus
/// the superstep timeline. Operators are registered once (id → name,
/// detail); counters reset per run while the registration survives.
class ExecutionProfile {
 public:
  struct Entry {
    std::string op;      ///< operator name (PlanNode::op, or phase name)
    std::string detail;  ///< subscript (PlanNode::detail)
    OperatorCounters counters;
  };

  /// Registers (or re-labels) an operator id.
  void RegisterOp(int id, std::string op, std::string detail);

  /// Counters of a registered id (registers an unnamed entry on demand so
  /// recording never crashes on an unregistered id).
  OperatorCounters& Op(int id);
  const OperatorCounters* Find(int id) const;

  const std::map<int, Entry>& ops() const { return ops_; }
  std::vector<SuperstepProfile>& supersteps() { return supersteps_; }
  const std::vector<SuperstepProfile>& supersteps() const {
    return supersteps_;
  }

  /// Zeroes all counters and clears the timeline; keeps registrations.
  void ResetCounters();

  /// Folds another profile's counters and timeline into this one
  /// (drivers accumulate a whole-process profile across runs).
  void Merge(const ExecutionProfile& o);

  /// Deterministic-work equality: same ids, same counters (excluding
  /// wall/cpu time), same timeline work columns.
  bool SameWork(const ExecutionProfile& o) const;

  /// The deterministic fields flattened to a stable vector (for
  /// fingerprint-style tests).
  std::vector<uint64_t> WorkFingerprint() const;

 private:
  std::map<int, Entry> ops_;
  std::vector<SuperstepProfile> supersteps_;
};

/// The superstep timeline as text, one row per superstep: mode, work
/// counters, the incremental cost model's two estimates and wall time
/// (the EXPLAIN ANALYZE timeline section).
std::string FormatSuperstepTimeline(const ExecutionProfile& profile);

}  // namespace itg::gsa

#endif  // ITG_GSA_PROFILE_H_
