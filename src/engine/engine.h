#ifndef ITG_ENGINE_ENGINE_H_
#define ITG_ENGINE_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "compiler/compiled_program.h"
#include "engine/columns.h"
#include "engine/lineage.h"
#include "engine/walk.h"
#include "gsa/profile.h"
#include "storage/graph_store.h"
#include "storage/vertex_store.h"

namespace itg {

/// Engine knobs. The optimization flags map to the paper's §6.4.2
/// ablation: traversal reordering (TR), neighbor pruning (NP),
/// seek/window sharing (SWS), MIN-with-counting (CNT), per-superstep
/// recompute (RC); plus the multi-way-intersection compiler rewrite
/// (always on in the paper).
struct EngineOptions {
  int window_vertices = 256;
  bool traversal_reordering = true;
  bool neighbor_pruning = true;
  bool seek_window_sharing = true;
  bool min_counting = true;
  /// RC: let each incremental superstep replace its Δ-walks with a plain
  /// walk over the current snapshot when that scans fewer level-1 edges
  /// (one-hop programs without global accumulators, lineage off; see
  /// ARCHITECTURE.md, "Per-superstep recompute").
  bool superstep_recompute = true;
  bool multiway_intersection = true;
  /// Run exactly this many supersteps (paper: 10 for PR/LP); -1 = until
  /// convergence (at most 500).
  int fixed_supersteps = -1;
  /// Write per-superstep history to the vertex store (required before
  /// RunIncremental; disable for throwaway one-shot comparison runs).
  bool record_history = true;
  /// Compaction policy of the vertex-history delta chains (§5.5, Fig 17).
  MergeStrategy merge_strategy = MergeStrategy::kCostBased;
  int merge_period = 50;
  /// Distributed simulation (§2 of DESIGN.md): hash-partition the work
  /// over this many simulated machines, each with its own buffer pool and
  /// meters. 1 = plain single-machine execution.
  int num_partitions = 1;
  /// Per-machine buffer pool capacity (pages) in the simulation.
  size_t partition_pool_pages = 512;
  /// Worker threads for intra-machine parallel walk enumeration
  /// (§6.2 "in parallel for non-conflicting walks"). 0 = the ITG_THREADS
  /// env var, else hardware_concurrency(). 1 disables the pool: walks
  /// apply their emissions inline. Ignored for walks (inline apply) when
  /// num_partitions > 1 or the program reads accumulator state inside
  /// Traverse (see ARCHITECTURE.md, "Threading model").
  int num_threads = 0;
  /// Test hook for the stall watchdog: sleep this long inside the first
  /// superstep of every run. The sleep is observation-neutral (no work
  /// counter moves), so fingerprints are unaffected. 0 = off.
  uint64_t debug_stall_first_superstep_ms = 0;
  /// Opt-in Δ-record provenance: track a bounded set of contributing
  /// input-mutation ids per vertex (see engine/lineage.h). Forces the
  /// inline walk driver, whose apply sink tags every applied emission.
  bool lineage = false;
  /// Drift-injection test hooks (audit_smoke): during
  /// RunIncremental(debug_corrupt_timestamp), superstep 0, add
  /// debug_corrupt_delta to the first audited attribute of
  /// debug_corrupt_vertex right after the ΔUpdate block — and add the
  /// vertex to the ΔUpdate domain so the corrupted after-image persists
  /// into the delta files exactly like real silent state corruption
  /// would. timestamp/vertex = -1 disables.
  Timestamp debug_corrupt_timestamp = -1;
  VertexId debug_corrupt_vertex = -1;
  double debug_corrupt_delta = 0.0;
  /// When non-empty, published as the GlobalLiveStatus query label at the
  /// start of every run. Long-lived drivers with one engine set the label
  /// once themselves; the serving daemon interleaves runs of many
  /// standing views on one thread, so each view's engine retags the live
  /// query as it runs and /statusz always names the view in flight.
  std::string query_label;
};

/// Per-machine outcome of a partitioned run.
struct MachineStats {
  double seconds = 0;          ///< measured compute + IO time of this machine
  uint64_t network_bytes = 0;  ///< pre-aggregated shuffle volume it sent
  /// Modeled BSP barrier wait: time this machine idled at superstep
  /// barriers for the round's slowest machine (skew indicator).
  uint64_t barrier_wait_nanos = 0;
};

/// Statistics of the latest run.
struct RunStats {
  Timestamp timestamp = 0;
  bool incremental = false;
  int supersteps = 0;
  uint64_t emissions_applied = 0;
  uint64_t delta_walk_emissions = 0;
  /// Candidate walk extensions rejected by neighbor pruning's MS-BFS
  /// visited sets (§5.4) — work the Δ-walk decomposition avoided.
  uint64_t delta_walks_pruned = 0;
  uint64_t recomputed_vertices = 0;
  uint64_t windows_loaded = 0;
  uint64_t edges_scanned = 0;
  double seconds = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  /// Worker threads the run was allowed to use (1 when the program or
  /// configuration forces the sequential path).
  int threads = 1;
  /// Walk-shard tasks executed through the thread pool.
  uint64_t parallel_tasks = 0;
  /// Vertex-block tasks of the Update / ΔUpdate passes executed through
  /// the thread pool (0 on the sequential path).
  uint64_t update_tasks = 0;
  /// Tasks claimed from another worker's queue (imbalance indicator).
  uint64_t steals = 0;
  /// Sum over workers of time spent inside pool tasks.
  uint64_t busy_nanos = 0;
  /// Order-independent digest of the audited attribute columns at the
  /// end of the run (Engine::ComputeStateDigest). Deterministic across
  /// thread counts; a state fingerprint, not a work counter.
  uint64_t state_digest = 0;
};

/// The iTurboGraph runtime engine: executes compiled L_NGA programs over
/// the dynamic graph store under the BSP model (§5.2), either one-shot
/// (full enumeration) or incrementally (Δ-walk enumeration with
/// incremental Accumulate, §5.3–5.4).
///
/// Lifecycle: RunOneShot at some snapshot L of the store, then
/// RunIncremental once per later snapshot. The store describes only the
/// graph, so any number of engines may share one. Each engine keeps the
/// current snapshot's final attribute values in memory and owns the
/// per-superstep history (the vertex store's delta chains) in the
/// store's page file.
class Engine {
 public:
  Engine(DynamicGraphStore* store, const CompiledProgram* program,
         const EngineOptions& options);

  /// Full execution at snapshot `t` (0, or the store's latest snapshot
  /// for an engine that joins a store already advanced). History is
  /// kept relative to `t`: the vertex store sees this run as its
  /// snapshot 0, so merge decisions match an engine started at 0.
  Status RunOneShot(Timestamp t);

  /// Incremental execution at snapshot `t`; requires that the previous
  /// run (one-shot or incremental) executed at `t-1` with history
  /// recording enabled.
  Status RunIncremental(Timestamp t);

  /// Final attribute value of `v` (first element for arrays).
  double AttrValue(int attr, VertexId v) const {
    return cur_cols_.Cell(attr, v)[0];
  }
  const double* AttrCell(int attr, VertexId v) const {
    return cur_cols_.Cell(attr, v);
  }
  /// Final global value (global accumulators total over the whole run —
  /// documented deviation: not reset per superstep).
  const std::vector<double>& GlobalValue(int g) const {
    return cur_globals_[g];
  }

  int AttrIndex(const std::string& name) const;
  int GlobalIndex(const std::string& name) const;

  const RunStats& last_stats() const { return stats_; }
  /// EXPLAIN ANALYZE profile of the last run: per-operator counters keyed
  /// by the compiler's stable plan ids, plus the superstep timeline.
  /// Reset at the start of every Run*; drivers that want whole-process
  /// totals accumulate with ExecutionProfile::Merge. The integer work
  /// counters are bit-identical across thread counts (enforced by
  /// parallel_determinism_test); wall/cpu fields are measured time.
  const gsa::ExecutionProfile& last_profile() const { return profile_; }
  const EngineOptions& options() const { return options_; }
  EngineOptions* mutable_options() { return &options_; }

  /// Per-machine stats of the last run (empty unless num_partitions > 1).
  const std::vector<MachineStats>& machine_stats() const {
    return machine_stats_;
  }
  /// Distributed-time model: max over machines of (measured time +
  /// shuffle volume / 1 GB/s interconnect). Meaningful when
  /// num_partitions > 1.
  double SimulatedDistributedSeconds() const;

  // ---- correctness observability ---------------------------------------
  /// Order-independent 64-bit digest of the audited attribute columns of
  /// the current state (common/digest.h). Bit-identical across thread
  /// counts; for integer-valued programs also across partition counts
  /// (floating-point SUM order differs between partitionings).
  /// `per_attr`, when non-null, receives (attribute name, column digest)
  /// pairs in program-attribute order.
  uint64_t ComputeStateDigest(
      std::vector<std::pair<std::string, uint64_t>>* per_attr =
          nullptr) const;
  /// The audit/digest domain: the program's result attributes — non-accm,
  /// non-virtual, minus the activation flag (activation schedules work;
  /// it is not part of the query answer and legitimately differs between
  /// incremental and one-shot execution under fixed_supersteps).
  std::vector<int> AuditedAttrs() const;
  /// Read access to the current attribute state (audit column diffs).
  const ColumnSet& columns() const { return cur_cols_; }
  /// The per-superstep history this engine wrote (delta chains).
  const VertexStore& vertex_store() const { return vertex_store_; }
  /// Provenance report for `v`: current audited values plus the
  /// derivation chain of contributing raw edge mutations. Empty string
  /// unless EngineOptions::lineage is set.
  std::string ExplainLineage(VertexId v) const;
  const LineageTracker* lineage() const { return lineage_.get(); }

 private:
  friend class EngineTestPeer;
  /// Level-1 edge-scan estimates of one incremental superstep's two plans.
  struct SuperstepCost {
    uint64_t delta_edges = 0;      ///< Δ-walks: q_vs retract + assert + Δes
    uint64_t recompute_edges = 0;  ///< one current-stream walk
  };
  // ---- shared helpers -------------------------------------------------
  /// The degree array of snapshot `t` in direction `d`, built at most once
  /// per run: degree columns and the recompute cost estimate share it.
  /// References stay valid until the next run clears the cache.
  const std::vector<int64_t>& SnapshotDegrees(Timestamp t, Direction d);
  void FillDegreeColumns(ColumnSet* cols, Timestamp t);
  void RunInitialize(ColumnSet* cols,
                     std::vector<std::vector<double>>* globals, Timestamp t);
  void ResetAccumulators(ColumnSet* cols);
  std::vector<VertexId> ActiveList(const ColumnSet& cols) const;
  void InitGlobals(std::vector<std::vector<double>>* globals);

  /// Incremental Accumulate (§5.4): applies one evaluated emission value
  /// (expanded to `emission.width` doubles) with signed multiplicity
  /// `mult` onto the *current* accumulator state — Abelian-group inverse
  /// on deletions, support counting / recompute marking for monoids. Both
  /// walk drivers accumulate through this in sequential emission order,
  /// so floating-point accumulation order is the same at any thread count.
  void ApplyEmissionValue(const Emission& emission, VertexId target,
                          const double* values, int mult);

  // ---- walk-job execution ----------------------------------------------
  /// One enumeration request of a superstep: a start set walked over a
  /// fixed stream assignment with emissions applied against one snapshot's
  /// evaluation state. Supersteps queue jobs and run them as a batch so
  /// the parallel path can shard all of them at once.
  struct WalkJob {
    std::vector<VertexId> starts;
    std::vector<LevelStream> streams;
    std::vector<const std::vector<uint8_t>*> level_allow;
    int max_depth = 0;
    /// Emissions below this depth are owned by another sub-query (SWS).
    int min_emit_depth = 0;
    /// −1 retracts (q_vs pass A); +1 asserts.
    int mult_sign = 1;
    /// Restrict to monoid emissions onto marked targets (recompute jobs).
    bool monoid_only = false;
    /// Delta-stream level of a q_es_p sub-query (depth at which the walk
    /// crosses ΔE); -1 for non-delta jobs. Lineage tagging only.
    int delta_level = -1;
    const std::vector<std::vector<uint8_t>>* target_marks = nullptr;
    const ColumnSet* eval_cols = nullptr;
    const std::vector<std::vector<double>>* eval_globals = nullptr;
    /// Snapshot whose |E| feeds the job's evaluation context.
    Timestamp eval_t = 0;
    Timestamp current_t = 0;
    Timestamp previous_t = 0;
  };

  /// Evaluation state of one job's emissions on one thread: the job's
  /// context (snapshot columns and globals, |V|, |E| of eval_t — looked
  /// up once per job) and per-emission Map counters, which the driver
  /// merges into the profile.
  struct JobEmitter {
    EvalContext ctx;
    std::vector<gsa::OperatorCounters> map;
  };
  JobEmitter MakeEmitter(const WalkJob& job) const;
  void MergeMapCounters(const std::vector<gsa::OperatorCounters>& map);

  /// The one emission path. For every emission of the walk row
  /// `row[0..depth]` that passes the job's row filter (statement depth,
  /// min_emit_depth, monoid_only marks), evaluates guards and value
  /// (EvaluateEmission) and, when it fires, calls
  /// `apply(emission, target, values, signed_mult)`. The two drivers
  /// differ only in `apply`: ApplyRow accumulates at once, pool workers
  /// record the value for replay. Const, so workers may share it.
  template <typename Apply>
  void EmitRow(const WalkJob& job, JobEmitter* emitter, const VertexId* row,
               int depth, int mult, Apply&& apply) const;
  /// The apply sink: EmitRow into ApplyEmissionValue, then (lineage mode)
  /// the target absorbs the walk start's provenance plus the id of the
  /// delta edge the row crossed at `job.delta_level`.
  void ApplyRow(const WalkJob& job, JobEmitter* emitter, const VertexId* row,
                int depth, int mult);

  /// Runs a batch of jobs through one of two drivers (see ARCHITECTURE.md,
  /// "Threading model"): inline, applying every emission as the walk
  /// fires it, or sharded over the thread pool, evaluating on workers and
  /// replaying the values in inline order.
  Status RunWalkJobs(const std::vector<WalkJob>& jobs);
  Status RunWalkJobsSequential(const std::vector<WalkJob>& jobs);
  Status RunWalkJobsParallel(const std::vector<WalkJob>& jobs,
                             size_t num_tasks);
  /// True when no traverse-level expression (level predicate, emission
  /// guard or value) reads accumulator state — the condition under which
  /// walk evaluation commutes with emission application.
  static bool ProgramParallelSafe(const CompiledProgram& program);

  // ---- EXPLAIN ANALYZE recording ---------------------------------------
  /// Re-resolves the cached per-operator counter cells (map-node addresses
  /// in profile_ are stable, so this runs once in the constructor).
  void CacheProfileCells();
  /// Start-filter (σ_active) attribution: `in` candidates inspected, `out`
  /// kept as walk starts.
  void RecordStartFilter(uint64_t in, uint64_t out);
  /// Folds the enumerator's per-level counter deltas (against the given
  /// run-start baselines) into the per-operator profile: level i →
  /// LevelSpec::op, plus the Walk roll-up and the start-stream output.
  void FoldWalkCounters(const std::vector<WalkEnumerator::LevelCounts>& base,
                        uint64_t starts0);

  // ---- run and superstep frames ------------------------------------------
  /// The frame of one RunOneShot / RunIncremental call (engine.cc): trace
  /// span, live-status run, stats reset, counter baselines and profile
  /// reset on entry; Finish(supersteps) fills stats_ from the baselines.
  struct RunFrame;
  /// What one superstep reports for its timeline row.
  struct SuperstepOutcome {
    gsa::SuperstepMode mode = gsa::SuperstepMode::kOneShot;
    SuperstepCost cost;
    uint64_t active_vertices = 0;
    uint64_t frontier = 0;
  };
  using SuperstepBody = std::function<Status(
      Superstep s, std::vector<VertexId> active, SuperstepOutcome* out)>;
  /// The superstep loop of both runs. Supersteps continue while any
  /// vertex is active (always for the first `min_supersteps`), up to
  /// fixed_supersteps. Each gets its trace span, live status, stall hook,
  /// shuffle/recompute scratch reset and work baselines around
  /// `body(s, active, &outcome)`, then its timeline row and telemetry.
  /// Sets `*supersteps` to the number run.
  Status RunSupersteps(Superstep min_supersteps, const SuperstepBody& body,
                       Superstep* supersteps);
  /// Per-partition network_bytes snapshot (empty when unpartitioned).
  std::vector<uint64_t> ShuffleSnapshot() const;

  // ---- live telemetry ---------------------------------------------------
  /// Per-machine seconds at superstep start (empty when unpartitioned) —
  /// the baseline for the superstep's barrier-wait model.
  std::vector<double> MachineSecondsSnapshot() const;
  /// End-of-superstep telemetry: folds the barrier-wait model into
  /// machine_stats_, publishes per-partition progress to GlobalLiveStatus,
  /// and refreshes the partition skew and memory gauges in the store's
  /// registry. Observation-only — no work counter or accumulator moves.
  void PublishSuperstepTelemetry(const std::vector<double>& seconds0);
  /// Refreshes the mem.accumulator_columns byte gauge from the resident
  /// column sets.
  void PublishColumnMemory();

  void MarkRecompute(int attr, VertexId v);
  void UnmarkRecompute(int attr, VertexId v);
  void ClearRecomputeState();

  /// End-of-run digest: fills RunStats::state_digest and mirrors it into
  /// the metrics registry and GlobalLiveStatus. Observation-only.
  void PublishStateDigest(Timestamp t);

  /// After-image records of one attribute's delta file, in vid order.
  struct DeltaRecords {
    std::vector<VertexId> vids;
    std::vector<double> values;
    void Append(VertexId v, const double* cell, int width) {
      vids.push_back(v);
      values.insert(values.end(), cell, cell + width);
    }
  };
  /// Per-block record buffers: [block][index into an attribute list].
  using BlockRecords = std::vector<std::vector<DeltaRecords>>;

  /// Vertex blocks of a sharded pass over [0, n): `count` blocks of `per`
  /// vertices (the last may be short). One block covers everything on the
  /// sequential path.
  struct VertexBlocks {
    VertexId per = 0;
    size_t count = 1;
  };
  /// Blocks for the Update passes over all vertices: ~8 per worker when
  /// Update may run vertex-sharded — its bodies write only their own
  /// vertex's cells (no global assignment) and the run is not
  /// partitioned — else one.
  VertexBlocks PlanVertexBlocks() const;
  /// Runs `fn(block, begin, end)` for every block — on the pool when there
  /// are at least two, else inline — and returns the pool tasks run.
  /// Blocks are disjoint vid ranges, so per-block outputs concatenated in
  /// block order are in vid order.
  size_t ForEachVertexBlock(
      const VertexBlocks& blocks,
      const std::function<void(size_t, VertexId, VertexId)>& fn);
  /// Sizes `records` to `blocks` × `files` empty buffers (keeps capacity).
  static void ResetRecords(BlockRecords* records, size_t blocks,
                           size_t files);

  /// The Update phase, in place on cur_cols_, for one-shot and
  /// incremental supersteps alike. Vertices outside `domain` (when given)
  /// take their attribute cells from `prev` (A_{t-1,s+1}); the others
  /// deactivate and run Update if touched. When `records` is given, each
  /// block collects the after-images of the attribute-file cells that
  /// differ from their value before the pass or from `prev` — the §5.5
  /// file condition. `corrupt_vertex` (>= 0) is the drift-injection test
  /// hook: that vertex's first audited cell is shifted before recording.
  void RunUpdatePass(Timestamp t, const std::vector<uint8_t>* domain,
                     const ColumnSet* prev, BlockRecords* records,
                     VertexId corrupt_vertex = -1);

  /// One pass over cur_cols_ vs prev_cols_ at an incremental superstep:
  /// marks the ΔUpdate domain (any accumulator-file or non-accumulator
  /// cell differs) in `domain`, and, when `records` is given, collects
  /// the differing accumulator-file after-images.
  void ClassifyDeltaDomain(std::vector<uint8_t>* domain,
                           BlockRecords* records);

  /// Vertices where any of `attrs` differs between two column sets.
  void CollectChanged(const ColumnSet& a, const ColumnSet& b,
                      const std::vector<int>& attrs,
                      std::vector<VertexId>* out) const;

  /// Writes one F(t, s) file per attribute of `attrs` from per-block
  /// records (concatenated in block order, hence in vid order).
  Status WriteDeltaFiles(Timestamp t, Superstep s,
                         const std::vector<int>& attrs,
                         const BlockRecords& records);

  // ---- incremental machinery ------------------------------------------
  /// True when an incremental superstep may take the recompute path: a
  /// one-hop walk (level-1 scans are then the whole walk), no global
  /// accumulator emission (globals carry totals across batches), lineage
  /// off (provenance is recorded per Δ-walk), and RC enabled.
  bool SuperstepRecomputeEligible() const;
  /// Per-batch inputs of EstimateSuperstepCost: level-1 degrees at t−1
  /// and t, and the Δes sources of batch t with their delta-entry counts.
  Status PrepareSuperstepCosts(Timestamp t);
  SuperstepCost EstimateSuperstepCost(
      const std::vector<VertexId>& changed_starts,
      const std::vector<VertexId>& cur_active) const;
  /// One walk over `starts` on the current stream at `t`, applied to
  /// cur_cols_ — the one-shot superstep's Traverse, also the recompute
  /// path of an incremental superstep.
  Status RunCurrentWalk(Timestamp t, std::vector<VertexId> starts);
  Status RunDeltaTraverse(Timestamp t, Superstep s,
                          const std::vector<VertexId>& changed_starts,
                          const std::vector<VertexId>& cur_active);
  Status RunAnchoredClosing(Timestamp t, int p);
  Status RunMonoidRecompute(Timestamp t, Superstep s);

  // Attribute layout: program attrs [0, num_program_attrs), then hidden
  // contribs column, then per-monoid support columns.
  int num_program_attrs() const {
    return static_cast<int>(program_->vertex_attrs.size());
  }
  bool IsMonoidScalar(int attr) const;
  bool IsAccmMonoid(int attr) const;
  const std::vector<int>& NonAccmAttrs() const { return non_accm_attrs_; }
  const std::vector<int>& AttrFileAttrs() const { return attr_file_attrs_; }
  const std::vector<int>& AccmFileAttrs() const { return accm_file_attrs_; }

  DynamicGraphStore* store_;
  const CompiledProgram* program_;
  EngineOptions options_;
  WalkEnumerator enumerator_;
  // Per-superstep history, in the store's page file. Its timestamps are
  // store timestamps minus history_base_, the snapshot of the one-shot.
  VertexStore vertex_store_;
  Timestamp history_base_ = 0;

  // ---- intra-machine parallelism ---------------------------------------
  bool parallel_safe_ = false;
  // Update bodies with no global assignment write disjoint per-vertex
  // cells, so the Update phase can shard over vertices directly.
  bool update_parallel_safe_ = false;
  int num_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_threads_;  // lazily created

  std::vector<int> all_widths_;       // program + hidden columns
  int contribs_attr_ = -1;            // hidden: per-vertex contribution count
  std::vector<int> support_attr_;     // per program attr: hidden support or -1
  std::vector<int> accm_attrs_;       // program attrs that are accumulators
  // Built in the constructor (pool workers read them concurrently).
  std::vector<int> non_accm_attrs_;   // program attrs, not accumulators
  std::vector<int> attr_file_attrs_;  // ... and not virtual (degrees)
  std::vector<int> accm_file_attrs_;  // accumulators, supports, contribs
  std::vector<uint8_t> delta_domain_;  // ΔUpdate domain marks (scratch)

  ColumnSet cur_cols_;
  ColumnSet prev_cols_;
  std::vector<std::vector<double>> cur_globals_;
  std::vector<std::vector<double>> prev_globals_;

  // Monoid recompute tracking (per program attr; cleared per superstep).
  std::vector<std::vector<uint8_t>> monoid_marks_;
  std::vector<std::vector<VertexId>> recompute_sets_;
  // Adjacency scratch for the anchored enumeration (indexed by depth).
  std::vector<std::vector<VertexId>> adj_stack_;

  // ---- distributed simulation ------------------------------------------
  int OwnerOf(VertexId v) const {
    return static_cast<int>(v % options_.num_partitions);
  }
  /// Runs `enumerate(starts_subset)` once per machine with that machine's
  /// pool and stopwatch (identity pass-through when num_partitions == 1).
  Status PartitionedEnumerate(
      const std::vector<VertexId>& starts,
      const std::function<Status(const std::vector<VertexId>&)>& enumerate);
  void ResetMachineStats();

  std::vector<std::unique_ptr<BufferPool>> machine_pools_;
  std::vector<MachineStats> machine_stats_;
  int current_machine_ = 0;
  // Distinct (machine, target) pairs per superstep for pre-aggregated
  // shuffle accounting.
  std::unordered_set<uint64_t> remote_seen_;

  // SnapshotDegrees' per-run cache, keyed by (snapshot, direction).
  std::map<std::pair<Timestamp, Direction>, std::vector<int64_t>>
      degree_cache_;
  // Per-batch EstimateSuperstepCost inputs (PrepareSuperstepCosts); the
  // degree arrays point into degree_cache_.
  const std::vector<int64_t>* prev_degree_ = nullptr;
  const std::vector<int64_t>* cur_degree_ = nullptr;
  std::vector<VertexId> delta_sources_;
  std::vector<int64_t> delta_source_edges_;

  Timestamp last_run_t_ = -1;
  Superstep prev_supersteps_ = 0;
  RunStats stats_;

  // Δ-record provenance (null unless options_.lineage).
  std::unique_ptr<LineageTracker> lineage_;

  // Resident accumulator-column bytes (cur + prev column sets), mirrored
  // into mem.accumulator_columns.* of the store's registry.
  ByteGauge mem_columns_;

  // ---- EXPLAIN ANALYZE profile -----------------------------------------
  gsa::ExecutionProfile profile_;
  // Cached cells of profile_ for the hot recording paths (std::map node
  // addresses are stable; entries are created by RegisterOperators in the
  // constructor and survive ResetCounters). Null when the program has no
  // such operator.
  std::vector<gsa::OperatorCounters*> emission_map_cells_;
  std::vector<gsa::OperatorCounters*> emission_accum_cells_;
  gsa::OperatorCounters* init_cell_ = nullptr;
  gsa::OperatorCounters* update_cell_ = nullptr;
  gsa::OperatorCounters* start_filter_cell_ = nullptr;
  gsa::OperatorCounters* start_stream_cell_ = nullptr;
  gsa::OperatorCounters* walk_cell_ = nullptr;
};

}  // namespace itg

#endif  // ITG_ENGINE_ENGINE_H_
