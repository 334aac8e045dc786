// One standing incremental view (§2.2, §5 of the paper). A registered
// L_NGA query becomes a long-lived Engine whose state advances by one
// RunIncremental per ingested Δ-batch — the serving-layer embodiment of
// the incremental contract Q(G ∪ ΔG) = Q(G) ∪ ΔQ: after every batch the
// view's audited attributes hold exactly what a from-scratch run over
// the mutated graph would (verified on registration by reusing the
// drift auditor, and continuously observable through the state digest).
//
// Isolation model: views share the service's graph stores — directed
// views the graph of record, symmetric views one symmetrized companion —
// which the service advances once per batch before running the views.
// A store holds only the graph; each view's Engine owns its vertex
// history (delta chains) in the store's page file, so views of different
// programs never see each other's files. A view joining at store
// snapshot L runs its one-shot at L and counts its own timestamps from
// there: 0 at registration, +1 per batch.
//
// Memory accounting: the view's own resident structures (attribute
// columns and the previous-state mirror) are charged to a per-query
// MemoryBudget slice at admission time, so one greedy registration fails
// with `budget_exceeded` instead of degrading every established view.
// The shared stores are not charged to any view.
#ifndef ITG_SERVE_STANDING_QUERY_H_
#define ITG_SERVE_STANDING_QUERY_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_budget.h"
#include "common/metrics_registry.h"
#include "common/resource_scope.h"
#include "common/status.h"
#include "common/types.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "serve/protocol.h"
#include "storage/graph_store.h"

namespace itg {
namespace serve {

struct StandingQueryOptions {
  /// Client-chosen view name; also the LiveStatus query label while this
  /// view's supersteps run.
  std::string name;
  /// L_NGA source (already resolved from a builtin name if any).
  std::string source;
  /// -1 = run to convergence; else exactly this many supersteps.
  int fixed_supersteps = -1;
  /// Hard cap for this view's charged bytes; 0 = uncapped slice.
  uint64_t budget_bytes = 0;
  /// File prefix for the registration audit's shadow store.
  std::string scratch_path;
  int num_partitions = 1;
  int num_threads = 0;
  /// After the registration one-shot, audit the view against a shadow
  /// replay (DriftAuditor::AuditNow) before admitting it.
  bool verify_on_register = true;
  /// Registry for the view's `resource.view.<name>.*` attribution
  /// counters (common/resource_scope.h); null = GlobalRegistry(). The
  /// service passes its own registry so tests with private registries
  /// see — and can retire — the per-view series.
  MetricsRegistry* registry = nullptr;
};

/// A registered query: compiled program + resumable engine over a shared
/// store + previous-state mirror for ΔQ extraction. Not thread-safe; the
/// service serializes all calls on its maintenance thread.
class StandingQuery {
 public:
  /// Compiles, charges the memory budget, runs the one-shot plan at
  /// `store`'s latest snapshot, and (optionally) audits the fresh view.
  /// Failure modes callers turn into structured errors:
  /// InvalidArgument = compile_error, OutOfMemory = budget_exceeded.
  static StatusOr<std::unique_ptr<StandingQuery>> Create(
      DynamicGraphStore* store, const StandingQueryOptions& options);

  ~StandingQuery();

  StandingQuery(const StandingQuery&) = delete;
  StandingQuery& operator=(const StandingQuery&) = delete;

  /// Runs the incremental plan on the store's next snapshot, which the
  /// service has just applied. On success fills `out` as a `delta`
  /// message: changed audited cells (after-images vs. the previous
  /// snapshot), run stats, and the new state digest.
  Status ApplyBatch(Response* out);

  /// Fills `out` as a `snapshot` message: every audited attribute column
  /// in full, plus the digest the columns reproduce.
  void FillSnapshot(Response* out) const;

  /// Fills one status row (shared by the `status` op and /statusz).
  void FillRow(QueryRow* row) const;

  const std::string& name() const { return options_.name; }
  /// The shared store this view runs on.
  const DynamicGraphStore* store() const { return store_; }
  Timestamp timestamp() const { return t_; }
  uint64_t digest() const { return digest_; }
  uint64_t runs() const { return runs_; }
  const MemoryBudget& budget() const { return *budget_; }
  const StandingQueryOptions& options() const { return options_; }

  /// Per-view pipeline observability state, owned and updated by the
  /// Service. The metric handles are resolved once at registration (the
  /// per-batch fan-out must not pay a string-concat + registry-lock
  /// lookup per view per batch) and become dangling after the Service
  /// retires the view's series — they die with the view. The staleness
  /// fields are the view's position in the ingest stream: the primary
  /// sequence number and ingest wall-clock of the newest batch this view
  /// has applied (seeded at registration under the service lock, so
  /// batches still queued at registration count as lag until applied).
  struct PipelineStats {
    Histogram* delta_latency = nullptr;  // serve.delta_latency_us.<name>
    Histogram* view_run = nullptr;   // serve.stage_latency_us.view_run.<name>
    Histogram* stream_flush = nullptr;  // ...stream_flush.<name>
    Gauge* lag_batches = nullptr;       // serve.view_lag_batches.<name>
    Gauge* lag_us = nullptr;            // serve.view_lag_us.<name>
    Gauge* budget_used = nullptr;       // serve.budget_used_bytes.<name>
    uint64_t applied_seq = 0;
    std::chrono::steady_clock::time_point applied_ingest_time{};
    // Last values pushed to the gauges; echoed into status rows and the
    // /statusz pipeline section without re-deriving under another lock.
    uint64_t lag_batches_now = 0;
    uint64_t lag_us_now = 0;
  };
  PipelineStats& pipeline() { return pipeline_; }
  const PipelineStats& pipeline() const { return pipeline_; }

  /// Names of the per-view registry series backing `pipeline()` and the
  /// resource context; the Service removes exactly these on deregister
  /// (metric retirement).
  std::vector<std::string> MetricSeriesNames() const;

  /// The view's attribution principal: CPU / page reads / allocation
  /// bytes spent maintaining this view are charged to
  /// `resource.view.<name>.*` (scoped inside Create and ApplyBatch).
  ResourceContext* resource_context() { return resource_ctx_.get(); }
  const ResourceContext* resource_context() const {
    return resource_ctx_.get();
  }

 private:
  StandingQuery() = default;

  /// Copies the audited columns into prev_ (the diff baseline).
  void MirrorState();

  StandingQueryOptions options_;
  std::unique_ptr<CompiledProgram> program_;
  DynamicGraphStore* store_ = nullptr;  // shared, owned by the service
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MemoryBudget> budget_;  // atomics make it unmovable
  uint64_t charged_bytes_ = 0;
  std::unique_ptr<ResourceContext> resource_ctx_;

  std::vector<int> audited_;               // engine attribute ids
  std::vector<std::vector<double>> prev_;  // audited columns, last snapshot

  Timestamp base_t_ = 0;  // store snapshot of the registration one-shot
  Timestamp t_ = 0;       // view-local snapshot number
  uint64_t digest_ = 0;
  uint64_t runs_ = 0;
  int last_supersteps_ = 0;
  double last_seconds_ = 0;

  PipelineStats pipeline_;
};

}  // namespace serve
}  // namespace itg

#endif  // ITG_SERVE_STANDING_QUERY_H_
