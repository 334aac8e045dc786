// The standing-query service (tentpole of the serving layer): owns the
// graph of record, admits L_NGA registrations as standing incremental
// views (serve/standing_query.h), and pumps ingested Δ-batches through
// every view on one maintenance thread — the paper's "continuously
// maintain analysis results as the graph evolves" promoted from a batch
// driver loop to a long-lived daemon.
//
// Transport-free by design: this class speaks protocol.h structs, not
// sockets, so the admission-control / backpressure / drain logic is
// unit-testable without a port (tests/serve_test.cc). The socket face
// lives in serve/server.h.
//
// Concurrency model. One mutex (mu_) serializes the control plane
// (register/deregister/status) with batch application; the bounded
// ingest queue decouples producers from view maintenance:
//
//   client conns --Ingest()--> [bounded queue] --maintenance thread-->
//       store ApplyMutations + per-view ApplyBatch + subscriber fan-out
//
// When ingestion outruns maintenance the queue fills and Ingest()
// blocks — backpressure, surfaced as the serve.backpressure_stalls
// counter (one bump per blocked enqueue). Graceful shutdown (Drain)
// stops admitting work, drains the queue, finishes the in-flight
// supersteps, and only then returns; SIGINT and the `shutdown` op share
// this one path (common/clean_stop.h).
#ifndef ITG_SERVE_SERVICE_H_
#define ITG_SERVE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/status.h"
#include "common/timed_mutex.h"
#include "common/types.h"
#include "serve/protocol.h"
#include "serve/standing_query.h"
#include "storage/graph_store.h"

namespace itg {
namespace serve {

struct ServiceOptions {
  /// Admission control: max concurrently standing queries.
  size_t max_queries = 8;
  /// Default per-query MemoryBudget slice when a register request does
  /// not carry budget_bytes; 0 = uncapped.
  uint64_t default_budget_bytes = 0;
  /// Bounded ingest queue capacity (batches); a full queue blocks
  /// Ingest() — the backpressure mechanism.
  size_t ingest_queue_depth = 64;
  /// Directory for the store page files: the graph of record
  /// (`primary.pages`), its symmetrized companion (`symmetric.pages`,
  /// built on the first symmetric registration) and the registration
  /// audits' shadow stores (`audit_<view>.shadow*.pages`).
  std::string scratch_dir;
  /// Worker threads per view engine (0 = ITG_THREADS / hardware).
  int num_threads = 0;
  /// Audit every freshly registered view against a shadow replay.
  bool verify_on_register = true;
  /// Registry for serve.* counters; null = GlobalMetrics().registry().
  MetricsRegistry* registry = nullptr;
  /// Slow-batch log threshold: a batch whose ingest-entry -> last-flush
  /// latency exceeds this many milliseconds logs its per-stage breakdown
  /// and dumps the flight-recorder window. 0 disables the log.
  uint64_t slow_batch_ms = 0;
};

/// ΔQ sink of one subscriber: called on the maintenance thread with the
/// fully-formed delta message of one view after one batch. Must not
/// re-enter the Service.
using DeltaSink = std::function<void(const Response&)>;

class Service {
 public:
  /// Builds the service around a fresh primary store over `base_edges`.
  static StatusOr<std::unique_ptr<Service>> Create(
      VertexId num_vertices, std::vector<Edge> base_edges,
      const ServiceOptions& options);

  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // ---- control plane (request -> response, synchronous) ----

  /// Admission control + view construction. On success returns an ack
  /// carrying the view's one-shot digest; when `req.snapshot` is set and
  /// `snapshot_out` non-null, also fills a snapshot message to deliver
  /// after the ack. Registration runs the one-shot inline, pausing batch
  /// maintenance (the view must join its store at a batch boundary).
  Response Register(const Request& req, Response* snapshot_out);

  /// Drops a standing query and releases its budget slice.
  Response Deregister(const Request& req);

  /// Attaches a ΔQ sink to a query; `sub_id_out` is the handle for
  /// RemoveSubscriber. Errors: unknown_query.
  Response Subscribe(const Request& req, DeltaSink sink, int* sub_id_out);
  void RemoveSubscriber(const std::string& query, int sub_id);

  /// Validates and enqueues one Δ-batch. Blocks while the queue is full
  /// (backpressure). The ack reports the post-enqueue queue depth; view
  /// maintenance happens asynchronously.
  Response Ingest(const Request& req);

  /// Per-query rows + service counters.
  Response GetStatus();

  /// Stops admitting work, drains the queue through every view, joins
  /// the maintenance thread. Idempotent; also run by the destructor.
  void Drain();
  bool draining() const;

  /// The /statusz splice: `"serving":{...}` with the same rows as the
  /// status op (TelemetryServer::set_statusz_extra).
  std::string StatuszExtraJson();

  // ---- introspection (tests, run reports) ----

  size_t standing_queries() const;
  uint64_t backpressure_stalls() const;
  uint64_t ingest_batches() const;
  const ServiceOptions& options() const { return options_; }
  DynamicGraphStore* primary() { return primary_.get(); }

  /// Test hook: while paused the maintenance thread holds off dequeuing,
  /// so a unit test can fill a tiny queue and observe a deterministic
  /// backpressure stall.
  void SetMaintenancePaused(bool paused);

 private:
  Service() = default;

  // One ingested Δ-batch in flight through the pipeline. The three time
  // points below are deliberately shared between adjacent stage
  // measurements (each stage ends exactly where the next begins, on the
  // same steady clock), so the per-stage serve.stage_latency_us.* samples
  // sum to the end-to-end serve.delta_latency_us with no unattributed
  // time — asserted by tests.
  struct PendingBatch {
    std::vector<EdgeDelta> ops;
    /// The batch of the symmetric companion (LiveEdgeSet::Apply).
    std::vector<EdgeDelta> symmetric_ops;
    uint64_t seq = 0;
    /// Pipeline trace id (MakeTraceId(seq)); echoed in the ingest ack,
    /// every delta message, and the serve.batch flow events.
    uint64_t trace_id = 0;
    std::chrono::steady_clock::time_point ingest_start;  // Ingest() entry
    /// Validation done; the `validate` stage ends and `queue_wait` (incl.
    /// any backpressure block) begins here.
    std::chrono::steady_clock::time_point enqueued_at;
    /// Set by the maintenance thread at dequeue; `queue_wait` ends and
    /// `apply` begins here.
    std::chrono::steady_clock::time_point dequeued_at;
  };

  void MaintenanceLoop();
  void ApplyOneBatch(PendingBatch batch);
  /// Builds symmetric_ from the primary's latest snapshot. Call under mu_.
  Status BuildSymmetricCompanionLocked();
  void FillStatusLocked(Response* out);
  /// `{"slow_batch_ms":...,"stages":{...},"views":{...}}` — the
  /// "pipeline" object of the /statusz splice.
  std::string PipelineStatuszJson();
  /// Trace id for batch `seq`: a per-service random-ish base mixed with
  /// the seq (bijective), so ids are not accidentally equal to seqs and
  /// client correlation through the wire round-trip is meaningful.
  uint64_t MakeTraceId(uint64_t seq) const;
  /// Resolves + caches the per-view metric handles and seeds the
  /// staleness reference. Call under mu_ right after admission.
  void BindViewPipelineLocked(StandingQuery* query);
  /// Drops the view's serve.*.<name> registry series (after the cached
  /// handles died with the view). Call under mu_ after erasing the view.
  void RetireViewSeriesLocked(const std::vector<std::string>& names);
  /// Recomputes one view's lag gauges from last_ingested_* vs the view's
  /// applied position. Call under mu_.
  void UpdateViewLagLocked(StandingQuery* query);

  ServiceOptions options_;
  MetricsRegistry* registry_ = nullptr;
  std::unique_ptr<DynamicGraphStore> primary_;
  /// The graph of record with every edge mirrored, shared by all
  /// symmetric views; built on the first symmetric registration, dropped
  /// when no symmetric view remains (under mu_).
  std::unique_ptr<DynamicGraphStore> symmetric_;

  mutable std::mutex mu_;  // control plane + primary + views + subscribers
  std::map<std::string, std::unique_ptr<StandingQuery>> queries_;
  struct Subscriber {
    int id;
    DeltaSink sink;
  };
  std::map<std::string, std::vector<Subscriber>> subscribers_;
  int next_sub_id_ = 1;
  /// The graph of record's live edge set for ingest validation;
  /// includes batches still in the queue.
  LiveEdgeSet live_;
  bool draining_ = false;

  /// Guards the ingest queue. Timed (contention.serve.ingest_queue.*):
  /// producers racing the maintenance thread for the queue — including
  /// the condition-variable relock after a backpressure wakeup herd —
  /// surface as wait_us samples. A pointer because the histogram lives
  /// in registry_, which Create() resolves after construction.
  std::unique_ptr<TimedMutex> queue_mu_;
  std::condition_variable_any queue_cv_;   // consumer wakeups
  std::condition_variable_any space_cv_;   // producer wakeups (backpressure)
  std::deque<PendingBatch> queue_;
  bool applying_ = false;  // a batch is between dequeue and fan-out
  bool paused_ = false;
  bool stop_thread_ = false;
  std::thread maintenance_;
  /// Next ticket allowed to enqueue (strict seq FIFO under backpressure).
  uint64_t next_ticket_ = 1;

  uint64_t next_seq_ = 1;
  /// Position of the graph of record in the ingest stream (under mu_):
  /// seq + ingest entry time of the newest validated batch, and the seq
  /// of the newest batch already applied to the primary. The per-view
  /// lag gauges measure views against these.
  uint64_t last_ingested_seq_ = 0;
  std::chrono::steady_clock::time_point last_ingest_time_{};
  uint64_t last_applied_seq_ = 0;
  uint64_t trace_id_base_ = 0;
  Counter* backpressure_stalls_ = nullptr;
  Counter* ingest_batches_ = nullptr;
  Counter* ingest_ops_ = nullptr;
  Counter* delta_messages_ = nullptr;
  Counter* slow_batches_ = nullptr;
  Gauge* standing_queries_gauge_ = nullptr;
  Gauge* queue_depth_gauge_ = nullptr;
  // Batch-level stage histograms (per-view stages live on the views).
  Histogram* stage_validate_ = nullptr;
  Histogram* stage_queue_wait_ = nullptr;
  Histogram* stage_apply_ = nullptr;
};

}  // namespace serve
}  // namespace itg

#endif  // ITG_SERVE_SERVICE_H_
