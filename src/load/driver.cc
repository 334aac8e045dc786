#include "load/driver.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "gen/rmat.h"
#include "storage/csr.h"

namespace itg {
namespace load {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t MicrosBetween(Clock::time_point a, Clock::time_point b) {
  if (b <= a) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

/// Mirror of the daemon's LoadGraph + Service::Create normalisation:
/// rmat:<scale> (deterministic seed) or a whitespace edge list, then
/// optional symmetrisation, then dedupe + self-loop drop — yielding the
/// exact live edge set (`Service::live_`) ingest validation starts from.
StatusOr<std::vector<Edge>> LoadBaseEdges(const std::string& graph,
                                          bool symmetric,
                                          VertexId* num_vertices) {
  std::vector<Edge> edges;
  if (graph.rfind("rmat:", 0) == 0) {
    const int scale = std::stoi(graph.substr(5));
    *num_vertices = RmatVertices(scale);
    edges = GenerateRmat(scale);
  } else {
    std::ifstream in(graph);
    if (!in) {
      return Status::IOError("cannot open graph file '" + graph + "'");
    }
    VertexId max_v = 0;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream row(line);
      Edge e;
      if (row >> e.src >> e.dst) {
        edges.push_back(e);
        max_v = std::max({max_v, e.src, e.dst});
      }
    }
    *num_vertices = max_v + 1;
  }
  if (symmetric) edges = SymmetrizeEdges(edges);
  return edges;
}

}  // namespace

// ---------------------------------------------------------------- Correlator

void Correlator::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.clear();
  pending_ = 0;
}

void Correlator::RecordLocked(Trace* t, Clock::time_point arrival) {
  recorder_->Record(MicrosBetween(t->intended, arrival));
  ++t->recorded;
}

void Correlator::OnAck(uint64_t trace_id, Clock::time_point intended) {
  if (fanout_ == 0) return;  // nobody subscribed: nothing will arrive
  std::lock_guard<std::mutex> lock(mu_);
  Trace& t = traces_[trace_id];
  t.acked = true;
  t.intended = intended;
  for (Clock::time_point arrival : t.early) RecordLocked(&t, arrival);
  t.early.clear();
  if (t.recorded >= fanout_) {
    traces_.erase(trace_id);
  } else {
    ++pending_;
  }
}

void Correlator::OnDelta(uint64_t trace_id, Clock::time_point arrival) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = traces_.find(trace_id);
  if (it == traces_.end()) {
    // Delta raced ahead of the ingester reading its ack: buffer it.
    traces_[trace_id].early.push_back(arrival);
    return;
  }
  Trace& t = it->second;
  if (!t.acked) {
    t.early.push_back(arrival);
    return;
  }
  RecordLocked(&t, arrival);
  if (t.recorded >= fanout_) {
    traces_.erase(it);
    --pending_;
  }
}

size_t Correlator::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

// ---------------------------------------------------------------- LoadDriver

/// One generator lane: its own connection, rng, and the lane's slice of
/// the mirrored edge set (src ≡ lane (mod lanes)).
struct LoadDriver::Lane {
  int index = 0;
  ServeConnection conn;
  std::mt19937_64 rng;
  VertexId num_vertices = 0;
  int lanes = 1;
  /// Edges present on the server with src in this lane: base-graph
  /// members (never deleted by us) and our own acked inserts.
  std::unordered_set<Edge, EdgeHash> base;
  std::unordered_set<Edge, EdgeHash> owned_set;
  std::vector<Edge> owned;

  bool Present(const Edge& e) const {
    return base.count(e) != 0 || owned_set.count(e) != 0;
  }

  /// Draws ops_per_batch fresh mutations without touching the model;
  /// CommitBatch applies them once the server acks.
  bool FillBatch(serve::Request* req, uint64_t ops, double delete_fraction) {
    req->inserts.clear();
    req->deletes.clear();
    std::unordered_set<Edge, EdgeHash> in_batch;
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (uint64_t k = 0; k < ops; ++k) {
      const bool want_delete =
          !owned.empty() &&
          owned.size() > req->deletes.size() + 8 &&
          coin(rng) < delete_fraction;
      if (want_delete) {
        // Sample an owned edge not already deleted in this batch.
        bool picked = false;
        for (int attempt = 0; attempt < 16; ++attempt) {
          const Edge e = owned[rng() % owned.size()];
          if (in_batch.count(e) != 0) continue;
          in_batch.insert(e);
          req->deletes.push_back(e);
          picked = true;
          break;
        }
        if (picked) continue;
        // fall through to an insert
      }
      bool inserted = false;
      for (int attempt = 0; attempt < 64; ++attempt) {
        Edge e;
        e.src = static_cast<VertexId>(rng() % static_cast<uint64_t>(
                                                  num_vertices));
        e.src = e.src - (e.src % lanes) + index;
        if (e.src >= num_vertices) continue;
        e.dst = static_cast<VertexId>(rng() % static_cast<uint64_t>(
                                                  num_vertices));
        if (e.src == e.dst || Present(e) || in_batch.count(e) != 0) continue;
        in_batch.insert(e);
        req->inserts.push_back(e);
        inserted = true;
        break;
      }
      if (!inserted && req->inserts.empty() && req->deletes.empty()) {
        return false;  // dense lane: could not produce a single op
      }
    }
    return !req->inserts.empty() || !req->deletes.empty();
  }

  void CommitBatch(const serve::Request& req) {
    for (const Edge& e : req.inserts) {
      owned_set.insert(e);
      owned.push_back(e);
    }
    for (const Edge& e : req.deletes) {
      owned_set.erase(e);
      auto it = std::find(owned.begin(), owned.end(), e);
      if (it != owned.end()) {
        *it = owned.back();
        owned.pop_back();
      }
    }
  }
};

struct LoadDriver::SubConn {
  int index = 0;
  ServeConnection conn;
  std::thread reader;
};

LoadDriver::LoadDriver(DriverOptions options) : options_(std::move(options)) {
  correlator_ = std::make_unique<Correlator>(&recorder_,
                                             options_.subscribers);
}

LoadDriver::~LoadDriver() { Teardown(); }

Status LoadDriver::Setup() {
  if (setup_done_) return Status::OK();
  if (options_.ingesters < 1) {
    return Status::InvalidArgument("need at least one ingest connection");
  }
  VertexId num_vertices = 0;
  auto base_or =
      LoadBaseEdges(options_.graph, options_.symmetric, &num_vertices);
  ITG_RETURN_IF_ERROR(base_or.status());

  ITG_RETURN_IF_ERROR(control_.Connect(options_.port));

  // Subscribers first: their standing queries must exist before load
  // starts, so every Δ-batch fans out to all of them.
  for (int i = 0; i < options_.subscribers; ++i) {
    auto sub = std::make_unique<SubConn>();
    sub->index = i;
    ITG_RETURN_IF_ERROR(sub->conn.Connect(options_.port));
    serve::Request reg;
    reg.op = serve::RequestOp::kRegister;
    reg.query = "lq" + std::to_string(i);
    reg.program = options_.program;
    reg.subscribe = true;
    auto ack_or = sub->conn.Call(reg);
    ITG_RETURN_IF_ERROR(ack_or.status());
    if (ack_or.value().type != serve::ResponseType::kAck) {
      return Status::Internal("register " + reg.query + " failed: " +
                              ack_or.value().code + ": " +
                              ack_or.value().message);
    }
    ITG_RETURN_IF_ERROR(sub->conn.SetRecvTimeout(50));
    subs_.push_back(std::move(sub));
  }

  for (int i = 0; i < options_.ingesters; ++i) {
    auto lane = std::make_unique<Lane>();
    lane->index = i;
    lane->lanes = options_.ingesters;
    lane->num_vertices = num_vertices;
    lane->rng.seed(options_.seed * 0x9e3779b97f4a7c15ull +
                   static_cast<uint64_t>(i));
    for (const Edge& e : base_or.value()) {
      if (e.src == e.dst) continue;  // the daemon drops self-loops too
      if (e.src % options_.ingesters == i) lane->base.insert(e);
    }
    ITG_RETURN_IF_ERROR(lane->conn.Connect(options_.port));
    lanes_.push_back(std::move(lane));
  }

  stop_.store(false, std::memory_order_relaxed);
  for (auto& sub : subs_) {
    SubConn* raw = sub.get();
    sub->reader = std::thread([this, raw] { SubscriberLoop(raw); });
  }
  setup_done_ = true;
  return Status::OK();
}

void LoadDriver::SubscriberLoop(SubConn* sub) {
  while (!stop_.load(std::memory_order_relaxed)) {
    serve::Response resp;
    const ReadOutcome out = sub->conn.Read(&resp);
    if (out == ReadOutcome::kTimeout) continue;
    if (out == ReadOutcome::kClosed || out == ReadOutcome::kError) break;
    if (resp.type == serve::ResponseType::kDelta && resp.trace_id != 0) {
      correlator_->OnDelta(resp.trace_id, Clock::now());
    }
  }
}

StatusOr<serve::Response> LoadDriver::FetchStatus() {
  serve::Request req;
  req.op = serve::RequestOp::kStatus;
  return control_.Call(req);
}

Status LoadDriver::IngestLoop(Lane* lane, double lane_rate,
                              Clock::time_point window_start,
                              Clock::time_point window_end,
                              uint64_t* batches, uint64_t* rejected,
                              uint64_t* queue_depth_max) {
  std::exponential_distribution<double> exp_gap(lane_rate);
  const double uniform_gap_s = 1.0 / lane_rate;
  auto next_gap = [&]() -> Clock::duration {
    const double s = options_.arrival == DriverOptions::Arrival::kPoisson
                         ? exp_gap(lane->rng)
                         : uniform_gap_s;
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };

  // The whole schedule derives from window_start: lateness accumulates
  // visibly in the samples instead of silently re-anchoring the clock.
  Clock::time_point intended = window_start + next_gap();
  while (intended < window_end && !stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_until(intended);
    serve::Request req;
    req.op = serve::RequestOp::kIngest;
    if (!lane->FillBatch(&req, options_.ops_per_batch,
                         options_.delete_fraction)) {
      return Status::Internal("lane " + std::to_string(lane->index) +
                              " could not generate a batch (edge space "
                              "exhausted)");
    }
    for (;;) {
      auto ack_or = lane->conn.Call(req);
      ITG_RETURN_IF_ERROR(ack_or.status());
      const serve::Response& ack = ack_or.value();
      if (ack.type == serve::ResponseType::kAck) {
        lane->CommitBatch(req);
        correlator_->OnAck(ack.trace_id, intended);
        ++*batches;
        *queue_depth_max = std::max(*queue_depth_max, ack.queue_depth);
        break;
      }
      if (ack.code == "invalid_mutation") {
        // Model miss (should not happen with disjoint lanes): redraw the
        // whole batch at the SAME intended time, so the retry still pays
        // the full schedule delay.
        ++*rejected;
        if (!lane->FillBatch(&req, options_.ops_per_batch,
                             options_.delete_fraction)) {
          return Status::Internal("lane " + std::to_string(lane->index) +
                                  " could not regenerate a batch");
        }
        continue;
      }
      if (ack.code == "shutting_down") return Status::OK();
      return Status::Internal("ingest rejected: " + ack.code + ": " +
                              ack.message);
    }
    intended += next_gap();
  }
  return Status::OK();
}

StatusOr<WindowResult> LoadDriver::RunWindow(double rate,
                                             uint64_t duration_ms) {
  if (!setup_done_) return Status::Internal("Setup() not called");
  if (rate <= 0) return Status::InvalidArgument("rate must be positive");
  recorder_.Reset();
  correlator_->Reset();

  auto status_before_or = FetchStatus();
  ITG_RETURN_IF_ERROR(status_before_or.status());

  WindowResult result;
  result.offered_rate = rate;
  const double lane_rate = rate / options_.ingesters;
  const Clock::time_point window_start = Clock::now();
  const Clock::time_point window_end =
      window_start + std::chrono::milliseconds(duration_ms);

  // Status poller: samples server queue depth and view staleness while
  // the window runs, so the report carries server-side maxima next to
  // the client-side percentiles.
  std::atomic<bool> poll_stop{false};
  uint64_t polled_queue_max = 0;
  uint64_t polled_lag_max = 0;
  std::thread poller;
  if (options_.status_poll_ms > 0) {
    poller = std::thread([&] {
      while (!poll_stop.load(std::memory_order_relaxed)) {
        auto status_or = FetchStatus();
        if (status_or.ok()) {
          const serve::Response& s = status_or.value();
          polled_queue_max = std::max(polled_queue_max, s.queue_depth);
          for (const serve::QueryRow& q : s.queries) {
            polled_lag_max = std::max(polled_lag_max, q.lag_us);
          }
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.status_poll_ms));
      }
    });
  }

  std::vector<std::thread> ingesters;
  std::vector<Status> lane_status(lanes_.size(), Status::OK());
  std::vector<uint64_t> lane_batches(lanes_.size(), 0);
  std::vector<uint64_t> lane_rejected(lanes_.size(), 0);
  std::vector<uint64_t> lane_queue_max(lanes_.size(), 0);
  for (size_t i = 0; i < lanes_.size(); ++i) {
    ingesters.emplace_back([&, i] {
      lane_status[i] =
          IngestLoop(lanes_[i].get(), lane_rate, window_start, window_end,
                     &lane_batches[i], &lane_rejected[i],
                     &lane_queue_max[i]);
    });
  }
  for (std::thread& t : ingesters) t.join();
  const Clock::time_point send_done = Clock::now();

  for (size_t i = 0; i < lanes_.size(); ++i) {
    if (!lane_status[i].ok()) {
      poll_stop.store(true, std::memory_order_relaxed);
      if (poller.joinable()) poller.join();
      return lane_status[i];
    }
    result.batches += lane_batches[i];
    result.rejected_batches += lane_rejected[i];
    result.queue_depth_max =
        std::max(result.queue_depth_max, lane_queue_max[i]);
  }

  // Drain: every acked batch owes one ΔQ record per subscriber; wait for
  // the tail (it is part of the capacity story — a server that cannot
  // drain within the timeout is past its knee).
  const Clock::time_point drain_deadline =
      send_done + std::chrono::milliseconds(options_.drain_timeout_ms);
  while (correlator_->pending() > 0 && Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  result.drained = correlator_->pending() == 0;

  poll_stop.store(true, std::memory_order_relaxed);
  if (poller.joinable()) poller.join();

  auto status_after_or = FetchStatus();
  ITG_RETURN_IF_ERROR(status_after_or.status());
  result.backpressure_stalls =
      status_after_or.value().backpressure_stalls -
      status_before_or.value().backpressure_stalls;
  result.queue_depth_max = std::max(result.queue_depth_max, polled_queue_max);
  result.view_lag_us_max = polled_lag_max;

  const double elapsed_s =
      static_cast<double>(MicrosBetween(window_start, send_done)) / 1e6;
  result.achieved_rate =
      elapsed_s > 0 ? static_cast<double>(result.batches) / elapsed_s : 0;
  result.latency = recorder_.Snap();
  return result;
}

void LoadDriver::Teardown() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& sub : subs_) {
    if (sub->reader.joinable()) sub->reader.join();
    sub->conn.Close();
  }
  subs_.clear();
  for (auto& lane : lanes_) lane->conn.Close();
  lanes_.clear();
  control_.Close();
  setup_done_ = false;
}

}  // namespace load
}  // namespace itg
