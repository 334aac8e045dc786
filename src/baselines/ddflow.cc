#include "baselines/ddflow.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "storage/csr.h"

namespace itg {

namespace {

constexpr double kDamping = 0.85;
// Approximate per-entry overhead of a hash-map arrangement entry.
constexpr uint64_t kMapEntryBytes = 48;

// Appends one timeline row to a baseline profile (the row index doubles
// as the superstep number: report_diff matches rows positionally).
void PushSuperstep(gsa::ExecutionProfile* profile, bool incremental,
                   uint64_t active, uint64_t frontier, uint64_t emissions,
                   uint64_t edges, uint64_t wall_nanos) {
  gsa::SuperstepProfile row;
  row.superstep = static_cast<int>(profile->supersteps().size());
  row.mode = incremental ? gsa::SuperstepMode::kDelta
                         : gsa::SuperstepMode::kOneShot;
  row.active_vertices = active;
  row.frontier = frontier;
  row.emissions = emissions;
  row.edges = edges;
  row.wall_nanos = wall_nanos;
  profile->supersteps().push_back(std::move(row));
}

void BuildAdjacency(VertexId n, const std::vector<Edge>& edges,
                    std::vector<std::vector<VertexId>>* out,
                    std::vector<std::vector<VertexId>>* in) {
  out->assign(static_cast<size_t>(n), {});
  if (in != nullptr) in->assign(static_cast<size_t>(n), {});
  Csr csr = Csr::FromEdges(n, edges);
  for (VertexId u = 0; u < n; ++u) {
    auto nbrs = csr.Neighbors(u);
    (*out)[u].assign(nbrs.begin(), nbrs.end());
    if (in != nullptr) {
      for (VertexId v : nbrs) (*in)[v].push_back(u);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// DdRank (PR / LP)
// ---------------------------------------------------------------------------

void DdRank::EnsureProfileOps() {
  profile_.RegisterOp(0, "Stream", "edge messages");
  profile_.RegisterOp(1, "Accumulate", "rank values");
}

void DdRank::SeedValue(VertexId v, double* out) const {
  if (width_ == 1) {
    out[0] = 0.15 / static_cast<double>(n_);
    return;
  }
  for (int l = 0; l < width_; ++l) {
    out[l] = (v % width_ == l) ? 0.15 : 0.0;
  }
}

double DdRank::Contribution(double value, double degree) const {
  return (degree == 0) ? 0.0 : value / degree;
}

double DdRank::ValueOf(VertexId v, int l, double agg, double old) const {
  double seed[64];
  SeedValue(v, seed);
  double value = seed[l] + kDamping * agg;
  if (!quantized_) return value;
  // Quantized protocol: round down to the 0.001 grid, freeze sub-grid
  // movements (the shared deadband).
  double q = std::floor(value * 1000.0) / 1000.0;
  return (std::abs(q - old) > 0.001) ? q : old;
}

Status DdRank::RunInitial(VertexId num_vertices,
                          const std::vector<Edge>& edges) {
  TraceSpan span("dd_run_initial", "baseline", num_vertices);
  n_ = num_vertices;
  BuildAdjacency(n_, edges, &out_, &in_);
  const size_t width = static_cast<size_t>(width_);
  const size_t row = static_cast<size_t>(n_) * width;

  values_.assign(static_cast<size_t>(iterations_) + 1,
                 std::vector<double>(row, 0.0));
  aggs_.assign(static_cast<size_t>(iterations_),
               std::vector<double>(row, 0.0));
  ITG_RETURN_IF_ERROR(
      Charge((static_cast<uint64_t>(iterations_) * 2 + 1) * row * 8));
  for (VertexId v = 0; v < n_; ++v) {
    if (width_ == 1) {
      values_[0][static_cast<size_t>(v)] = 1.0;
    } else {
      values_[0][static_cast<size_t>(v) * width +
                 static_cast<size_t>(v % width_)] = 1.0;
    }
  }
  messages_.assign(static_cast<size_t>(iterations_), {});
  EnsureProfileOps();
  profile_.ResetCounters();
  gsa::OperatorCounters& join = profile_.Op(0);
  gsa::OperatorCounters& reduce = profile_.Op(1);
  std::vector<double> contrib(width);
  for (int s = 0; s < iterations_; ++s) {
    Stopwatch ss_watch;
    const uint64_t edges0 = join.edges;
    std::vector<double>& agg = aggs_[static_cast<size_t>(s)];
    Stopwatch join_watch;
    for (VertexId u = 0; u < n_; ++u) {
      double deg = static_cast<double>(out_[u].size());
      if (deg == 0) continue;
      ++join.in_pos;
      const double* uv = values_[static_cast<size_t>(s)].data() +
                         static_cast<size_t>(u) * width;
      for (size_t l = 0; l < width; ++l) {
        contrib[l] = Contribution(uv[l], deg);
      }
      for (VertexId w : out_[u]) {
        // The join result (message) is arranged for incremental reuse.
        ITG_RETURN_IF_ERROR(Charge(kMapEntryBytes + width * 8));
        messages_[static_cast<size_t>(s)][{u, w}] = contrib;
        ++join.edges;
        ++join.out_pos;
        double* wa = agg.data() + static_cast<size_t>(w) * width;
        for (size_t l = 0; l < width; ++l) wa[l] += contrib[l];
      }
    }
    join.wall_nanos += join_watch.ElapsedNanos();
    Stopwatch reduce_watch;
    const std::vector<double>& cur = values_[static_cast<size_t>(s)];
    std::vector<double>& next = values_[static_cast<size_t>(s) + 1];
    for (VertexId v = 0; v < n_; ++v) {
      ++reduce.in_pos;
      ++reduce.out_pos;
      for (size_t l = 0; l < width; ++l) {
        size_t i = static_cast<size_t>(v) * width + l;
        next[i] = ValueOf(v, static_cast<int>(l), agg[i], cur[i]);
      }
    }
    reduce.wall_nanos += reduce_watch.ElapsedNanos();
    PushSuperstep(&profile_, /*incremental=*/false,
                  static_cast<uint64_t>(n_), static_cast<uint64_t>(n_),
                  static_cast<uint64_t>(n_), join.edges - edges0,
                  ss_watch.ElapsedNanos());
  }
  return Status::OK();
}

Status DdRank::ApplyMutations(const std::vector<EdgeDelta>& batch) {
  TraceSpan span("dd_apply_mutations", "baseline",
                 static_cast<int64_t>(batch.size()));
  std::vector<uint8_t> structural(static_cast<size_t>(n_), 0);
  for (const EdgeDelta& d : batch) {
    auto& out = out_[d.edge.src];
    auto& in = in_[d.edge.dst];
    if (d.mult > 0) {
      if (std::find(out.begin(), out.end(), d.edge.dst) == out.end()) {
        out.push_back(d.edge.dst);
        in.push_back(d.edge.src);
      }
    } else {
      out.erase(std::remove(out.begin(), out.end(), d.edge.dst), out.end());
      in.erase(std::remove(in.begin(), in.end(), d.edge.src), in.end());
    }
    // Degree change invalidates every contribution of the source.
    structural[static_cast<size_t>(d.edge.src)] = 1;
  }

  EnsureProfileOps();
  profile_.ResetCounters();
  gsa::OperatorCounters& join = profile_.Op(0);
  gsa::OperatorCounters& reduce = profile_.Op(1);
  const size_t width = static_cast<size_t>(width_);
  std::vector<uint8_t> dirty_values(static_cast<size_t>(n_), 0);
  std::vector<double> contrib(width);
  for (int s = 0; s < iterations_; ++s) {
    Stopwatch ss_watch;
    const uint64_t edges0 = join.edges;
    uint64_t dirty_sources = 0;
    uint64_t changed_values = 0;
    auto& msgs = messages_[static_cast<size_t>(s)];
    std::vector<double>& agg = aggs_[static_cast<size_t>(s)];
    std::vector<double>& next = values_[static_cast<size_t>(s) + 1];
    std::vector<uint8_t> agg_dirty(static_cast<size_t>(n_), 0);
    // Retract / assert messages whose source value or adjacency changed;
    // the additive aggregate arrangement absorbs the deltas.
    Stopwatch join_watch;
    for (VertexId u = 0; u < n_; ++u) {
      if (!structural[u] && !dirty_values[u]) continue;
      ++join.in_pos;
      ++dirty_sources;
      double deg = static_cast<double>(out_[u].size());
      const double* uv = values_[static_cast<size_t>(s)].data() +
                         static_cast<size_t>(u) * width;
      for (size_t l = 0; l < width; ++l) {
        contrib[l] = Contribution(uv[l], deg);
      }
      for (VertexId w : out_[u]) {
        auto [it, inserted] = msgs.try_emplace(Edge{u, w});
        if (inserted) {
          ITG_RETURN_IF_ERROR(Charge(kMapEntryBytes + width * 8));
          it->second.assign(width, 0.0);
        }
        ++join.edges;
        ++join.out_pos;
        double* old = it->second.data();
        double* wa = agg.data() + static_cast<size_t>(w) * width;
        for (size_t l = 0; l < width; ++l) {
          wa[l] += contrib[l] - old[l];
          old[l] = contrib[l];
        }
        agg_dirty[static_cast<size_t>(w)] = 1;
      }
    }
    // Deleted edges: retract their arranged messages entirely.
    for (const EdgeDelta& d : batch) {
      if (d.mult > 0) continue;
      auto it = msgs.find(d.edge);
      if (it == msgs.end()) continue;
      ++join.out_neg;
      double* wa = agg.data() + static_cast<size_t>(d.edge.dst) * width;
      for (size_t l = 0; l < width; ++l) wa[l] -= it->second[l];
      msgs.erase(it);
      agg_dirty[static_cast<size_t>(d.edge.dst)] = 1;
    }
    join.wall_nanos += join_watch.ElapsedNanos();
    // Re-map dirty aggregates to values; the value map also reads the
    // vertex's own previous-iteration value (deadband), so self-dirty
    // vertices re-map too. Propagate only actual changes (sub-grid drift
    // is absorbed here).
    Stopwatch reduce_watch;
    const std::vector<double>& cur = values_[static_cast<size_t>(s)];
    std::vector<uint8_t> next_dirty(static_cast<size_t>(n_), 0);
    for (VertexId w = 0; w < n_; ++w) {
      if (!agg_dirty[w] && !dirty_values[w]) continue;
      ++reduce.in_pos;
      bool changed = false;
      for (size_t l = 0; l < width; ++l) {
        size_t i = static_cast<size_t>(w) * width + l;
        double fresh = ValueOf(w, static_cast<int>(l), agg[i], cur[i]);
        if (fresh != next[i]) {
          next[i] = fresh;
          changed = true;
        }
      }
      if (changed) {
        ++reduce.out_pos;
        ++changed_values;
        next_dirty[w] = 1;
      } else {
        ++reduce.pruned;  // absorbed by the deadband: no propagation
      }
    }
    reduce.wall_nanos += reduce_watch.ElapsedNanos();
    dirty_values.swap(next_dirty);
    PushSuperstep(&profile_, /*incremental=*/true, dirty_sources,
                  dirty_sources, changed_values, join.edges - edges0,
                  ss_watch.ElapsedNanos());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DdMinPropagation (WCC / BFS)
// ---------------------------------------------------------------------------

double DdMinPropagation::MinOfImpl(double self,
                                   const std::vector<double>& msgs) {
  return msgs.empty() ? self : std::min(self, msgs.front());
}

void DdMinPropagation::EnsureProfileOps() {
  profile_.RegisterOp(0, "Stream", "min messages");
  profile_.RegisterOp(1, "Accumulate", "min labels");
}

Status DdMinPropagation::RunInitial(VertexId num_vertices,
                                    const std::vector<Edge>& edges) {
  TraceSpan span("dd_run_initial", "baseline", num_vertices);
  n_ = num_vertices;
  BuildAdjacency(n_, edges, &out_, &in_);
  labels_.clear();
  labels_.push_back(labels0_);
  ITG_RETURN_IF_ERROR(Charge(static_cast<uint64_t>(n_) * 8));
  messages_.push_back({});  // iteration 0 placeholder
  EnsureProfileOps();
  profile_.ResetCounters();
  gsa::OperatorCounters& stream = profile_.Op(0);
  gsa::OperatorCounters& reduce = profile_.Op(1);
  for (int s = 1; s < 500; ++s) {
    Stopwatch ss_watch;
    const uint64_t edges0 = stream.edges;
    // Arrange the full sorted message multiset of this iteration.
    messages_.push_back(
        std::vector<std::vector<double>>(static_cast<size_t>(n_)));
    auto& msgs = messages_.back();
    const auto& prev = labels_.back();
    Stopwatch stream_watch;
    for (VertexId v = 0; v < n_; ++v) {
      auto& mv = msgs[v];
      mv.reserve(in_[v].size());
      for (VertexId u : in_[v]) mv.push_back(prev[u] + increment_);
      std::sort(mv.begin(), mv.end());
      stream.edges += in_[v].size();
      stream.out_pos += mv.size();
      ITG_RETURN_IF_ERROR(Charge(kMapEntryBytes + mv.size() * 8));
    }
    stream.wall_nanos += stream_watch.ElapsedNanos();
    std::vector<double> next(static_cast<size_t>(n_));
    ITG_RETURN_IF_ERROR(Charge(static_cast<uint64_t>(n_) * 8));
    bool changed = false;
    uint64_t changed_labels = 0;
    Stopwatch reduce_watch;
    for (VertexId v = 0; v < n_; ++v) {
      ++reduce.in_pos;
      next[v] = MinOfImpl(prev[v], msgs[v]);
      if (next[v] != prev[v]) {
        changed = true;
        ++reduce.out_pos;
        ++changed_labels;
      }
    }
    reduce.wall_nanos += reduce_watch.ElapsedNanos();
    labels_.push_back(std::move(next));
    PushSuperstep(&profile_, /*incremental=*/false,
                  static_cast<uint64_t>(n_), static_cast<uint64_t>(n_),
                  changed_labels, stream.edges - edges0,
                  ss_watch.ElapsedNanos());
    if (!changed) break;
  }
  return Status::OK();
}

Status DdMinPropagation::ApplyMutations(const std::vector<EdgeDelta>& batch) {
  TraceSpan span("dd_apply_mutations", "baseline",
                 static_cast<int64_t>(batch.size()));
  for (const EdgeDelta& d : batch) {
    auto& out = out_[d.edge.src];
    auto& in = in_[d.edge.dst];
    if (d.mult > 0) {
      if (std::find(out.begin(), out.end(), d.edge.dst) == out.end()) {
        out.push_back(d.edge.dst);
        in.push_back(d.edge.src);
      }
    } else {
      out.erase(std::remove(out.begin(), out.end(), d.edge.dst), out.end());
      in.erase(std::remove(in.begin(), in.end(), d.edge.src), in.end());
    }
  }

  std::unordered_set<Edge, EdgeHash> inserted_now;
  for (const EdgeDelta& d : batch) {
    if (d.mult > 0) inserted_now.insert(d.edge);
  }

  EnsureProfileOps();
  profile_.ResetCounters();
  gsa::OperatorCounters& stream = profile_.Op(0);
  gsa::OperatorCounters& reduce = profile_.Op(1);

  // changed[v] -> old label at the previous iteration, for message
  // retraction at the next one.
  std::unordered_map<VertexId, double> changed_prev;
  auto update_multiset = [&](std::vector<double>& mv, double old_value,
                             bool remove_old, double new_value,
                             bool insert_new) -> Status {
    if (remove_old) {
      auto it = std::lower_bound(mv.begin(), mv.end(), old_value);
      if (it != mv.end() && *it == old_value) mv.erase(it);
    }
    if (insert_new) {
      ITG_RETURN_IF_ERROR(Charge(8));
      mv.insert(std::lower_bound(mv.begin(), mv.end(), new_value),
                new_value);
    }
    return Status::OK();
  };

  size_t s = 1;
  while (true) {
    if (s >= labels_.size()) {
      // The fixpoint needs more iterations than before (e.g. a deletion
      // lengthened shortest paths): extend with full iterations.
      Stopwatch ss_watch;
      const uint64_t edges0 = stream.edges;
      uint64_t changed_labels = 0;
      const auto& prev = labels_.back();
      messages_.push_back(
          std::vector<std::vector<double>>(static_cast<size_t>(n_)));
      auto& msgs = messages_.back();
      bool changed = false;
      std::vector<double> next(static_cast<size_t>(n_));
      for (VertexId v = 0; v < n_; ++v) {
        auto& mv = msgs[v];
        for (VertexId u : in_[v]) mv.push_back(prev[u] + increment_);
        std::sort(mv.begin(), mv.end());
        stream.edges += in_[v].size();
        stream.out_pos += mv.size();
        ++reduce.in_pos;
        next[v] = MinOfImpl(prev[v], mv);
        ITG_RETURN_IF_ERROR(Charge(kMapEntryBytes + mv.size() * 8));
        if (next[v] != prev[v]) {
          changed = true;
          ++reduce.out_pos;
          ++changed_labels;
        }
      }
      ITG_RETURN_IF_ERROR(Charge(static_cast<uint64_t>(n_) * 8));
      labels_.push_back(std::move(next));
      stream.wall_nanos += ss_watch.ElapsedNanos();
      PushSuperstep(&profile_, /*incremental=*/true,
                    static_cast<uint64_t>(n_), static_cast<uint64_t>(n_),
                    changed_labels, stream.edges - edges0,
                    ss_watch.ElapsedNanos());
      if (!changed) break;
      ++s;
      continue;
    }
    Stopwatch ss_watch;
    const uint64_t edges0 = stream.edges;
    auto& msgs = messages_[s];
    const auto& prev = labels_[s - 1];
    std::unordered_map<VertexId, double> changed_here;
    std::unordered_set<VertexId> dirty;
    // Structural deltas apply at every iteration.
    Stopwatch stream_watch;
    for (const EdgeDelta& d : batch) {
      VertexId u = d.edge.src;
      VertexId w = d.edge.dst;
      double value = prev[u] + increment_;
      if (d.mult > 0) {
        ++stream.in_pos;
        ++stream.out_pos;
        ITG_RETURN_IF_ERROR(
            update_multiset(msgs[w], 0, false, value, true));
      } else {
        // Retract with the OLD source label this message was built from.
        ++stream.in_neg;
        ++stream.out_neg;
        double old_label = prev[u];
        auto it = changed_prev.find(u);
        if (it != changed_prev.end()) old_label = it->second;
        ITG_RETURN_IF_ERROR(update_multiset(
            msgs[w], old_label + increment_, true, 0, false));
      }
      dirty.insert(w);
    }
    // Sources whose label changed at the previous iteration update all
    // their outgoing messages. Edges inserted by this batch already carry
    // the new label (the structural pass built them from it).
    for (const auto& [u, old_label] : changed_prev) {
      double old_msg = old_label + increment_;
      double new_msg = prev[u] + increment_;
      ++stream.in_pos;
      for (VertexId w : out_[u]) {
        ++stream.edges;
        if (inserted_now.contains({u, w})) continue;
        ++stream.out_neg;  // retraction of the stale message...
        ++stream.out_pos;  // ...replaced by the fresh one
        ITG_RETURN_IF_ERROR(
            update_multiset(msgs[w], old_msg, true, new_msg, true));
        dirty.insert(w);
      }
      dirty.insert(u);  // self-min input changed
    }
    stream.wall_nanos += stream_watch.ElapsedNanos();
    Stopwatch reduce_watch;
    auto& cur = labels_[s];
    for (VertexId w : dirty) {
      ++reduce.in_pos;
      double fresh = MinOfImpl(prev[w], msgs[w]);
      if (fresh != cur[w]) {
        ++reduce.out_pos;
        changed_here[w] = cur[w];
        cur[w] = fresh;
      }
    }
    reduce.wall_nanos += reduce_watch.ElapsedNanos();
    PushSuperstep(&profile_, /*incremental=*/true, dirty.size(),
                  changed_prev.size(), changed_here.size(),
                  stream.edges - edges0, ss_watch.ElapsedNanos());
    if (s + 1 == labels_.size() && changed_here.empty()) break;
    changed_prev = std::move(changed_here);
    ++s;
    if (changed_prev.empty() && s >= labels_.size()) break;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DdTriangles (TC / LCC)
// ---------------------------------------------------------------------------

void DdTriangles::EnsureProfileOps() {
  profile_.RegisterOp(0, "Walk", "two-path join");
  profile_.RegisterOp(1, "Filter", "triangle close");
}

Status DdTriangles::AddTwoPath(VertexId a, VertexId b, VertexId c,
                               int64_t mult) {
  gsa::OperatorCounters& walk = profile_.Op(0);
  if (mult > 0) ++walk.out_pos; else ++walk.out_neg;
  auto [it, inserted] = two_paths_.try_emplace(Edge{a, c}, 0);
  if (inserted) ITG_RETURN_IF_ERROR(Charge(kMapEntryBytes));
  it->second += mult;
  if (it->second == 0) two_paths_.erase(it);
  return Status::OK();
}

Status DdTriangles::UpdateTriangles(VertexId a, VertexId b, VertexId c,
                                    int64_t mult) {
  gsa::OperatorCounters& close = profile_.Op(1);
  if (mult > 0) ++close.out_pos; else ++close.out_neg;
  total_ = static_cast<uint64_t>(static_cast<int64_t>(total_) + mult);
  per_vertex_[a] += mult;
  per_vertex_[b] += mult;
  per_vertex_[c] += mult;
  return Status::OK();
}

Status DdTriangles::RunInitial(VertexId num_vertices,
                               const std::vector<Edge>& edges) {
  TraceSpan span("dd_run_initial", "baseline", num_vertices);
  n_ = num_vertices;
  BuildAdjacency(n_, edges, &adj_, nullptr);
  per_vertex_.assign(static_cast<size_t>(n_), 0);
  edge_set_.clear();
  for (VertexId u = 0; u < n_; ++u) {
    for (VertexId v : adj_[u]) edge_set_.insert({u, v});
  }
  ITG_RETURN_IF_ERROR(Charge(edge_set_.size() * kMapEntryBytes));
  total_ = 0;
  EnsureProfileOps();
  profile_.ResetCounters();
  gsa::OperatorCounters& walk = profile_.Op(0);
  gsa::OperatorCounters& close = profile_.Op(1);
  Stopwatch watch;
  // Materialize the two-path arrangement edges ⋈ edges — the Σ deg²
  // intermediate that DD retains for incremental maintenance.
  for (VertexId a = 0; a < n_; ++a) {
    ++walk.in_pos;
    for (VertexId b : adj_[a]) {
      ++walk.edges;
      if (b <= a) continue;
      for (VertexId c : adj_[b]) {
        ++walk.edges;
        if (c <= b) continue;
        ITG_RETURN_IF_ERROR(AddTwoPath(a, b, c, +1));
        ++close.evals;
        if (HasEdge(a, c)) ITG_RETURN_IF_ERROR(UpdateTriangles(a, b, c, +1));
      }
    }
  }
  walk.wall_nanos += watch.ElapsedNanos();
  PushSuperstep(&profile_, /*incremental=*/false,
                static_cast<uint64_t>(n_), static_cast<uint64_t>(n_),
                close.out_pos, walk.edges, watch.ElapsedNanos());
  return Status::OK();
}

Status DdTriangles::ApplyMutations(const std::vector<EdgeDelta>& batch) {
  TraceSpan span("dd_apply_mutations", "baseline",
                 static_cast<int64_t>(batch.size()));
  EnsureProfileOps();
  profile_.ResetCounters();
  gsa::OperatorCounters& walk = profile_.Op(0);
  gsa::OperatorCounters& close = profile_.Op(1);
  Stopwatch watch;
  for (const EdgeDelta& d : batch) {
    VertexId x = d.edge.src;
    VertexId y = d.edge.dst;
    if (x >= y) continue;  // symmetric batches: process each edge once
    int64_t m = d.mult;
    if (m < 0) {
      ++walk.in_neg;
      // Retract while the edge is still present.
      // Triangles through {x, y}: common neighbors.
      for (VertexId z : adj_[x]) {
        ++walk.edges;
        if (z == y) continue;
        ++close.evals;
        if (edge_set_.contains({y, z})) {
          VertexId t[3] = {x, y, z};
          std::sort(t, t + 3);
          ITG_RETURN_IF_ERROR(UpdateTriangles(t[0], t[1], t[2], -1));
        }
      }
      // Two-paths with {x,y} as a leg: x→y→c (c>y) and a→x→y (a<x).
      for (VertexId c : adj_[y]) {
        ++walk.edges;
        if (c > y) ITG_RETURN_IF_ERROR(AddTwoPath(x, y, c, -1));
      }
      for (VertexId a : adj_[x]) {
        ++walk.edges;
        if (a < x) ITG_RETURN_IF_ERROR(AddTwoPath(a, x, y, -1));
      }
      auto rm = [&](VertexId u, VertexId v) {
        auto& list = adj_[u];
        list.erase(std::remove(list.begin(), list.end(), v), list.end());
        edge_set_.erase({u, v});
      };
      rm(x, y);
      rm(y, x);
    } else {
      ++walk.in_pos;
      // Assert against the pre-insertion state, then install.
      for (VertexId z : adj_[x]) {
        ++walk.edges;
        if (z == y) continue;
        ++close.evals;
        if (edge_set_.contains({y, z})) {
          VertexId t[3] = {x, y, z};
          std::sort(t, t + 3);
          ITG_RETURN_IF_ERROR(UpdateTriangles(t[0], t[1], t[2], +1));
        }
      }
      for (VertexId c : adj_[y]) {
        ++walk.edges;
        if (c > y) ITG_RETURN_IF_ERROR(AddTwoPath(x, y, c, +1));
      }
      for (VertexId a : adj_[x]) {
        ++walk.edges;
        if (a < x) ITG_RETURN_IF_ERROR(AddTwoPath(a, x, y, +1));
      }
      auto add = [&](VertexId u, VertexId v) {
        auto& list = adj_[u];
        if (std::find(list.begin(), list.end(), v) == list.end()) {
          list.push_back(v);
          edge_set_.insert({u, v});
        }
      };
      add(x, y);
      add(y, x);
    }
  }
  walk.wall_nanos += watch.ElapsedNanos();
  PushSuperstep(&profile_, /*incremental=*/true,
                walk.in_pos + walk.in_neg, walk.in_pos + walk.in_neg,
                close.out_pos + close.out_neg, walk.edges,
                watch.ElapsedNanos());
  return Status::OK();
}

}  // namespace itg
