#include "baselines/graphbolt.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/metrics_registry.h"
#include "common/trace.h"

namespace itg {

namespace {
constexpr double kDamping = 0.85;
constexpr double kGrid = 1000.0;
}

void GraphBoltEngine::EnsureProfileOps() {
  profile_.RegisterOp(0, "Apply", "initial supersteps");
  profile_.RegisterOp(1, "Apply", "refine");
}

Status GraphBoltEngine::RunInitial(VertexId num_vertices,
                                   const std::vector<Edge>& edges) {
  TraceSpan span("gb_run_initial", "baseline", num_vertices);
  n_ = num_vertices;
  out_.assign(static_cast<size_t>(n_), {});
  in_.assign(static_cast<size_t>(n_), {});
  Csr csr = Csr::FromEdges(num_vertices, edges);
  for (VertexId u = 0; u < n_; ++u) {
    auto nbrs = csr.Neighbors(u);
    out_[u].assign(nbrs.begin(), nbrs.end());
    for (VertexId v : nbrs) in_[v].push_back(u);
  }

  const size_t width = static_cast<size_t>(num_labels_);
  const size_t row = static_cast<size_t>(n_) * width;
  // GraphBolt keeps all supersteps' values and aggregations resident.
  tracked_bytes_ =
      (static_cast<uint64_t>(supersteps_) * 2 + 1) * row * sizeof(double);
  ITG_RETURN_IF_ERROR(budget_->Charge(tracked_bytes_));

  values_.assign(static_cast<size_t>(supersteps_) + 1,
                 std::vector<double>(row, 0.0));
  aggs_.assign(static_cast<size_t>(supersteps_),
               std::vector<double>(row, 0.0));
  for (VertexId v = 0; v < n_; ++v) {
    if (algo_ == Algo::kPageRank) {
      values_[0][static_cast<size_t>(v)] = 1.0;
    } else {
      values_[0][static_cast<size_t>(v) * width +
                 static_cast<size_t>(v % num_labels_)] = 1.0;
    }
  }
  EnsureProfileOps();
  profile_.ResetCounters();
  gsa::OperatorCounters& cell = profile_.Op(0);
  Stopwatch phase_watch;
  for (int s = 0; s < supersteps_; ++s) {
    Stopwatch ss_watch;
    const uint64_t edges0 = cell.edges;
    for (VertexId v = 0; v < n_; ++v) {
      ++cell.in_pos;
      cell.edges += in_[static_cast<size_t>(v)].size();
      RecomputeAggregation(s, v);
      ComputeValue(s, v);
      ++cell.out_pos;
    }
    gsa::SuperstepProfile ss_row;
    ss_row.superstep = s;
    ss_row.active_vertices = static_cast<uint64_t>(n_);
    ss_row.frontier = static_cast<uint64_t>(n_);
    ss_row.emissions = static_cast<uint64_t>(n_);
    ss_row.edges = cell.edges - edges0;
    ss_row.wall_nanos = ss_watch.ElapsedNanos();
    profile_.supersteps().push_back(std::move(ss_row));
  }
  cell.wall_nanos += phase_watch.ElapsedNanos();
  return Status::OK();
}

void GraphBoltEngine::RecomputeAggregation(int s, VertexId v) {
  const size_t width = static_cast<size_t>(num_labels_);
  double* agg = aggs_[s].data() + static_cast<size_t>(v) * width;
  std::fill(agg, agg + width, 0.0);
  for (VertexId u : in_[v]) {
    double deg = static_cast<double>(out_[u].size());
    if (deg == 0) continue;
    const double* uv = values_[s].data() + static_cast<size_t>(u) * width;
    for (size_t l = 0; l < width; ++l) agg[l] += uv[l] / deg;
  }
}

void GraphBoltEngine::ComputeValue(int s, VertexId v) {
  const size_t width = static_cast<size_t>(num_labels_);
  const double* agg = aggs_[s].data() + static_cast<size_t>(v) * width;
  double* value = values_[s + 1].data() + static_cast<size_t>(v) * width;
  // The quantized protocol rounds values down to the 1/kGrid grid and
  // freezes sub-grid movements (the paper's 0.001 deadband).
  const double* old_value =
      values_[s].data() + static_cast<size_t>(v) * width;
  auto quantize = [&](double x, double old) {
    if (!quantized_) return x;
    double q = std::floor(x * kGrid) / kGrid;
    return (std::abs(q - old) > 1.0 / kGrid) ? q : old;
  };
  if (algo_ == Algo::kPageRank) {
    value[0] = quantize(
        0.15 / static_cast<double>(n_) + kDamping * agg[0], old_value[0]);
  } else {
    for (size_t l = 0; l < width; ++l) {
      double seed =
          (static_cast<size_t>(v % num_labels_) == l) ? 1.0 : 0.0;
      value[l] = quantize(0.15 * seed + kDamping * agg[l], old_value[l]);
    }
  }
}

bool GraphBoltEngine::ValueDiffers(int s, VertexId v,
                                   const std::vector<double>& before) const {
  const size_t width = static_cast<size_t>(num_labels_);
  const double* value = values_[s].data() + static_cast<size_t>(v) * width;
  for (size_t l = 0; l < width; ++l) {
    if (value[l] != before[l]) return true;
  }
  return false;
}

Status GraphBoltEngine::ApplyMutationsAndRefine(
    const std::vector<EdgeDelta>& batch) {
  TraceSpan span("gb_refine", "baseline", static_cast<int64_t>(batch.size()));
  // Mutate the in-memory adjacency.
  std::vector<uint8_t> base_affected(static_cast<size_t>(n_), 0);
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
    // The destination's aggregation changes at every superstep; the
    // source's degree change alters all of its contributions.
    base_affected[static_cast<size_t>(d.edge.dst)] = 1;
    for (VertexId w : out_[d.edge.src]) {
      base_affected[static_cast<size_t>(w)] = 1;
    }
  }

  // Dependency-driven refinement: recompute affected aggregations per
  // superstep and propagate along out-edges whenever the recomputed value
  // changed at all. There is no value-change cutoff against the previous
  // snapshot — the transitive frontier keeps growing (the inefficiency
  // §6.2.1 measures).
  EnsureProfileOps();
  profile_.ResetCounters();
  gsa::OperatorCounters& cell = profile_.Op(1);
  Stopwatch phase_watch;
  std::vector<uint8_t> affected = base_affected;
  std::vector<uint8_t> next(static_cast<size_t>(n_), 0);
  const size_t width = static_cast<size_t>(num_labels_);
  std::vector<double> before(width);
  last_refined_ = 0;
  for (int s = 0; s < supersteps_; ++s) {
    Stopwatch ss_watch;
    const uint64_t refined0 = last_refined_;
    const uint64_t edges0 = cell.edges;
    uint64_t changed = 0;
    std::copy(base_affected.begin(), base_affected.end(), next.begin());
    for (VertexId v = 0; v < n_; ++v) {
      if (!affected[static_cast<size_t>(v)]) continue;
      ++last_refined_;
      ++cell.in_pos;
      cell.edges += in_[static_cast<size_t>(v)].size();
      const double* value =
          values_[s + 1].data() + static_cast<size_t>(v) * width;
      std::copy(value, value + width, before.begin());
      RecomputeAggregation(s, v);
      ComputeValue(s, v);
      if (ValueDiffers(s + 1, v, before)) {
        ++cell.out_pos;
        ++changed;
        for (VertexId w : out_[v]) next[static_cast<size_t>(w)] = 1;
      } else {
        // Refined but unchanged: GraphBolt's unnecessary-refinement cost.
        ++cell.pruned;
      }
    }
    affected.swap(next);
    gsa::SuperstepProfile ss_row;
    ss_row.superstep = s;
    ss_row.mode = gsa::SuperstepMode::kDelta;
    ss_row.active_vertices = last_refined_ - refined0;
    ss_row.frontier = last_refined_ - refined0;
    ss_row.emissions = changed;
    ss_row.edges = cell.edges - edges0;
    ss_row.wall_nanos = ss_watch.ElapsedNanos();
    profile_.supersteps().push_back(std::move(ss_row));
  }
  cell.wall_nanos += phase_watch.ElapsedNanos();
  // Per-batch refinement volume: the fig12/table6 comparisons read this
  // from the run report to show where the dependency-driven baseline
  // spends its time.
  GlobalRegistry().counter("graphbolt.refined_vertices")->Add(last_refined_);
  GlobalRegistry().histogram("graphbolt.batch_refined")->Record(last_refined_);
  return Status::OK();
}

}  // namespace itg
