#include "storage/graph_store.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"

namespace itg {

StatusOr<std::unique_ptr<DynamicGraphStore>> DynamicGraphStore::Create(
    const std::string& path, VertexId num_vertices,
    std::vector<Edge> base_edges, const Options& options, Metrics* metrics) {
  auto store = std::unique_ptr<DynamicGraphStore>(new DynamicGraphStore());
  store->num_vertices_ = num_vertices;
  store->metrics_ = metrics;
  ITG_ASSIGN_OR_RETURN(store->page_store_,
                       PageStore::Open(path + ".pages", metrics));
  store->pool_ = std::make_unique<BufferPool>(store->page_store_.get(),
                                              options.buffer_pool_pages);
  store->delta_store_ =
      std::make_unique<EdgeDeltaStore>(store->page_store_.get());

  Csr out_csr = Csr::FromEdges(num_vertices, base_edges);
  Csr in_csr = out_csr.Transposed();
  store->base_num_edges_ = out_csr.num_edges();
  store->out_offsets_ = out_csr.offsets();
  store->in_offsets_ = in_csr.offsets();

  DiskArrayBuilder<VertexId> out_builder(store->page_store_.get());
  ITG_RETURN_IF_ERROR(out_builder.AppendRange(out_csr.neighbors().data(),
                                              out_csr.neighbors().size()));
  ITG_ASSIGN_OR_RETURN(store->out_neighbors_, out_builder.Finish());

  DiskArrayBuilder<VertexId> in_builder(store->page_store_.get());
  ITG_RETURN_IF_ERROR(in_builder.AppendRange(in_csr.neighbors().data(),
                                             in_csr.neighbors().size()));
  ITG_ASSIGN_OR_RETURN(store->in_neighbors_, in_builder.Finish());

  // Snapshot 0 has an empty overlay.
  store->views_[0] = View{};
  store->views_[0].num_edges = store->base_num_edges_;
  return store;
}

StatusOr<Timestamp> DynamicGraphStore::ApplyMutations(
    const std::vector<EdgeDelta>& batch) {
  TraceSpan span("apply_mutations", "storage",
                 static_cast<int64_t>(batch.size()));
  if (metrics_ != nullptr) {
    metrics_->registry()
        .histogram("store.delta_batch_size")
        ->Record(batch.size());
  }
  Timestamp t = latest_ + 1;
  ITG_RETURN_IF_ERROR(delta_store_->ApplyBatch(t, batch));

  // New view = view of t-1 + batch (last operation wins). Only the views
  // of t-1 and t-2 are retained, and t-2's is about to be dropped, so it
  // is advanced in place by replaying batches t-1 and t onto it: O(batch)
  // work instead of a copy of the whole cumulative overlay. Degree
  // bookkeeping assumes the workload invariant that insertions target
  // absent edges and deletions target present ones, so each operation
  // shifts the merged degree by exactly its multiplicity.
  View view;
  if (views_.size() >= 2) {
    view = std::move(views_.begin()->second);
    views_.erase(views_.begin());
    ApplyToView(last_batch_, &view);
  } else {
    view = views_.at(latest_);
  }
  ApplyToView(batch, &view);
  last_batch_ = batch;

  views_[t] = std::move(view);
  latest_ = t;
  return t;
}

void DynamicGraphStore::ApplyToView(const std::vector<EdgeDelta>& batch,
                                    View* view) {
  auto apply = [](std::unordered_map<VertexId, OverlayList>& adj,
                  std::unordered_map<VertexId, int64_t>& degree_delta,
                  VertexId src, VertexId dst, Multiplicity m) {
    OverlayList& list = adj[src];
    auto it = std::lower_bound(
        list.entries.begin(), list.entries.end(), dst,
        [](const auto& e, VertexId v) { return e.first < v; });
    if (it != list.entries.end() && it->first == dst) {
      it->second = m;
    } else {
      list.entries.insert(it, {dst, m});
    }
    degree_delta[src] += m;
  };
  for (const EdgeDelta& d : batch) {
    apply(view->out, view->out_degree_delta, d.edge.src, d.edge.dst, d.mult);
    apply(view->in, view->in_degree_delta, d.edge.dst, d.edge.src, d.mult);
    view->num_edges += (d.mult > 0) ? 1 : -1;
  }
}

const DynamicGraphStore::View* DynamicGraphStore::ViewAt(Timestamp t) const {
  auto it = views_.find(t);
  ITG_CHECK(it != views_.end())
      << "snapshot " << t << " view unavailable (only latest and previous "
      << "snapshots are retained); latest=" << latest_;
  return &it->second;
}

Status DynamicGraphStore::ReadBaseAdjacency(BufferPool* pool, VertexId u,
                                            Direction d,
                                            std::vector<VertexId>* out) const {
  const auto& offsets = (d == Direction::kOut) ? out_offsets_ : in_offsets_;
  const auto& neighbors =
      (d == Direction::kOut) ? out_neighbors_ : in_neighbors_;
  int64_t begin = offsets[u];
  int64_t end = offsets[u + 1];
  out->resize(static_cast<size_t>(end - begin));
  if (begin == end) return Status::OK();
  return neighbors.Read(pool, static_cast<size_t>(begin), out->size(),
                        out->data());
}

Status DynamicGraphStore::GetAdjacency(BufferPool* pool, VertexId u,
                                       Timestamp t, Direction d,
                                       std::vector<VertexId>* out) const {
  ITG_RETURN_IF_ERROR(ReadBaseAdjacency(pool, u, d, out));
  const View* view = ViewAt(t);
  const auto& adj = (d == Direction::kOut) ? view->out : view->in;
  auto it = adj.find(u);
  if (it == adj.end()) return Status::OK();
  // Merge the sorted base list with the sorted overlay: deletions drop
  // base edges, insertions add new ones (this is the lazy deletion
  // marking applied at page-load time).
  std::vector<VertexId> merged;
  merged.reserve(out->size() + it->second.entries.size());
  size_t bi = 0;
  const auto& entries = it->second.entries;
  size_t oi = 0;
  while (bi < out->size() || oi < entries.size()) {
    if (oi == entries.size() ||
        (bi < out->size() && (*out)[bi] < entries[oi].first)) {
      merged.push_back((*out)[bi++]);
    } else if (bi == out->size() || entries[oi].first < (*out)[bi]) {
      if (entries[oi].second > 0) merged.push_back(entries[oi].first);
      ++oi;
    } else {  // same dst in base and overlay: overlay's last op decides
      if (entries[oi].second > 0) merged.push_back((*out)[bi]);
      ++bi;
      ++oi;
    }
  }
  *out = std::move(merged);
  return Status::OK();
}

void DynamicGraphStore::Degrees(Timestamp t, Direction d,
                                std::vector<int64_t>* out) const {
  const auto& offsets = (d == Direction::kOut) ? out_offsets_ : in_offsets_;
  out->resize(static_cast<size_t>(num_vertices_));
  for (VertexId u = 0; u < num_vertices_; ++u) {
    (*out)[static_cast<size_t>(u)] = offsets[u + 1] - offsets[u];
  }
  const View* view = ViewAt(t);
  const auto& deltas =
      (d == Direction::kOut) ? view->out_degree_delta : view->in_degree_delta;
  for (const auto& [u, delta] : deltas) (*out)[static_cast<size_t>(u)] += delta;
}

StatusOr<bool> DynamicGraphStore::HasEdge(BufferPool* pool, VertexId u,
                                          VertexId v, Timestamp t,
                                          Direction d) const {
  const View* view = ViewAt(t);
  const auto& adj = (d == Direction::kOut) ? view->out : view->in;
  auto it = adj.find(u);
  if (it != adj.end()) {
    const auto& entries = it->second.entries;
    auto eit = std::lower_bound(
        entries.begin(), entries.end(), v,
        [](const auto& e, VertexId x) { return e.first < x; });
    if (eit != entries.end() && eit->first == v) return eit->second > 0;
  }
  std::vector<VertexId> base;
  ITG_RETURN_IF_ERROR(ReadBaseAdjacency(pool, u, d, &base));
  return std::binary_search(base.begin(), base.end(), v);
}

Status DynamicGraphStore::ScanDeltas(
    BufferPool* pool, Timestamp t, Direction d,
    const std::function<void(Edge, Multiplicity)>& fn) const {
  return delta_store_->ForEachDelta(pool, t, d, fn);
}

size_t DynamicGraphStore::num_edges(Timestamp t) const {
  return ViewAt(t)->num_edges;
}

Status DynamicGraphStore::MaterializeEdges(BufferPool* pool, Timestamp t,
                                           std::vector<Edge>* out) const {
  out->clear();
  // Cumulative overlay from the persisted delta segments: the last
  // operation applied to each edge across batches 1..t decides.
  std::unordered_map<Edge, Multiplicity, EdgeHash> last_op;
  for (Timestamp i = 1; i <= t; ++i) {
    ITG_RETURN_IF_ERROR(ScanDeltas(
        pool, i, Direction::kOut,
        [&](Edge e, Multiplicity m) { last_op[e] = m; }));
  }
  std::vector<VertexId> base;
  for (VertexId u = 0; u < num_vertices_; ++u) {
    ITG_RETURN_IF_ERROR(ReadBaseAdjacency(pool, u, Direction::kOut, &base));
    for (VertexId v : base) {
      auto it = last_op.find(Edge{u, v});
      if (it == last_op.end()) {
        out->push_back(Edge{u, v});
      } else {
        if (it->second > 0) out->push_back(Edge{u, v});
        // Consumed: whatever remains in last_op afterwards is an
        // insertion of an edge absent from the base snapshot.
        last_op.erase(it);
      }
    }
  }
  for (const auto& [edge, m] : last_op) {
    if (m > 0) out->push_back(edge);
  }
  std::sort(out->begin(), out->end());
  return Status::OK();
}

LiveEdgeSet::LiveEdgeSet(VertexId num_vertices,
                         const std::vector<Edge>& edges)
    : num_vertices_(num_vertices) {
  for (const Edge& e : edges) {
    if (e.src != e.dst) edges_.insert(e);
  }
}

Status LiveEdgeSet::Apply(const std::vector<EdgeDelta>& batch,
                          std::vector<EdgeDelta>* symmetric) {
  auto name = [](const EdgeDelta& d) {
    return std::string(d.mult > 0 ? "'+ " : "'- ") +
           std::to_string(d.edge.src) + " " + std::to_string(d.edge.dst) +
           "'";
  };
  auto present = [&](VertexId u, VertexId v) {
    return edges_.count(Edge{u, v}) != 0;
  };
  std::unordered_set<Edge, EdgeHash> seen;
  for (const EdgeDelta& d : batch) {
    const Edge& e = d.edge;
    if (e.src < 0 || e.dst < 0 || e.src >= num_vertices_ ||
        e.dst >= num_vertices_) {
      return Status::OutOfRange("op " + name(d) + " outside vertex space of " +
                                std::to_string(num_vertices_));
    }
    if (e.src == e.dst) {
      return Status::InvalidArgument("op " + name(d) + " is a self-loop");
    }
    if (!seen.insert(e).second) {
      return Status::InvalidArgument("op " + name(d) +
                                     " repeats an edge of its batch");
    }
    if (d.mult > 0 && present(e.src, e.dst)) {
      return Status::InvalidArgument("op " + name(d) +
                                     " inserts a present edge");
    }
    if (d.mult < 0 && !present(e.src, e.dst)) {
      return Status::InvalidArgument("op " + name(d) +
                                     " deletes an absent edge");
    }
  }
  // Undirected presence of every pair the batch touches, before it.
  std::unordered_map<Edge, bool, EdgeHash> pair_before;
  auto pair_of = [](const Edge& e) {
    return Edge{std::min(e.src, e.dst), std::max(e.src, e.dst)};
  };
  for (const EdgeDelta& d : batch) {
    pair_before.emplace(pair_of(d.edge),
                        present(d.edge.src, d.edge.dst) ||
                            present(d.edge.dst, d.edge.src));
  }
  for (const EdgeDelta& d : batch) {
    if (d.mult > 0) {
      edges_.insert(d.edge);
    } else {
      edges_.erase(d.edge);
    }
  }
  if (symmetric == nullptr) return Status::OK();
  symmetric->clear();
  for (const EdgeDelta& d : batch) {
    auto it = pair_before.find(pair_of(d.edge));
    if (it == pair_before.end()) continue;  // pair already emitted
    const bool after = present(d.edge.src, d.edge.dst) ||
                       present(d.edge.dst, d.edge.src);
    if (after != it->second) {
      const Multiplicity m = after ? 1 : -1;
      symmetric->push_back({d.edge, m});
      symmetric->push_back({{d.edge.dst, d.edge.src}, m});
    }
    pair_before.erase(it);
  }
  return Status::OK();
}

}  // namespace itg
