#ifndef ITG_STORAGE_GRAPH_STORE_H_
#define ITG_STORAGE_GRAPH_STORE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/csr.h"
#include "storage/disk_array.h"
#include "storage/edge_delta_store.h"
#include "storage/page_store.h"

namespace itg {

/// The dynamic graph store (§5.5): a disk-resident CSR base snapshot G_0,
/// per-timestamp edge-delta segments and lazily applied deletions. It
/// describes the graph only: the vertex-attribute history belongs to the
/// program being maintained (each Engine owns a VertexStore in this
/// store's page file), so any number of engines share one store.
///
/// Adjacency reads merge the base lists with an in-memory *overlay* of
/// the cumulative mutations — the counterpart of the paper's strategy of
/// keeping deletions in memory and lazily marking edges as deleted when
/// their pages are loaded, rather than rewriting data on disk.
///
/// Snapshots: timestamp 0 is G_0; each ApplyMutations() call creates the
/// next snapshot. Queries may target the latest or the immediately
/// preceding snapshot (all the incremental engine ever needs); overlay
/// views for older snapshots are dropped.
class DynamicGraphStore {
 public:
  struct Options {
    /// Capacity of the store's default buffer pool, in 64 KiB pages.
    size_t buffer_pool_pages = 2048;
  };

  /// Creates a store at `path` (a file prefix) over `base_edges`.
  /// The edge list is deduplicated and self-loops are dropped (simple
  /// directed graph; symmetrize beforehand for undirected analytics).
  static StatusOr<std::unique_ptr<DynamicGraphStore>> Create(
      const std::string& path, VertexId num_vertices,
      std::vector<Edge> base_edges, const Options& options,
      Metrics* metrics);

  /// Applies the mutation batch as the next snapshot and returns its
  /// timestamp. Inserting an existing edge or deleting a missing one is
  /// ignored at read time (the merged view stays a simple graph).
  StatusOr<Timestamp> ApplyMutations(const std::vector<EdgeDelta>& batch);

  /// Merged adjacency of `u` at snapshot `t` in direction `d`, sorted.
  Status GetAdjacency(BufferPool* pool, VertexId u, Timestamp t, Direction d,
                      std::vector<VertexId>* out) const;

  /// Degrees of every vertex at snapshot `t` (merged view): `out` is
  /// resized to num_vertices. One pass over the base offsets plus the
  /// view's degree deltas.
  void Degrees(Timestamp t, Direction d, std::vector<int64_t>* out) const;

  /// True if edge (u→v for kOut) exists at snapshot `t`.
  StatusOr<bool> HasEdge(BufferPool* pool, VertexId u, VertexId v,
                         Timestamp t, Direction d) const;

  /// Iterates the mutation batch of exactly snapshot `t`.
  Status ScanDeltas(BufferPool* pool, Timestamp t, Direction d,
                    const std::function<void(Edge, Multiplicity)>& fn) const;

  /// Materializes the full edge list of snapshot `t` (base ∪ ΔG₁..ΔG_t,
  /// last operation per edge wins), sorted by (src, dst). Unlike the
  /// overlay views — which only survive for the latest and previous
  /// snapshots — this replays the persisted per-timestamp delta segments,
  /// so it works for *any* recorded t. Used by the drift auditor to build
  /// shadow stores for from-scratch replays at checkpointed timestamps.
  Status MaterializeEdges(BufferPool* pool, Timestamp t,
                          std::vector<Edge>* out) const;

  /// Per-vertex delta adjacency of snapshot t's batch (sorted by dst).
  Status GetDeltaAdjacency(
      BufferPool* pool, VertexId u, Timestamp t, Direction d,
      std::vector<std::pair<VertexId, Multiplicity>>* out) const {
    return delta_store_->GetDeltaAdjacency(pool, t, u, d, out);
  }

  /// Distinct traversal origins of snapshot t's delta batch; `counts`,
  /// when non-null, receives each origin's number of delta entries.
  Status DeltaSources(Timestamp t, Direction d, std::vector<VertexId>* out,
                      std::vector<int64_t>* counts = nullptr) const {
    return delta_store_->DeltaSources(t, d, out, counts);
  }

  size_t BatchSize(Timestamp t) const { return delta_store_->BatchSize(t); }

  VertexId num_vertices() const { return num_vertices_; }
  size_t num_edges(Timestamp t) const;
  Timestamp latest() const { return latest_; }

  BufferPool* pool() { return pool_.get(); }
  PageStore* page_store() { return page_store_.get(); }
  Metrics* metrics() { return metrics_; }

 private:
  struct OverlayList {
    // Sorted by dst; mult is the last operation applied to that edge.
    std::vector<std::pair<VertexId, Multiplicity>> entries;
  };
  struct View {
    std::unordered_map<VertexId, OverlayList> out;
    std::unordered_map<VertexId, OverlayList> in;
    std::unordered_map<VertexId, int64_t> out_degree_delta;
    std::unordered_map<VertexId, int64_t> in_degree_delta;
    size_t num_edges = 0;
  };

  DynamicGraphStore() = default;

  const View* ViewAt(Timestamp t) const;
  /// Applies `batch` onto `view` (last operation per edge wins).
  static void ApplyToView(const std::vector<EdgeDelta>& batch, View* view);
  Status ReadBaseAdjacency(BufferPool* pool, VertexId u, Direction d,
                           std::vector<VertexId>* out) const;

  VertexId num_vertices_ = 0;
  Timestamp latest_ = 0;
  size_t base_num_edges_ = 0;
  Metrics* metrics_ = nullptr;

  std::unique_ptr<PageStore> page_store_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<EdgeDeltaStore> delta_store_;

  // Base CSR: offsets in memory, neighbor arrays on disk.
  std::vector<int64_t> out_offsets_;
  std::vector<int64_t> in_offsets_;
  DiskArray<VertexId> out_neighbors_;
  DiskArray<VertexId> in_neighbors_;

  // Overlay views for the latest and previous snapshots (older dropped).
  std::map<Timestamp, View> views_;
  // The latest snapshot's batch: replayed onto the evicted view when the
  // next snapshot is built.
  std::vector<EdgeDelta> last_batch_;
};

/// The live edge set of a graph of record, and the one check a mutation
/// batch passes before it reaches a DynamicGraphStore: the store's degree
/// and edge-count bookkeeping assumes every insert targets an absent edge
/// and every delete a present one, each edge at most once per batch.
class LiveEdgeSet {
 public:
  LiveEdgeSet() = default;
  /// Self-loops and duplicates in `edges` are dropped, as the store does.
  LiveEdgeSet(VertexId num_vertices, const std::vector<Edge>& edges);

  /// Checks `batch`: every vertex inside [0, num_vertices), no self-loop,
  /// no insert of a present edge, no delete of an absent one, no edge
  /// twice. On success applies the batch to the set and, when `symmetric`
  /// is non-null, fills it with the batch of the symmetric companion (the
  /// same graph with every edge mirrored): both orientations of each pair
  /// whose undirected presence the batch changes, in batch order. On
  /// failure the set is unchanged and the status names the first bad op —
  /// OutOfRange for a vertex outside the space, else InvalidArgument.
  Status Apply(const std::vector<EdgeDelta>& batch,
               std::vector<EdgeDelta>* symmetric);

  const std::unordered_set<Edge, EdgeHash>& edges() const { return edges_; }

 private:
  VertexId num_vertices_ = 0;
  std::unordered_set<Edge, EdgeHash> edges_;
};

}  // namespace itg

#endif  // ITG_STORAGE_GRAPH_STORE_H_
