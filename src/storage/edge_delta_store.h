#ifndef ITG_STORAGE_EDGE_DELTA_STORE_H_
#define ITG_STORAGE_EDGE_DELTA_STORE_H_

#include <functional>
#include <map>
#include <vector>

#include "common/memory_budget.h"
#include "common/types.h"
#include "storage/disk_array.h"
#include "storage/page_store.h"

namespace itg {

/// Direction of adjacency access.
enum class Direction { kOut, kIn };

/// Persists graph mutation batches ΔG_t. As in the paper (§5.5), the
/// insertion and deletion operations of each timestamp are maintained in
/// separate CSR-like segment files so the execution engine can scan the
/// initial graph and the mutations identically, and is aware of the
/// multiplicity of edge tuples.
///
/// Each segment keeps its source-vertex index in memory (sources are few
/// relative to edges) while destination lists are disk-resident, read
/// through a BufferPool so delta IO is accounted.
class EdgeDeltaStore {
 public:
  explicit EdgeDeltaStore(PageStore* store) : store_(store) {
    if (store_ != nullptr && store_->metrics() != nullptr) {
      mem_gauge_.Bind(&store_->metrics()->registry(), "edge_delta_store");
    }
  }

  /// Appends the mutation batch for timestamp `t` (must be the next
  /// timestamp). Edges are stored in both directions so backward
  /// traversals (MS-BFS neighbor pruning) can read deltas too.
  Status ApplyBatch(Timestamp t, const std::vector<EdgeDelta>& batch);

  /// Iterates the deltas of exactly timestamp `t` in direction `d`.
  /// The visitor receives each (edge, multiplicity); for kIn the edge is
  /// reversed so `edge.src` is always the traversal origin.
  Status ForEachDelta(BufferPool* pool, Timestamp t, Direction d,
                      const std::function<void(Edge, Multiplicity)>& fn) const;

  /// Per-vertex delta adjacency: the (dst, mult) pairs of timestamp t
  /// whose source (traversal origin) is `u`, sorted by dst.
  Status GetDeltaAdjacency(
      BufferPool* pool, Timestamp t, VertexId u, Direction d,
      std::vector<std::pair<VertexId, Multiplicity>>* out) const;

  /// The distinct traversal origins of timestamp t's deltas, and (when
  /// `counts` is non-null) each origin's number of delta entries — read
  /// from the in-memory source index, no page IO.
  Status DeltaSources(Timestamp t, Direction d, std::vector<VertexId>* out,
                      std::vector<int64_t>* counts = nullptr) const;

  /// Number of mutation operations at timestamp t.
  size_t BatchSize(Timestamp t) const;

  Timestamp latest() const { return latest_; }

 private:
  /// One direction of one timestamp's segment pair.
  struct Segment {
    // Parallel arrays: srcs_[i] has destinations dsts[ranges_[i] ..
    // ranges_[i+1]) with multiplicities mults[...] (inserts and deletes
    // interleaved in dst order; mult tells which).
    std::vector<VertexId> srcs;
    std::vector<int64_t> ranges;  // size = srcs.size() + 1
    DiskArray<VertexId> dsts;
    DiskArray<int8_t> mults;
  };

  Status BuildSegment(const std::vector<EdgeDelta>& deltas, Segment* seg);

  /// In-memory footprint of a segment (the source index; destination and
  /// multiplicity arrays are disk-resident and charged as page IO).
  static size_t SegmentBytes(const Segment& seg) {
    return seg.srcs.capacity() * sizeof(VertexId) +
           seg.ranges.capacity() * sizeof(int64_t);
  }

  PageStore* store_;
  Timestamp latest_ = 0;  // timestamp 0 = initial graph; batches start at 1
  std::map<Timestamp, Segment> out_segments_;
  std::map<Timestamp, Segment> in_segments_;
  std::map<Timestamp, size_t> batch_sizes_;
  ByteGauge mem_gauge_;  // mem.edge_delta_store.* source-index bytes
};

}  // namespace itg

#endif  // ITG_STORAGE_EDGE_DELTA_STORE_H_
