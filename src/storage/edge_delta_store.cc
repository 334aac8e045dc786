#include "storage/edge_delta_store.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"

namespace itg {

Status EdgeDeltaStore::ApplyBatch(Timestamp t,
                                  const std::vector<EdgeDelta>& batch) {
  TraceSpan span("delta_apply_batch", "storage",
                 static_cast<int64_t>(batch.size()));
  if (t != latest_ + 1) {
    return Status::InvalidArgument("mutation batches must be consecutive");
  }
  Segment out_seg;
  ITG_RETURN_IF_ERROR(BuildSegment(batch, &out_seg));
  std::vector<EdgeDelta> reversed;
  reversed.reserve(batch.size());
  for (const EdgeDelta& d : batch) {
    reversed.push_back({{d.edge.dst, d.edge.src}, d.mult});
  }
  Segment in_seg;
  ITG_RETURN_IF_ERROR(BuildSegment(reversed, &in_seg));
  mem_gauge_.Add(
      static_cast<int64_t>(SegmentBytes(out_seg) + SegmentBytes(in_seg)));
  out_segments_.emplace(t, std::move(out_seg));
  in_segments_.emplace(t, std::move(in_seg));
  batch_sizes_[t] = batch.size();
  latest_ = t;
  return Status::OK();
}

Status EdgeDeltaStore::BuildSegment(const std::vector<EdgeDelta>& deltas,
                                    Segment* seg) {
  std::vector<EdgeDelta> sorted = deltas;
  std::sort(sorted.begin(), sorted.end(),
            [](const EdgeDelta& a, const EdgeDelta& b) {
              if (a.edge.src != b.edge.src) return a.edge.src < b.edge.src;
              if (a.edge.dst != b.edge.dst) return a.edge.dst < b.edge.dst;
              return a.mult < b.mult;
            });
  DiskArrayBuilder<VertexId> dst_builder(store_);
  DiskArrayBuilder<int8_t> mult_builder(store_);
  seg->ranges.push_back(0);
  int64_t count = 0;
  for (const EdgeDelta& d : sorted) {
    if (seg->srcs.empty() || seg->srcs.back() != d.edge.src) {
      if (!seg->srcs.empty()) seg->ranges.push_back(count);
      seg->srcs.push_back(d.edge.src);
    }
    ITG_RETURN_IF_ERROR(dst_builder.Append(d.edge.dst));
    ITG_RETURN_IF_ERROR(mult_builder.Append(d.mult));
    ++count;
  }
  if (!seg->srcs.empty()) seg->ranges.push_back(count);
  ITG_ASSIGN_OR_RETURN(seg->dsts, dst_builder.Finish());
  ITG_ASSIGN_OR_RETURN(seg->mults, mult_builder.Finish());
  return Status::OK();
}

Status EdgeDeltaStore::ForEachDelta(
    BufferPool* pool, Timestamp t, Direction d,
    const std::function<void(Edge, Multiplicity)>& fn) const {
  const auto& segments = (d == Direction::kOut) ? out_segments_ : in_segments_;
  auto it = segments.find(t);
  if (it == segments.end()) return Status::OK();
  const Segment& seg = it->second;
  for (size_t i = 0; i < seg.srcs.size(); ++i) {
    int64_t begin = seg.ranges[i];
    int64_t end = seg.ranges[i + 1];
    std::vector<VertexId> dsts(static_cast<size_t>(end - begin));
    std::vector<int8_t> mults(static_cast<size_t>(end - begin));
    ITG_RETURN_IF_ERROR(seg.dsts.Read(pool, static_cast<size_t>(begin),
                                      dsts.size(), dsts.data()));
    ITG_RETURN_IF_ERROR(seg.mults.Read(pool, static_cast<size_t>(begin),
                                       mults.size(), mults.data()));
    for (size_t j = 0; j < dsts.size(); ++j) {
      fn({seg.srcs[i], dsts[j]}, mults[j]);
    }
  }
  return Status::OK();
}

Status EdgeDeltaStore::GetDeltaAdjacency(
    BufferPool* pool, Timestamp t, VertexId u, Direction d,
    std::vector<std::pair<VertexId, Multiplicity>>* out) const {
  out->clear();
  const auto& segments = (d == Direction::kOut) ? out_segments_ : in_segments_;
  auto it = segments.find(t);
  if (it == segments.end()) return Status::OK();
  const Segment& seg = it->second;
  auto sit = std::lower_bound(seg.srcs.begin(), seg.srcs.end(), u);
  if (sit == seg.srcs.end() || *sit != u) return Status::OK();
  size_t i = static_cast<size_t>(sit - seg.srcs.begin());
  int64_t begin = seg.ranges[i];
  int64_t end = seg.ranges[i + 1];
  std::vector<VertexId> dsts(static_cast<size_t>(end - begin));
  std::vector<int8_t> mults(static_cast<size_t>(end - begin));
  ITG_RETURN_IF_ERROR(seg.dsts.Read(pool, static_cast<size_t>(begin),
                                    dsts.size(), dsts.data()));
  ITG_RETURN_IF_ERROR(seg.mults.Read(pool, static_cast<size_t>(begin),
                                     mults.size(), mults.data()));
  out->reserve(dsts.size());
  for (size_t j = 0; j < dsts.size(); ++j) {
    out->emplace_back(dsts[j], mults[j]);
  }
  return Status::OK();
}

Status EdgeDeltaStore::DeltaSources(Timestamp t, Direction d,
                                    std::vector<VertexId>* out,
                                    std::vector<int64_t>* counts) const {
  out->clear();
  if (counts != nullptr) counts->clear();
  const auto& segments = (d == Direction::kOut) ? out_segments_ : in_segments_;
  auto it = segments.find(t);
  if (it == segments.end()) return Status::OK();
  const Segment& seg = it->second;
  *out = seg.srcs;
  if (counts != nullptr) {
    counts->reserve(seg.srcs.size());
    for (size_t i = 0; i < seg.srcs.size(); ++i) {
      counts->push_back(seg.ranges[i + 1] - seg.ranges[i]);
    }
  }
  return Status::OK();
}

size_t EdgeDeltaStore::BatchSize(Timestamp t) const {
  auto it = batch_sizes_.find(t);
  return it == batch_sizes_.end() ? 0 : it->second;
}

}  // namespace itg
