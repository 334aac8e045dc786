#include "storage/vertex_store.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"
#include "common/trace.h"

namespace itg {

int VertexStore::RegisterAttribute(std::string name, int width) {
  ITG_CHECK_GT(width, 0);
  attrs_.push_back({std::move(name), width});
  return static_cast<int>(attrs_.size()) - 1;
}

Status VertexStore::WriteDelta(Timestamp t, Superstep s, int attr,
                               const std::vector<VertexId>& vids,
                               const std::vector<double>& values) {
  if (vids.empty()) return Status::OK();
  const size_t width = static_cast<size_t>(attrs_[attr].width);
  ITG_CHECK_EQ(values.size(), vids.size() * width);
  record_buf_.resize(vids.size() * (1 + width));
  int64_t* out = record_buf_.data();
  for (size_t r = 0; r < vids.size(); ++r) {
    *out++ = vids[r];
    std::memcpy(out, &values[r * width], sizeof(double) * width);
    out += width;
  }
  ITG_ASSIGN_OR_RETURN(auto array, WriteRecords());
  chains_[{attr, s}].push_back({t, std::move(array), vids.size()});
  max_superstep_ = std::max(max_superstep_, s);
  return Status::OK();
}

StatusOr<DiskArray<int64_t>> VertexStore::WriteRecords() {
  DiskArrayBuilder<int64_t> builder(store_);
  ITG_RETURN_IF_ERROR(builder.AppendRange(record_buf_.data(),
                                          record_buf_.size()));
  return builder.Finish();
}

Status VertexStore::OverlaySuperstep(BufferPool* pool, Timestamp t,
                                     Superstep s, int attr, double* column,
                                     std::vector<VertexId>* changed) const {
  auto it = chains_.find({attr, s});
  if (it == chains_.end()) return Status::OK();
  const int width = attrs_[attr].width;
  const size_t record_width = 1 + static_cast<size_t>(width);
  std::vector<int64_t> buf;
  for (const DeltaFile& file : it->second) {
    if (file.t > t) break;  // chain is in snapshot order
    buf.resize(file.num_records * record_width);
    ITG_RETURN_IF_ERROR(file.data.Read(pool, 0, buf.size(), buf.data()));
    for (size_t r = 0; r < file.num_records; ++r) {
      const int64_t* rec = buf.data() + r * record_width;
      VertexId vid = rec[0];
      double* dst = column + static_cast<size_t>(vid) * width;
      bool differs = false;
      for (int w = 0; w < width; ++w) {
        double value = std::bit_cast<double>(rec[1 + w]);
        if (dst[w] != value) {
          dst[w] = value;
          differs = true;
        }
      }
      if (differs && changed != nullptr) changed->push_back(vid);
    }
  }
  return Status::OK();
}

Status VertexStore::MaintainAfterSnapshot(Timestamp t, BufferPool* pool) {
  TraceSpan span("vertex_maintain", "storage", static_cast<int64_t>(t));
  Metrics* metrics = store_ != nullptr ? store_->metrics() : nullptr;
  for (auto& [key, chain] : chains_) {
    if (chain.size() <= 1) continue;
    bool merge = false;
    switch (strategy_) {
      case MergeStrategy::kNoMerge:
        break;
      case MergeStrategy::kPeriodic:
        merge = (t % merge_period_ == 0);
        break;
      case MergeStrategy::kCostBased: {
        // W_merge: records in the merged file — bounded by the union of
        // the chain's record sets (we use the cheap upper bound
        // min(sum, |V|); reading every file just to count exactly would
        // itself cost the reads we are trying to avoid).
        uint64_t sum_records = 0;
        // R_delta: each file written at snapshot τ has been re-read at
        // every snapshot after it: (t − τ) times.
        uint64_t read_cost = 0;
        for (const DeltaFile& f : chain) {
          sum_records += f.num_records;
          if (f.t > 0) {
            read_cost +=
                static_cast<uint64_t>(t - f.t) * f.num_records;
          }
        }
        uint64_t w_merge = std::min<uint64_t>(
            sum_records, static_cast<uint64_t>(num_vertices_));
        merge = (w_merge < read_cost);
        break;
      }
    }
    // Export the merge decisions so the Fig-17 strategy comparison can
    // report how often each policy actually fires.
    if (metrics != nullptr) {
      metrics->registry()
          .counter(merge ? "vertex_store.chain_merges"
                         : "vertex_store.chain_merge_skips")
          ->Increment();
    }
    if (merge) {
      TraceSpan merge_span("merge_chain", "storage",
                           static_cast<int64_t>(chain.size()));
      ITG_RETURN_IF_ERROR(
          MergeChain(&chain, attrs_[key.first].width, pool));
      if (metrics != nullptr) {
        metrics->registry()
            .histogram("vertex_store.merged_records")
            ->Record(chain.empty() ? 0 : chain.front().num_records);
      }
    }
  }
  return Status::OK();
}

Status VertexStore::MergeChain(std::vector<DeltaFile>* chain, int width,
                               BufferPool* pool) {
  const size_t w = static_cast<size_t>(width);
  const size_t record_width = 1 + w;
  const size_t n = static_cast<size_t>(num_vertices_);
  merge_values_.resize(n * w);
  merge_present_.assign((n + 63) / 64, 0);
  // Last-writer-wins overlay of the chain, in snapshot order.
  std::vector<int64_t> buf;
  Timestamp last_t = 0;
  for (const DeltaFile& file : *chain) {
    buf.resize(file.num_records * record_width);
    ITG_RETURN_IF_ERROR(file.data.Read(pool, 0, buf.size(), buf.data()));
    for (size_t r = 0; r < file.num_records; ++r) {
      const int64_t* rec = buf.data() + r * record_width;
      const size_t vid = static_cast<size_t>(rec[0]);
      merge_present_[vid / 64] |= uint64_t{1} << (vid % 64);
      std::memcpy(&merge_values_[vid * w], rec + 1, sizeof(double) * w);
    }
    last_t = std::max(last_t, file.t);
  }
  // Emit the present vertices in vid order.
  record_buf_.clear();
  for (size_t word = 0; word < merge_present_.size(); ++word) {
    for (uint64_t bits = merge_present_[word]; bits != 0; bits &= bits - 1) {
      const size_t vid =
          word * 64 + static_cast<size_t>(std::countr_zero(bits));
      record_buf_.push_back(static_cast<int64_t>(vid));
      const size_t at = record_buf_.size();
      record_buf_.resize(at + w);
      std::memcpy(&record_buf_[at], &merge_values_[vid * w],
                  sizeof(double) * w);
    }
  }
  const size_t merged = record_buf_.size() / record_width;
  ITG_ASSIGN_OR_RETURN(auto array, WriteRecords());
  chain->clear();
  chain->push_back({last_t, std::move(array), merged});
  return Status::OK();
}

uint64_t VertexStore::ChainRecords(Superstep s, int attr) const {
  auto it = chains_.find({attr, s});
  if (it == chains_.end()) return 0;
  uint64_t total = 0;
  for (const DeltaFile& f : it->second) total += f.num_records;
  return total;
}

}  // namespace itg
