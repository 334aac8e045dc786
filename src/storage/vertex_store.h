#ifndef ITG_STORAGE_VERTEX_STORE_H_
#define ITG_STORAGE_VERTEX_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "storage/disk_array.h"
#include "storage/page_store.h"

namespace itg {

/// How vertex-attribute delta chains are compacted (§5.5, Figure 17).
enum class MergeStrategy {
  kNoMerge,    ///< deltas accumulate forever (Fig 17 "NoMerge")
  kPeriodic,   ///< merge every `merge_period` snapshots ("PeriodicMerge")
  kCostBased,  ///< merge when W_merge < R_delta (the paper's "Cost")
};

/// The vertex half of the dynamic graph store: maintains, for every
/// attribute and superstep, a chain of *delta files* instead of updating
/// values in place.
///
/// File F(τ, s) holds after-images of the vertices whose attribute value
/// at (snapshot τ, superstep s) differs from (τ, s−1) or from (τ−1, s).
/// Materializing A_{t,s} from an in-memory A_{t,s−1} array is then a
/// sequential overlay of F(0,s), F(1,s), …, F(t,s) (§5.5): the last file
/// containing a vertex wins.
///
/// The cost-based maintenance strategy merges a chain when the write cost
/// of merging, W_merge = |∪_τ X^{(τ,s)}|, is smaller than the accumulated
/// read cost R_delta = Σ_{0<τ<t} (t−τ)·|X^{(τ,s)}|.
class VertexStore {
 public:
  VertexStore(PageStore* store, VertexId num_vertices,
              MergeStrategy strategy = MergeStrategy::kCostBased,
              int merge_period = 50)
      : store_(store),
        num_vertices_(num_vertices),
        strategy_(strategy),
        merge_period_(merge_period) {}

  /// Registers an attribute with `width` doubles per vertex (1 for
  /// scalars, N for Array<_,N>). Returns the attribute handle.
  int RegisterAttribute(std::string name, int width);

  int attribute_count() const { return static_cast<int>(attrs_.size()); }
  int attribute_width(int attr) const { return attrs_[attr].width; }
  const std::string& attribute_name(int attr) const {
    return attrs_[attr].name;
  }

  /// Writes delta file F(t, s) for `attr`: one after-image record per
  /// entry of `vids` (sorted ascending), whose `width` values are the
  /// matching slice of `values` (vids.size() × width doubles, same order).
  Status WriteDelta(Timestamp t, Superstep s, int attr,
                    const std::vector<VertexId>& vids,
                    const std::vector<double>& values);

  /// Overlays all delta files F(τ≤t, s) for `attr` onto `column`
  /// (num_vertices × width doubles), in snapshot order. When `changed` is
  /// non-null, vertices whose value actually changed are appended
  /// (unsorted, may contain duplicates).
  Status OverlaySuperstep(BufferPool* pool, Timestamp t, Superstep s,
                          int attr, double* column,
                          std::vector<VertexId>* changed = nullptr) const;

  /// Applies the configured maintenance strategy after snapshot `t`
  /// finished. May rewrite chains (counts as disk writes).
  Status MaintainAfterSnapshot(Timestamp t, BufferPool* pool);

  /// Total delta records currently chained for (attr, s); Fig 17's driver
  /// uses this to report chain growth.
  uint64_t ChainRecords(Superstep s, int attr) const;

  /// Largest superstep for which any delta file exists.
  Superstep max_superstep() const { return max_superstep_; }

  VertexId num_vertices() const { return num_vertices_; }

 private:
  struct AttrInfo {
    std::string name;
    int width;
  };

  struct DeltaFile {
    Timestamp t;
    DiskArray<int64_t> data;  // records: vid, then width doubles (bitcast)
    size_t num_records;
  };

  using ChainKey = std::pair<int, Superstep>;  // (attr, superstep)

  /// Rewrites `chain` as one file: the last-writer-wins union of its
  /// records, in vid order.
  Status MergeChain(std::vector<DeltaFile>* chain, int width,
                    BufferPool* pool);
  /// Writes the packed (vid, width values) records of record_buf_ as one
  /// DiskArray.
  StatusOr<DiskArray<int64_t>> WriteRecords();

  PageStore* store_;
  VertexId num_vertices_;
  MergeStrategy strategy_;
  int merge_period_;
  Superstep max_superstep_ = -1;
  std::vector<AttrInfo> attrs_;
  std::map<ChainKey, std::vector<DeltaFile>> chains_;

  // Scratch reused across writes and merges: the records of the file
  // being written, and MergeChain's dense num_vertices × width overlay
  // plus its presence bitmap (one bit per vertex).
  std::vector<int64_t> record_buf_;
  std::vector<double> merge_values_;
  std::vector<uint64_t> merge_present_;
};

}  // namespace itg

#endif  // ITG_STORAGE_VERTEX_STORE_H_
