#include <gtest/gtest.h>

#include "common/metrics.h"
#include "storage/page_store.h"
#include "storage/vertex_store.h"

namespace itg {
namespace {

class VertexStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto store = PageStore::Open(::testing::TempDir() + "/vs_pages",
                                 &metrics_);
    ASSERT_TRUE(store.ok());
    pages_ = std::move(store).value();
    pool_ = std::make_unique<BufferPool>(pages_.get(), 64);
  }

  Metrics metrics_;
  std::unique_ptr<PageStore> pages_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(VertexStoreTest, OverlayAppliesChainInSnapshotOrder) {
  VertexStore vs(pages_.get(), 8);
  int attr = vs.RegisterAttribute("rank", 1);
  ASSERT_TRUE(vs.WriteDelta(0, 1, attr, {2, 5}, {10.0, 50.0}).ok());
  ASSERT_TRUE(vs.WriteDelta(1, 1, attr, {2}, {20.0}).ok());
  ASSERT_TRUE(vs.WriteDelta(2, 1, attr, {3}, {30.0}).ok());

  std::vector<double> column(8, -1.0);
  // Overlay up to snapshot 1: file from snapshot 2 excluded.
  ASSERT_TRUE(vs.OverlaySuperstep(pool_.get(), 1, 1, attr, column.data())
                  .ok());
  EXPECT_EQ(column[2], 20.0);  // last writer wins
  EXPECT_EQ(column[5], 50.0);
  EXPECT_EQ(column[3], -1.0);  // untouched

  std::vector<VertexId> changed;
  std::fill(column.begin(), column.end(), -1.0);
  ASSERT_TRUE(vs.OverlaySuperstep(pool_.get(), 2, 1, attr, column.data(),
                                  &changed)
                  .ok());
  EXPECT_EQ(column[3], 30.0);
  EXPECT_EQ(changed.size(), 4u);  // 2 written twice (both differ), 5, 3
}

TEST_F(VertexStoreTest, ArrayAttributesRoundTrip) {
  VertexStore vs(pages_.get(), 4);
  int attr = vs.RegisterAttribute("labels", 3);
  ASSERT_TRUE(vs.WriteDelta(0, 0, attr, {1}, {1.0, 2.0, 3.0}).ok());
  std::vector<double> column(12, 0.0);
  ASSERT_TRUE(
      vs.OverlaySuperstep(pool_.get(), 0, 0, attr, column.data()).ok());
  EXPECT_EQ(column[3], 1.0);
  EXPECT_EQ(column[4], 2.0);
  EXPECT_EQ(column[5], 3.0);
}

TEST_F(VertexStoreTest, NoMergeKeepsChainsGrowing) {
  VertexStore vs(pages_.get(), 8, MergeStrategy::kNoMerge);
  int attr = vs.RegisterAttribute("rank", 1);
  for (Timestamp t = 0; t < 10; ++t) {
    ASSERT_TRUE(vs.WriteDelta(t, 0, attr, {t % 8}, {1.0 * t}).ok());
    ASSERT_TRUE(vs.MaintainAfterSnapshot(t, pool_.get()).ok());
  }
  EXPECT_EQ(vs.ChainRecords(0, attr), 10u);
}

TEST_F(VertexStoreTest, PeriodicMergeCompacts) {
  VertexStore vs(pages_.get(), 8, MergeStrategy::kPeriodic,
                 /*merge_period=*/4);
  int attr = vs.RegisterAttribute("rank", 1);
  for (Timestamp t = 0; t < 4; ++t) {
    ASSERT_TRUE(vs.WriteDelta(t, 0, attr, {0}, {1.0 * t}).ok());
    ASSERT_TRUE(vs.MaintainAfterSnapshot(t, pool_.get()).ok());
  }
  // Merged at t=4? t runs 0..3; merge at t%4==0 means t=0 merge (chain
  // size 1, no-op). Write one more to trigger at t=4.
  ASSERT_TRUE(vs.WriteDelta(4, 0, attr, {0}, {9.0}).ok());
  ASSERT_TRUE(vs.MaintainAfterSnapshot(4, pool_.get()).ok());
  EXPECT_EQ(vs.ChainRecords(0, attr), 1u);  // all writes hit vertex 0
  std::vector<double> column(8, -1.0);
  ASSERT_TRUE(
      vs.OverlaySuperstep(pool_.get(), 4, 0, attr, column.data()).ok());
  EXPECT_EQ(column[0], 9.0);  // merged value = last writer
}

TEST_F(VertexStoreTest, CostBasedMergesWhenReadCostDominates) {
  VertexStore vs(pages_.get(), 1024, MergeStrategy::kCostBased);
  int attr = vs.RegisterAttribute("rank", 1);
  // Write sizeable per-snapshot deltas; the accumulated (t - τ)·|X| read
  // cost quickly exceeds the merge write cost.
  for (Timestamp t = 0; t < 6; ++t) {
    std::vector<VertexId> vids;
    for (VertexId v = 0; v < 100; ++v) vids.push_back(v);
    const std::vector<double> values(vids.size(), static_cast<double>(t));
    ASSERT_TRUE(vs.WriteDelta(t, 0, attr, vids, values).ok());
    ASSERT_TRUE(vs.MaintainAfterSnapshot(t, pool_.get()).ok());
  }
  // Without merging, the chain would hold 600 records.
  EXPECT_LT(vs.ChainRecords(0, attr), 600u);
  std::vector<double> column(1024, -1.0);
  ASSERT_TRUE(
      vs.OverlaySuperstep(pool_.get(), 5, 0, attr, column.data()).ok());
  EXPECT_EQ(column[50], 5.0);
}

TEST_F(VertexStoreTest, MergePreservesOverlaySemantics) {
  VertexStore no_merge(pages_.get(), 16, MergeStrategy::kNoMerge);
  VertexStore merged(pages_.get(), 16, MergeStrategy::kPeriodic, 2);
  int a1 = no_merge.RegisterAttribute("x", 1);
  int a2 = merged.RegisterAttribute("x", 1);
  for (Timestamp t = 0; t < 7; ++t) {
    std::vector<VertexId> vids = {t % 16, (t * 3) % 16};
    std::vector<double> values = {t * 1.0, t * 2.0};
    if (vids[0] > vids[1]) {
      std::swap(vids[0], vids[1]);
      std::swap(values[0], values[1]);
    }
    ASSERT_TRUE(no_merge.WriteDelta(t, 0, a1, vids, values).ok());
    ASSERT_TRUE(merged.WriteDelta(t, 0, a2, vids, values).ok());
    ASSERT_TRUE(no_merge.MaintainAfterSnapshot(t, pool_.get()).ok());
    ASSERT_TRUE(merged.MaintainAfterSnapshot(t, pool_.get()).ok());
  }
  std::vector<double> c1(16, -1.0);
  std::vector<double> c2(16, -1.0);
  ASSERT_TRUE(
      no_merge.OverlaySuperstep(pool_.get(), 6, 0, a1, c1.data()).ok());
  ASSERT_TRUE(
      merged.OverlaySuperstep(pool_.get(), 6, 0, a2, c2.data()).ok());
  EXPECT_EQ(c1, c2);
}

// The dense merge: width-2 records (3 int64s each, so records straddle
// 64 KiB page boundaries), vids interleaved across files, every vertex
// rewritten by later files. The merged chain must hold each vertex once,
// in vid order, with the newest file's values.
TEST_F(VertexStoreTest, DenseMergeKeepsLastWriterInVidOrder) {
  constexpr VertexId kN = 9000;
  constexpr int kWidth = 2;
  VertexStore no_merge(pages_.get(), kN, MergeStrategy::kNoMerge);
  VertexStore merged(pages_.get(), kN, MergeStrategy::kPeriodic,
                     /*merge_period=*/4);
  const int a1 = no_merge.RegisterAttribute("pair", kWidth);
  const int a2 = merged.RegisterAttribute("pair", kWidth);
  std::vector<std::pair<double, double>> expected(kN, {-1.0, -1.0});
  for (Timestamp t = 0; t <= 4; ++t) {
    // File t writes every vertex with v % 3 != t % 3: about 6000 records,
    // several pages, overlapping the previous files' vids.
    std::vector<VertexId> vids;
    std::vector<double> values;
    for (VertexId v = 0; v < kN; ++v) {
      if (v % 3 == t % 3) continue;
      vids.push_back(v);
      values.push_back(100.0 * t + v);
      values.push_back(-1.0 * t);
      expected[static_cast<size_t>(v)] = {100.0 * t + v, -1.0 * t};
    }
    ASSERT_TRUE(no_merge.WriteDelta(t, 0, a1, vids, values).ok());
    ASSERT_TRUE(merged.WriteDelta(t, 0, a2, vids, values).ok());
    ASSERT_TRUE(no_merge.MaintainAfterSnapshot(t, pool_.get()).ok());
    ASSERT_TRUE(merged.MaintainAfterSnapshot(t, pool_.get()).ok());
  }
  // t=4 merged the chain into one file of the union: every vertex is
  // written by at least one of files 0..4.
  EXPECT_EQ(merged.ChainRecords(0, a2), static_cast<uint64_t>(kN));
  EXPECT_GT(no_merge.ChainRecords(0, a1), static_cast<uint64_t>(kN));

  std::vector<double> c1(kN * kWidth, -7.0);
  std::vector<double> c2(kN * kWidth, -7.0);
  std::vector<VertexId> order;
  ASSERT_TRUE(
      no_merge.OverlaySuperstep(pool_.get(), 4, 0, a1, c1.data()).ok());
  ASSERT_TRUE(merged.OverlaySuperstep(pool_.get(), 4, 0, a2, c2.data(),
                                      &order)
                  .ok());
  EXPECT_EQ(c1, c2);
  for (VertexId v = 0; v < kN; ++v) {
    EXPECT_EQ(c2[static_cast<size_t>(v) * kWidth],
              expected[static_cast<size_t>(v)].first);
    EXPECT_EQ(c2[static_cast<size_t>(v) * kWidth + 1],
              expected[static_cast<size_t>(v)].second);
  }
  // Every record changed the sentinel column, so `order` is the merged
  // file's record order: each vid once, ascending.
  ASSERT_EQ(order.size(), static_cast<size_t>(kN));
  for (VertexId v = 0; v < kN; ++v) {
    EXPECT_EQ(order[static_cast<size_t>(v)], v);
  }
}

}  // namespace
}  // namespace itg
