// Δ-record provenance content: the mutation ids lineage mode attaches to
// a vertex must be those of the inserted edges its new value derives
// from, on the Δes sub-query path and on the anchored closing alike.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algos/programs.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "storage/csr.h"
#include "storage/graph_store.h"

namespace itg {
namespace {

class LineageTest : public ::testing::Test {
 protected:
  /// One-shot over symmetrized `edges`, then one incremental run over the
  /// symmetrized `inserts`, lineage on.
  void Run(const std::string& source, VertexId n,
           const std::vector<Edge>& edges, const std::vector<Edge>& inserts) {
    auto store = DynamicGraphStore::Create(
        ::testing::TempDir() + "/lineage_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name(),
        n, SymmetrizeEdges(edges), {}, &GlobalMetrics());
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
    auto program = CompileProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();
    EngineOptions options;
    options.lineage = true;
    engine_ = std::make_unique<Engine>(store_.get(), program_.get(), options);
    ASSERT_TRUE(engine_->RunOneShot(0).ok());
    std::vector<EdgeDelta> batch;
    for (const Edge& e : inserts) {
      batch.push_back({e, +1});
      batch.push_back({{e.dst, e.src}, +1});
    }
    ASSERT_TRUE(store_->ApplyMutations(batch).ok());
    ASSERT_TRUE(engine_->RunIncremental(1).ok());
  }

  /// The stored (src, dst) edges of the mutations attributed to `v`.
  std::vector<Edge> Sources(VertexId v) const {
    std::vector<Edge> out;
    for (uint64_t id : engine_->lineage()->Ids(v)) {
      const LineageTracker::MutationInfo* info =
          engine_->lineage()->Info(id);
      EXPECT_NE(info, nullptr);
      if (info == nullptr) continue;
      EXPECT_EQ(info->timestamp, 1);
      EXPECT_EQ(info->mult, 1);
      out.push_back(info->edge);
    }
    return out;
  }

  std::unique_ptr<DynamicGraphStore> store_;
  std::unique_ptr<CompiledProgram> program_;
  std::unique_ptr<Engine> engine_;
};

// Components {0,1,2} and {3,4} merge through the inserted undirected
// edge 2-3, stored as the mutations 2->3 and 3->2. In superstep 0 the Δes
// sub-query (delta_level 1) walks both delta edges and tags their
// targets; every emission also hands the walk start's set to its target,
// so 2, 3 and 4 end up naming both mutations, while 0 and 1, whose
// component never changes, name none.
TEST_F(LineageTest, WccDeltaSubqueryTagsTheInsertedEdge) {
  Run(WccProgram(), 5, {{0, 1}, {1, 2}, {3, 4}}, {{2, 3}});
  EXPECT_EQ(engine_->AttrValue(engine_->AttrIndex("comp"), 4), 0.0);
  EXPECT_TRUE(Sources(0).empty());
  EXPECT_TRUE(Sources(1).empty());
  const std::vector<Edge> both = {{2, 3}, {3, 2}};
  EXPECT_EQ(Sources(2), both);
  EXPECT_EQ(Sources(3), both);
  EXPECT_EQ(Sources(4), both);
  const std::string report = engine_->ExplainLineage(4);
  EXPECT_NE(report.find("comp = 0"), std::string::npos) << report;
  EXPECT_NE(report.find("t=1 #0: +edge 2->3"), std::string::npos) << report;
}

// Path 0-1-2 closed into a triangle by inserting 0-2. The walk
// (0, 1, 2, 0) crosses the delta edge 2->0 at the last level, so only the
// anchored closing (traversal reordering of q_3) counts vertex 0's new
// triangle; (1, 0, 2, 1) crosses 0->2 at level 2 and (2, 0, 1, 2) crosses
// 2->0 at level 1.
TEST_F(LineageTest, LccAnchoredClosingTagsTheInsertedEdge) {
  Run(LccProgram(), 4, {{0, 1}, {1, 2}, {2, 3}}, {{0, 2}});
  const int tri = engine_->AttrIndex("tri");
  for (VertexId v : {0, 1, 2}) EXPECT_EQ(engine_->AttrValue(tri, v), 1.0);
  EXPECT_EQ(engine_->AttrValue(tri, 3), 0.0);
  EXPECT_EQ(Sources(0), (std::vector<Edge>{{2, 0}}));
  EXPECT_EQ(Sources(1), (std::vector<Edge>{{0, 2}}));
  EXPECT_EQ(Sources(2), (std::vector<Edge>{{2, 0}}));
  EXPECT_TRUE(Sources(3).empty());
  const std::string report = engine_->ExplainLineage(0);
  EXPECT_NE(report.find("+edge 2->0"), std::string::npos) << report;
}

}  // namespace
}  // namespace itg
