// Engine-level behavioural tests: run statistics, option plumbing,
// error paths, convergence semantics, and the run-state contract between
// one-shot and incremental execution.
#include <gtest/gtest.h>

#include "algos/programs.h"
#include "algos/reference.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "gen/rmat.h"
#include "gen/workload.h"
#include "storage/graph_store.h"

namespace itg {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void Build(const std::vector<Edge>& edges, VertexId n,
             const std::string& source, EngineOptions options = {}) {
    auto store = DynamicGraphStore::Create(
        ::testing::TempDir() + "/engine_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name(),
        n, edges, {}, &GlobalMetrics());
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
    auto program = CompileProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();
    engine_ = std::make_unique<Engine>(store_.get(), program_.get(),
                                       options);
  }

  std::unique_ptr<DynamicGraphStore> store_;
  std::unique_ptr<CompiledProgram> program_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(EngineTest, StatsPopulatedAfterRuns) {
  Build(GenerateRmatEdges(1 << 8, 3 << 8, {.seed = 51}), 1 << 8,
        PageRankProgram(), {.fixed_supersteps = 5});
  ASSERT_TRUE(engine_->RunOneShot(0).ok());
  const RunStats& one = engine_->last_stats();
  EXPECT_FALSE(one.incremental);
  EXPECT_EQ(one.supersteps, 5);
  EXPECT_GT(one.emissions_applied, 0u);
  EXPECT_GT(one.windows_loaded, 0u);
  EXPECT_GT(one.edges_scanned, 0u);
  EXPECT_GT(one.seconds, 0.0);

  ASSERT_TRUE(store_->ApplyMutations({{{0, 1}, +1}}).ok());
  ASSERT_TRUE(engine_->RunIncremental(1).ok());
  const RunStats& inc = engine_->last_stats();
  EXPECT_TRUE(inc.incremental);
  EXPECT_EQ(inc.timestamp, 1);
  EXPECT_GT(inc.delta_walk_emissions, 0u);
}

TEST_F(EngineTest, IncrementalRequiresLockstepRuns) {
  Build(GenerateRmatEdges(1 << 6, 2 << 6, {.seed = 52}), 1 << 6,
        PageRankProgram());
  // No one-shot ran: must be rejected.
  EXPECT_FALSE(engine_->RunIncremental(1).ok());
  ASSERT_TRUE(engine_->RunOneShot(0).ok());
  ASSERT_TRUE(store_->ApplyMutations({{{0, 1}, +1}}).ok());
  // Snapshots may not be skipped.
  EXPECT_FALSE(engine_->RunIncremental(5).ok());
  EXPECT_TRUE(engine_->RunIncremental(1).ok());
  EXPECT_FALSE(engine_->RunIncremental(1).ok());  // and not repeated
}

TEST_F(EngineTest, GlobalMonoidAccumulatorRejectedIncrementally) {
  Build(GenerateRmatEdges(1 << 6, 2 << 6, {.seed = 53}), 1 << 6, R"(
    Vertex (id, active, nbrs)
    GlobalVariable (best: Accm<long, MIN>)
    Initialize (u) { u.active = true; }
    Traverse (u) {
      For v in u.nbrs {
        best.Accumulate(u.id);
      }
    }
    Update (u) {}
  )");
  ASSERT_TRUE(engine_->RunOneShot(0).ok());
  ASSERT_TRUE(store_->ApplyMutations({{{0, 1}, +1}}).ok());
  Status status = engine_->RunIncremental(1);
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);
}

TEST_F(EngineTest, ConvergenceStopsBeforeMaxSupersteps) {
  Build(SymmetrizeEdges(GenerateRmatEdges(1 << 8, 2 << 8, {.seed = 54})),
        1 << 8, WccProgram());
  ASSERT_TRUE(engine_->RunOneShot(0).ok());
  EXPECT_LT(engine_->last_stats().supersteps, 100);
  EXPECT_GT(engine_->last_stats().supersteps, 1);
}

TEST_F(EngineTest, SingleSuperstepProgramsTerminate) {
  Build(SymmetrizeEdges(GenerateRmatEdges(1 << 7, 2 << 7, {.seed = 55})),
        1 << 7, TriangleCountProgram());
  ASSERT_TRUE(engine_->RunOneShot(0).ok());
  // TC's Update never reactivates: exactly one traversal superstep.
  EXPECT_EQ(engine_->last_stats().supersteps, 1);
}

TEST_F(EngineTest, AttrAndGlobalIndexLookups) {
  Build(GenerateRmatEdges(1 << 6, 2 << 6, {.seed = 56}), 1 << 6,
        TriangleCountProgram());
  EXPECT_EQ(engine_->AttrIndex("id"), 0);
  EXPECT_EQ(engine_->AttrIndex("active"), 1);
  EXPECT_EQ(engine_->AttrIndex("no_such"), -1);
  EXPECT_EQ(engine_->GlobalIndex("cnts"), 0);
  EXPECT_EQ(engine_->GlobalIndex("no_such"), -1);
}

TEST_F(EngineTest, RecordHistoryOffStillComputesCorrectly) {
  auto edges = GenerateRmatEdges(1 << 8, 3 << 8, {.seed = 57});
  Build(edges, 1 << 8, PageRankProgram(),
        {.fixed_supersteps = 10, .record_history = false});
  ASSERT_TRUE(engine_->RunOneShot(0).ok());
  Csr csr = Csr::FromEdges(1 << 8, edges);
  auto expected = RefPageRank(csr, 10);
  int rank = engine_->AttrIndex("rank");
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_NEAR(engine_->AttrValue(rank, v), expected[v], 1e-9);
  }
  // No per-superstep files were written.
  EXPECT_EQ(engine_->vertex_store().ChainRecords(1, rank), 0u);
}

TEST_F(EngineTest, IncrementalReducesEdgeScans) {
  auto edges = SymmetrizeEdges(GenerateRmatEdges(1 << 9, 4 << 9,
                                                 {.seed = 58}));
  Build(edges, 1 << 9, TriangleCountProgram());
  ASSERT_TRUE(engine_->RunOneShot(0).ok());
  uint64_t oneshot_scans = engine_->last_stats().edges_scanned;
  // Pick an edge that is genuinely absent (the workload invariant).
  Edge fresh{0, 0};
  for (VertexId b = 1; b < (1 << 9); ++b) {
    auto has = store_->HasEdge(store_->pool(), 3, b, 0, Direction::kOut);
    ASSERT_TRUE(has.ok());
    if (!*has && b != 3) {
      fresh = {3, b};
      break;
    }
  }
  ASSERT_TRUE(store_
                  ->ApplyMutations({{fresh, +1},
                                    {{fresh.dst, fresh.src}, +1}})
                  .ok());
  ASSERT_TRUE(engine_->RunIncremental(1).ok());
  uint64_t inc_scans = engine_->last_stats().edges_scanned;
  // A two-operation batch must scan a small fraction of the graph.
  EXPECT_LT(inc_scans * 5, oneshot_scans);
}

// An engine that joins a store at snapshot L keeps its history relative
// to L: with cost-based merging, the one-shot file at τ = L must count as
// the chain's base, not as a delta re-read (t − L) times. Compared with
// the same program started at 0 over the materialized snapshot L, every
// batch must give the same state and the same chains.
TEST_F(EngineTest, HistoryOffsetMatchesEngineStartedAtZero) {
  constexpr VertexId kN = 1 << 8;
  constexpr Timestamp kJoin = 5;
  constexpr int kBatches = 30;
  MutationWorkload workload(GenerateRmatEdges(kN, 6 << 8, {.seed = 61}),
                            0.9, 61, /*canonical=*/false);
  Build(workload.initial_edges(), kN, QuantizedPageRankProgram(),
        {.fixed_supersteps = 10,
         .merge_strategy = MergeStrategy::kCostBased});
  for (Timestamp t = 1; t <= kJoin; ++t) {
    ASSERT_TRUE(store_->ApplyMutations(workload.NextBatch(20, 0.75)).ok());
  }
  std::vector<Edge> joined_edges;
  ASSERT_TRUE(
      store_->MaterializeEdges(store_->pool(), kJoin, &joined_edges).ok());
  auto fresh_store = DynamicGraphStore::Create(
      ::testing::TempDir() + "/engine_history_offset_fresh", kN,
      joined_edges, {}, &GlobalMetrics());
  ASSERT_TRUE(fresh_store.ok());
  Engine fresh(fresh_store.value().get(), program_.get(),
               engine_->options());

  auto expect_same_chains = [&](int batch) {
    const VertexStore& joined = engine_->vertex_store();
    const VertexStore& started = fresh.vertex_store();
    ASSERT_EQ(joined.max_superstep(), started.max_superstep());
    ASSERT_EQ(joined.attribute_count(), started.attribute_count());
    for (Superstep s = 0; s <= joined.max_superstep(); ++s) {
      for (int attr = 0; attr < joined.attribute_count(); ++attr) {
        EXPECT_EQ(joined.ChainRecords(s, attr), started.ChainRecords(s, attr))
            << "batch " << batch << " superstep " << s << " attr " << attr;
      }
    }
  };
  ASSERT_TRUE(engine_->RunOneShot(kJoin).ok());
  ASSERT_TRUE(fresh.RunOneShot(0).ok());
  ASSERT_EQ(engine_->last_stats().state_digest,
            fresh.last_stats().state_digest);
  expect_same_chains(0);
  for (int b = 1; b <= kBatches; ++b) {
    const std::vector<EdgeDelta> batch = workload.NextBatch(20, 0.75);
    auto t = store_->ApplyMutations(batch);
    ASSERT_TRUE(t.ok());
    ASSERT_EQ(t.value(), kJoin + b);
    ASSERT_TRUE(fresh_store.value()->ApplyMutations(batch).ok());
    ASSERT_TRUE(engine_->RunIncremental(kJoin + b).ok());
    ASSERT_TRUE(fresh.RunIncremental(b).ok());
    ASSERT_EQ(engine_->last_stats().state_digest,
              fresh.last_stats().state_digest)
        << "batch " << b;
    expect_same_chains(b);
  }
}

TEST_F(EngineTest, ExplainContainsIncrementalSubqueries) {
  Build(GenerateRmatEdges(1 << 6, 2 << 6, {.seed = 59}), 1 << 6,
        TriangleCountProgram());
  std::string explain = program_->Explain();
  // Rule ⑦ expands the 4-stream Walk into 4 sub-queries.
  EXPECT_NE(explain.find("q1"), std::string::npos);
  EXPECT_NE(explain.find("q4"), std::string::npos);
  EXPECT_NE(explain.find("DeltaStream"), std::string::npos);
}

}  // namespace
}  // namespace itg
