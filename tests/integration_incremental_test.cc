// The paper's core contract: Q(G ∪ ΔG) = Q(G) ∪ ΔQ. For every program and
// mutation workload, the incremental engine's state after RunIncremental(t)
// must equal a from-scratch one-shot execution on the mutated graph.
// Parameterized over the optimization flags (§6.4.2 ablation space) so
// every TR/NP/SWS/CNT combination is exercised on the pure Δ-walk path
// (RC off); the `...Rc` configs add per-superstep recompute, which may
// replace a one-hop program's Δ-walks with a fresh walk.
#include <gtest/gtest.h>

#include <memory>

#include "algos/programs.h"
#include "algos/reference.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "gen/rmat.h"
#include "gen/workload.h"
#include "storage/graph_store.h"

namespace itg {
namespace {

struct OptConfig {
  bool tr;
  bool np;
  bool sws;
  bool cnt;
  bool rc = false;
};

class IncrementalTest : public ::testing::TestWithParam<OptConfig> {
 protected:
  EngineOptions Options(int fixed = -1) const {
    EngineOptions opts;
    opts.traversal_reordering = GetParam().tr;
    opts.neighbor_pruning = GetParam().np;
    opts.seek_window_sharing = GetParam().sws;
    opts.min_counting = GetParam().cnt;
    opts.superstep_recompute = GetParam().rc;
    opts.fixed_supersteps = fixed;
    return opts;
  }

  /// Runs `snapshots` incremental steps, checking against fresh one-shot
  /// runs; `check` receives (incremental engine, mutated-graph CSR).
  void RunScenario(const std::string& source, bool symmetric,
                   double insert_ratio, int fixed_supersteps,
                   const std::function<void(const Engine&, const Csr&)>&
                       check) {
    auto all_edges = GenerateRmatEdges(1 << 9, 6 << 9, {.seed = 99});
    if (symmetric) {
      // Undirected analytics mutate canonical (min, max) edges; each
      // mutation is applied to both directions below. Canonicalize the
      // pool so (a,b) and (b,a) are one undirected edge.
      for (Edge& e : all_edges) {
        if (e.src > e.dst) std::swap(e.src, e.dst);
      }
    }
    MutationWorkload workload(all_edges, 0.9, 1234);
    std::vector<Edge> base = workload.initial_edges();
    std::vector<Edge> base_stored = symmetric ? SymmetrizeEdges(base) : base;
    const VertexId n = 1 << 9;

    auto compiled = CompileProgram(source);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto program = std::move(compiled).value();

    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    std::string path = ::testing::TempDir() + "/inc_" + name;
    auto store_or = DynamicGraphStore::Create(path, n, base_stored, {},
                                              &GlobalMetrics());
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    auto store = std::move(store_or).value();

    Engine engine(store.get(), program.get(), Options(fixed_supersteps));
    ASSERT_TRUE(engine.RunOneShot(0).ok());

    std::vector<Edge> current = base;
    for (Timestamp t = 1; t <= 3; ++t) {
      auto batch = workload.NextBatch(60, insert_ratio);
      std::vector<EdgeDelta> stored_batch;
      for (const EdgeDelta& d : batch) {
        stored_batch.push_back(d);
        if (symmetric) {
          stored_batch.push_back({{d.edge.dst, d.edge.src}, d.mult});
        }
        if (d.mult > 0) {
          current.push_back(d.edge);
        } else {
          current.erase(std::find(current.begin(), current.end(), d.edge));
        }
      }
      auto ts = store->ApplyMutations(stored_batch);
      ASSERT_TRUE(ts.ok()) << ts.status().ToString();
      Status st = engine.RunIncremental(t);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_TRUE(engine.last_stats().incremental);

      std::vector<Edge> mutated =
          symmetric ? SymmetrizeEdges(current) : current;
      Csr csr = Csr::FromEdges(n, mutated);
      check(engine, csr);
    }
  }
};

TEST_P(IncrementalTest, PageRank) {
  RunScenario(PageRankProgram(), /*symmetric=*/false, 0.75, 10,
              [&](const Engine& engine, const Csr& csr) {
                auto expected = RefPageRank(csr, 10);
                int rank = engine.AttrIndex("rank");
                for (VertexId v = 0; v < csr.num_vertices(); ++v) {
                  ASSERT_NEAR(engine.AttrValue(rank, v), expected[v], 1e-9)
                      << "v=" << v;
                }
              });
}

TEST_P(IncrementalTest, LabelProp) {
  RunScenario(LabelPropProgram(8), /*symmetric=*/false, 0.75, 10,
              [&](const Engine& engine, const Csr& csr) {
                auto expected = RefLabelProp(csr, 8, 10);
                int labels = engine.AttrIndex("labels");
                for (VertexId v = 0; v < csr.num_vertices(); ++v) {
                  const double* cell = engine.AttrCell(labels, v);
                  for (int l = 0; l < 8; ++l) {
                    ASSERT_NEAR(cell[l], expected[v][l], 1e-9)
                        << "v=" << v << " l=" << l;
                  }
                }
              });
}

TEST_P(IncrementalTest, QuantizedPageRank) {
  RunScenario(QuantizedPageRankProgram(), /*symmetric=*/false, 0.75, 10,
              [&](const Engine& engine, const Csr& csr) {
                auto expected = RefQuantizedPageRank(csr, 10);
                int rank = engine.AttrIndex("rank");
                for (VertexId v = 0; v < csr.num_vertices(); ++v) {
                  ASSERT_EQ(engine.AttrValue(rank, v), expected[v])
                      << "v=" << v;
                }
              });
}

TEST_P(IncrementalTest, WccWithDeletions) {
  RunScenario(WccProgram(), /*symmetric=*/true, 0.5, -1,
              [&](const Engine& engine, const Csr& csr) {
                auto expected = RefWcc(csr);
                int comp = engine.AttrIndex("comp");
                for (VertexId v = 0; v < csr.num_vertices(); ++v) {
                  ASSERT_EQ(static_cast<VertexId>(engine.AttrValue(comp, v)),
                            expected[v])
                      << "v=" << v;
                }
              });
}

TEST_P(IncrementalTest, BfsWithDeletions) {
  // Root fixed at vertex 0 so it is stable across mutations.
  RunScenario(BfsProgram(0), /*symmetric=*/true, 0.5, -1,
              [&](const Engine& engine, const Csr& csr) {
                auto expected = RefBfs(csr, 0);
                int dist = engine.AttrIndex("dist");
                for (VertexId v = 0; v < csr.num_vertices(); ++v) {
                  ASSERT_EQ(engine.AttrValue(dist, v), expected[v])
                      << "v=" << v;
                }
              });
}

TEST_P(IncrementalTest, TriangleCount) {
  RunScenario(TriangleCountProgram(), /*symmetric=*/true, 0.75, -1,
              [&](const Engine& engine, const Csr& csr) {
                uint64_t expected = RefTriangleCount(csr);
                int cnts = engine.GlobalIndex("cnts");
                ASSERT_EQ(
                    static_cast<uint64_t>(engine.GlobalValue(cnts)[0]),
                    expected);
              });
}

TEST_P(IncrementalTest, Lcc) {
  RunScenario(LccProgram(), /*symmetric=*/true, 0.5, -1,
              [&](const Engine& engine, const Csr& csr) {
                auto expected = RefLcc(csr);
                int lcc = engine.AttrIndex("lcc");
                for (VertexId v = 0; v < csr.num_vertices(); ++v) {
                  ASSERT_NEAR(engine.AttrValue(lcc, v), expected[v], 1e-12)
                      << "v=" << v;
                }
              });
}

TEST_P(IncrementalTest, DeletionOnlyWorkload) {
  RunScenario(WccProgram(), /*symmetric=*/true, 0.0, -1,
              [&](const Engine& engine, const Csr& csr) {
                auto expected = RefWcc(csr);
                int comp = engine.AttrIndex("comp");
                for (VertexId v = 0; v < csr.num_vertices(); ++v) {
                  ASSERT_EQ(static_cast<VertexId>(engine.AttrValue(comp, v)),
                            expected[v]);
                }
              });
}

TEST_P(IncrementalTest, InsertionOnlyWorkload) {
  RunScenario(TriangleCountProgram(), /*symmetric=*/true, 1.0, -1,
              [&](const Engine& engine, const Csr& csr) {
                uint64_t expected = RefTriangleCount(csr);
                int cnts = engine.GlobalIndex("cnts");
                ASSERT_EQ(
                    static_cast<uint64_t>(engine.GlobalValue(cnts)[0]),
                    expected);
              });
}

INSTANTIATE_TEST_SUITE_P(
    Optimizations, IncrementalTest,
    ::testing::Values(OptConfig{false, false, false, false},
                      OptConfig{true, false, false, false},
                      OptConfig{true, true, false, false},
                      OptConfig{true, true, true, false},
                      OptConfig{true, true, true, true},
                      OptConfig{false, true, false, true},
                      OptConfig{false, false, true, true},
                      OptConfig{true, true, true, true, true},
                      OptConfig{false, false, false, false, true}),
    [](const ::testing::TestParamInfo<OptConfig>& info) {
      std::string name;
      name += info.param.tr ? "Tr" : "NoTr";
      name += info.param.np ? "Np" : "NoNp";
      name += info.param.sws ? "Sws" : "NoSws";
      name += info.param.cnt ? "Cnt" : "NoCnt";
      if (info.param.rc) name += "Rc";
      return name;
    });

}  // namespace
}  // namespace itg
