// Per-superstep recompute (EngineOptions::superstep_recompute): an
// incremental superstep replaces its Δ-walks with one walk over the
// current snapshot when that scans fewer level-1 edges. Both paths must
// produce the one-shot answer. The tests reach each mode through the
// input alone — a 1-op batch keeps the Δ plan cheap, a batch of about
// half the graph makes recomputation cheaper — and check the programs
// and options that must never take the recompute path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algos/programs.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "gen/rmat.h"
#include "gen/workload.h"
#include "storage/graph_store.h"

namespace itg {
namespace {

constexpr VertexId kN = 1 << 9;

struct Case {
  std::string name;
  std::string source;
  bool symmetric;
  int fixed_supersteps;
  /// Float SUM programs are compared within 1e-9, the rest bit-exactly.
  bool exact;
};

std::vector<Case> OneHopCases() {
  return {{"pr", PageRankProgram(), false, 10, false},
          {"qpr", QuantizedPageRankProgram(), false, 10, true},
          {"lp", LabelPropProgram(8), false, 10, false},
          {"wcc", WccProgram(), true, -1, true},
          {"bfs", BfsProgram(0), true, -1, true}};
}

/// One store + engine over an RMAT graph, stepped through mutation
/// batches of chosen sizes.
class Pipeline {
 public:
  Pipeline(const Case& c, const std::string& tag, EngineOptions options)
      : case_(c), workload_(Edges(c.symmetric), 0.7, 4321, c.symmetric) {
    auto compiled = CompileProgram(c.source);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    program_ = std::move(compiled).value();
    std::vector<Edge> base = workload_.initial_edges();
    if (c.symmetric) base = SymmetrizeEdges(base);
    auto store_or = DynamicGraphStore::Create(
        ::testing::TempDir() + "/rc_" + tag, kN, base, {}, &GlobalMetrics());
    EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
    store_ = std::move(store_or).value();
    options.fixed_supersteps = c.fixed_supersteps;
    engine_ = std::make_unique<Engine>(store_.get(), program_.get(), options);
    EXPECT_TRUE(engine_->RunOneShot(0).ok());
  }

  /// Applies a batch of `ops` mutations (half inserts) and runs the
  /// incremental step; returns the superstep modes it chose.
  std::vector<gsa::SuperstepMode> Step(size_t ops) {
    std::vector<EdgeDelta> batch;
    for (const EdgeDelta& d : workload_.NextBatch(ops, 0.5)) {
      batch.push_back(d);
      if (case_.symmetric) {
        batch.push_back({{d.edge.dst, d.edge.src}, d.mult});
      }
    }
    auto t = store_->ApplyMutations(batch);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    Status st = engine_->RunIncremental(*t);
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::vector<gsa::SuperstepMode> modes;
    for (const gsa::SuperstepProfile& row :
         engine_->last_profile().supersteps()) {
      EXPECT_TRUE(row.incremental());
      modes.push_back(row.mode);
    }
    return modes;
  }

  /// Compares every audited attribute with a fresh one-shot run over the
  /// latest snapshot's materialized edges.
  void ExpectMatchesOneShot(const std::string& tag) {
    std::vector<Edge> edges;
    ASSERT_TRUE(
        store_->MaterializeEdges(store_->pool(), store_->latest(), &edges)
            .ok());
    auto fresh_store = DynamicGraphStore::Create(
        ::testing::TempDir() + "/rc_fresh_" + tag, kN, edges, {},
        &GlobalMetrics());
    ASSERT_TRUE(fresh_store.ok());
    EngineOptions options;
    options.fixed_supersteps = case_.fixed_supersteps;
    options.record_history = false;
    Engine fresh(fresh_store->get(), program_.get(), options);
    ASSERT_TRUE(fresh.RunOneShot(0).ok());
    for (int attr : engine_->AuditedAttrs()) {
      const int width = engine_->columns().width(attr);
      for (VertexId v = 0; v < kN; ++v) {
        const double* got = engine_->AttrCell(attr, v);
        const double* want = fresh.AttrCell(attr, v);
        for (int i = 0; i < width; ++i) {
          if (case_.exact) {
            ASSERT_EQ(got[i], want[i]) << tag << " v=" << v << " i=" << i;
          } else {
            ASSERT_NEAR(got[i], want[i], 1e-9)
                << tag << " v=" << v << " i=" << i;
          }
        }
      }
    }
  }

  Engine& engine() { return *engine_; }
  size_t edge_count() const { return workload_.current_edge_count(); }

 private:
  static std::vector<Edge> Edges(bool symmetric) {
    auto edges = GenerateRmatEdges(kN, 6 * kN, {.seed = 77});
    if (symmetric) {
      for (Edge& e : edges) {
        if (e.src > e.dst) std::swap(e.src, e.dst);
      }
    }
    return edges;
  }

  Case case_;
  MutationWorkload workload_;
  std::unique_ptr<CompiledProgram> program_;
  std::unique_ptr<DynamicGraphStore> store_;
  std::unique_ptr<Engine> engine_;
};

bool Contains(const std::vector<gsa::SuperstepMode>& modes,
              gsa::SuperstepMode mode) {
  return std::find(modes.begin(), modes.end(), mode) != modes.end();
}

TEST(SuperstepRecomputeTest, BothModesMatchOneShot) {
  for (const Case& c : OneHopCases()) {
    SCOPED_TRACE(c.name);
    Pipeline p(c, c.name, EngineOptions{});
    // One mutation: the Δ plan touches a handful of vertices, so at
    // least the first superstep stays on Δ-walks.
    std::vector<gsa::SuperstepMode> small = p.Step(1);
    ASSERT_FALSE(small.empty());
    EXPECT_EQ(small.front(), gsa::SuperstepMode::kDelta);
    p.ExpectMatchesOneShot(c.name + "_small");
    // Half the graph: retracting and re-asserting the changed vertices
    // costs more than one walk over the current snapshot.
    std::vector<gsa::SuperstepMode> large = p.Step(p.edge_count() / 2);
    EXPECT_TRUE(Contains(large, gsa::SuperstepMode::kRecompute));
    p.ExpectMatchesOneShot(c.name + "_large");
    // Back to a small batch after a recompute superstep rewrote history.
    p.Step(3);
    p.ExpectMatchesOneShot(c.name + "_after");
  }
}

TEST(SuperstepRecomputeTest, CostEstimatesAreRecordedPerSuperstep) {
  const Case c = OneHopCases()[1];  // qpr
  Pipeline p(c, "costs", EngineOptions{});
  p.Step(p.edge_count() / 2);
  for (const gsa::SuperstepProfile& row :
       p.engine().last_profile().supersteps()) {
    EXPECT_GT(row.delta_cost + row.recompute_cost, 0u);
    // The choice follows the estimates: recompute only when cheaper.
    EXPECT_EQ(row.mode == gsa::SuperstepMode::kRecompute,
              row.recompute_cost < row.delta_cost)
        << "superstep " << row.superstep;
  }
}

TEST(SuperstepRecomputeTest, SwitchedOffStaysOnDeltaWalks) {
  for (const Case& c : OneHopCases()) {
    SCOPED_TRACE(c.name);
    EngineOptions options;
    options.superstep_recompute = false;
    Pipeline p(c, c.name + "_off", options);
    std::vector<gsa::SuperstepMode> modes = p.Step(p.edge_count() / 2);
    EXPECT_FALSE(Contains(modes, gsa::SuperstepMode::kRecompute));
    p.ExpectMatchesOneShot(c.name + "_off");
  }
}

TEST(SuperstepRecomputeTest, NeverRecomputesIneligiblePrograms) {
  // tc emits a global accumulator (totals carried across batches); lcc
  // walks three hops, where level-1 scans do not measure the join.
  const std::vector<Case> ineligible = {
      {"tc", TriangleCountProgram(), true, -1, true},
      {"lcc", LccProgram(), true, -1, false}};
  for (const Case& c : ineligible) {
    SCOPED_TRACE(c.name);
    Pipeline p(c, c.name + "_inel", EngineOptions{});
    std::vector<gsa::SuperstepMode> modes = p.Step(p.edge_count() / 2);
    ASSERT_FALSE(modes.empty());
    for (const gsa::SuperstepProfile& row :
         p.engine().last_profile().supersteps()) {
      EXPECT_EQ(row.mode, gsa::SuperstepMode::kDelta);
      EXPECT_EQ(row.delta_cost, 0u);
      EXPECT_EQ(row.recompute_cost, 0u);
    }
  }
}

TEST(SuperstepRecomputeTest, NeverRecomputesWithLineage) {
  const Case c = OneHopCases()[1];  // qpr
  EngineOptions options;
  options.lineage = true;
  Pipeline p(c, "lineage", options);
  std::vector<gsa::SuperstepMode> modes = p.Step(p.edge_count() / 2);
  ASSERT_FALSE(modes.empty());
  EXPECT_FALSE(Contains(modes, gsa::SuperstepMode::kRecompute));
  p.ExpectMatchesOneShot("lineage");
}

}  // namespace
}  // namespace itg
