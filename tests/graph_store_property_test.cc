// Randomized property test of the dynamic graph store: after arbitrary
// mutation sequences, every read (merged adjacency, degrees, edge
// membership, delta scans) must agree with a plain in-memory model of
// the same operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "gen/rmat.h"
#include "storage/graph_store.h"

namespace itg {
namespace {

class GraphStorePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphStorePropertyTest, ReadsMatchModelAcrossSnapshots) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  const VertexId n = 64;
  auto base = GenerateRmatEdges(n, 256, {.seed = seed});
  // Model: set of present edges.
  std::set<Edge> model;
  {
    auto csr = Csr::FromEdges(n, base);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : csr.Neighbors(u)) model.insert({u, v});
    }
  }
  std::string name = ::testing::TempDir() + "/gsp_" +
                     std::to_string(GetParam());
  auto store = std::move(DynamicGraphStore::Create(name, n, base, {},
                                                   &GlobalMetrics()))
                   .value();

  for (Timestamp t = 1; t <= 6; ++t) {
    // Random batch respecting the workload invariant.
    std::vector<EdgeDelta> batch;
    std::set<Edge> touched;
    for (int i = 0; i < 20; ++i) {
      Edge e{static_cast<VertexId>(rng.Uniform(n)),
             static_cast<VertexId>(rng.Uniform(n))};
      if (e.src == e.dst || touched.contains(e)) continue;
      touched.insert(e);
      if (model.contains(e)) {
        batch.push_back({e, -1});
        model.erase(e);
      } else {
        batch.push_back({e, +1});
        model.insert(e);
      }
    }
    ASSERT_TRUE(store->ApplyMutations(batch).ok());

    // Merged adjacency, degree and membership agree with the model.
    std::vector<int64_t> out_degrees;
    store->Degrees(t, Direction::kOut, &out_degrees);
    for (VertexId u = 0; u < n; ++u) {
      std::vector<VertexId> expected_out;
      for (const Edge& e : model) {
        if (e.src == u) expected_out.push_back(e.dst);
      }
      std::vector<VertexId> actual;
      ASSERT_TRUE(store
                      ->GetAdjacency(store->pool(), u, t, Direction::kOut,
                                     &actual)
                      .ok());
      ASSERT_EQ(actual, expected_out) << "t=" << t << " u=" << u;
      EXPECT_EQ(out_degrees[static_cast<size_t>(u)],
                static_cast<int64_t>(expected_out.size()));

      std::vector<VertexId> expected_in;
      for (const Edge& e : model) {
        if (e.dst == u) expected_in.push_back(e.src);
      }
      ASSERT_TRUE(store
                      ->GetAdjacency(store->pool(), u, t, Direction::kIn,
                                     &actual)
                      .ok());
      ASSERT_EQ(actual, expected_in) << "t=" << t << " u=" << u;
    }
    EXPECT_EQ(store->num_edges(t), model.size());

    // The delta scan replays exactly the applied batch (sorted by src).
    std::vector<EdgeDelta> scanned;
    ASSERT_TRUE(store
                    ->ScanDeltas(store->pool(), t, Direction::kOut,
                                 [&](Edge e, Multiplicity m) {
                                   scanned.push_back({e, m});
                                 })
                    .ok());
    ASSERT_EQ(scanned.size(), batch.size());
    std::sort(batch.begin(), batch.end(),
              [](const EdgeDelta& a, const EdgeDelta& b) {
                return a.edge < b.edge;
              });
    std::sort(scanned.begin(), scanned.end(),
              [](const EdgeDelta& a, const EdgeDelta& b) {
                return a.edge < b.edge;
              });
    EXPECT_EQ(scanned, batch);

    // Membership samples.
    for (int i = 0; i < 30; ++i) {
      Edge e{static_cast<VertexId>(rng.Uniform(n)),
             static_cast<VertexId>(rng.Uniform(n))};
      auto has = store->HasEdge(store->pool(), e.src, e.dst, t,
                                Direction::kOut);
      ASSERT_TRUE(has.ok());
      EXPECT_EQ(*has, model.contains(e)) << e;
    }
  }
}

/// Snapshot `t` as the overlay views serve it: every merged out-list (and,
/// separately, every merged in-list flipped back to (src, dst)), sorted.
void ViewEdges(const DynamicGraphStore& store, BufferPool* pool, Timestamp t,
               std::vector<Edge>* out_edges, std::vector<Edge>* in_edges) {
  out_edges->clear();
  in_edges->clear();
  std::vector<VertexId> adj;
  for (VertexId u = 0; u < store.num_vertices(); ++u) {
    ASSERT_TRUE(store.GetAdjacency(pool, u, t, Direction::kOut, &adj).ok());
    for (VertexId v : adj) out_edges->push_back({u, v});
    ASSERT_TRUE(store.GetAdjacency(pool, u, t, Direction::kIn, &adj).ok());
    for (VertexId v : adj) in_edges->push_back({v, u});
  }
  std::sort(in_edges->begin(), in_edges->end());
}

// ApplyMutations builds view t by replaying batches t-1 and t onto the
// evicted view of t-2. Toggling the same few edges batch after batch
// (re-inserting what was just deleted and vice versa) stresses the
// last-op-wins entries and the degree deltas of that replay; the views
// of the latest and previous snapshots must both equal the edge set
// replayed from the persisted delta segments.
TEST_P(GraphStorePropertyTest, ViewReplayMatchesMaterializedEdges) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  const VertexId n = 32;
  auto base = GenerateRmatEdges(n, 96, {.seed = seed});
  std::set<Edge> model;
  for (const Edge& e : base) {
    if (e.src != e.dst) model.insert(e);
  }
  // A small hot set, half of it present in G0, toggled over and over.
  std::vector<Edge> hot;
  for (auto it = model.begin(); it != model.end() && hot.size() < 4; ++it) {
    hot.push_back(*it);
  }
  while (hot.size() < 8) {
    Edge e{static_cast<VertexId>(rng.Uniform(n)),
           static_cast<VertexId>(rng.Uniform(n))};
    if (e.src != e.dst && !model.contains(e) &&
        std::find(hot.begin(), hot.end(), e) == hot.end()) {
      hot.push_back(e);
    }
  }
  auto store = std::move(DynamicGraphStore::Create(
                             ::testing::TempDir() + "/gsr_" +
                                 std::to_string(GetParam()),
                             n, base, {}, &GlobalMetrics()))
                   .value();
  BufferPool* pool = store->pool();
  std::vector<Edge> materialized;
  std::vector<Edge> out_edges;
  std::vector<Edge> in_edges;
  std::vector<int64_t> degrees;
  for (Timestamp t = 1; t <= 60; ++t) {
    std::vector<EdgeDelta> batch;
    for (const Edge& e : hot) {
      if (rng.Uniform(3) == 0) continue;  // sometimes left alone
      const Multiplicity m = model.contains(e) ? -1 : +1;
      batch.push_back({e, m});
      if (m > 0) {
        model.insert(e);
      } else {
        model.erase(e);
      }
    }
    ASSERT_TRUE(store->ApplyMutations(batch).ok());
    for (Timestamp snap : {t - 1, t}) {
      ASSERT_TRUE(store->MaterializeEdges(pool, snap, &materialized).ok());
      ViewEdges(*store, pool, snap, &out_edges, &in_edges);
      ASSERT_EQ(out_edges, materialized) << "t=" << t << " snap=" << snap;
      ASSERT_EQ(in_edges, materialized) << "t=" << t << " snap=" << snap;
      EXPECT_EQ(store->num_edges(snap), materialized.size());
      for (Direction d : {Direction::kOut, Direction::kIn}) {
        std::vector<int64_t> expected(static_cast<size_t>(n), 0);
        for (const Edge& e : materialized) {
          ++expected[static_cast<size_t>(d == Direction::kOut ? e.src
                                                               : e.dst)];
        }
        store->Degrees(snap, d, &degrees);
        ASSERT_EQ(degrees, expected) << "t=" << t << " snap=" << snap;
      }
    }
    EXPECT_EQ(materialized.size(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphStorePropertyTest,
                         ::testing::Range(100, 110));

}  // namespace
}  // namespace itg
