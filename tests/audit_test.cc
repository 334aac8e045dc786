// Correctness-observability tests: the order-independent state digest
// (common/digest.h), snapshot materialization for shadow replays
// (DynamicGraphStore::MaterializeEdges), and the drift auditor's full
// loop — clean runs verify, an injected corruption is detected, bisected
// to the exact offending Δ-batch, and localized to the divergent
// vertices (harness/audit.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algos/programs.h"
#include "common/digest.h"
#include "common/metrics.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "harness/audit.h"
#include "storage/graph_store.h"

namespace itg {
namespace {

TEST(DigestTest, DeterministicAndSensitive) {
  const std::vector<double> col = {1.0, 2.5, -3.0, 0.0};
  const uint64_t d = ColumnDigest(col.data(), 4, 1);
  EXPECT_EQ(d, ColumnDigest(col.data(), 4, 1));

  // Any single-cell change moves the digest.
  std::vector<double> changed = col;
  changed[2] = -3.0000001;
  EXPECT_NE(d, ColumnDigest(changed.data(), 4, 1));

  // The per-cell hash covers the raw bit pattern: -0.0 != +0.0.
  std::vector<double> zeros = col;
  zeros[3] = -0.0;
  EXPECT_NE(d, ColumnDigest(zeros.data(), 4, 1));
}

TEST(DigestTest, VertexAssignmentMatters) {
  // The combine is order-independent over *vertices*, but each hash
  // binds (vertex, value): swapping two different values between two
  // vertices is a different state and must change the digest.
  const std::vector<double> a = {7.0, 9.0};
  const std::vector<double> b = {9.0, 7.0};
  EXPECT_NE(ColumnDigest(a.data(), 2, 1), ColumnDigest(b.data(), 2, 1));
}

TEST(DigestTest, CombineIsAttrOrderIndependent) {
  // Folding column digests in any attribute order yields the same
  // combined digest (wrapping add), while the per-attribute salt keeps
  // two attributes with swapped columns distinct.
  const uint64_t da = 0x1234'5678'9abc'def0ull;
  const uint64_t db = 0x0fed'cba9'8765'4321ull;
  const uint64_t ab = CombineColumnDigest(CombineColumnDigest(0, 1, da), 2, db);
  const uint64_t ba = CombineColumnDigest(CombineColumnDigest(0, 2, db), 1, da);
  EXPECT_EQ(ab, ba);
  // Swapping which attribute holds which column is a different state.
  const uint64_t swapped =
      CombineColumnDigest(CombineColumnDigest(0, 1, db), 2, da);
  EXPECT_NE(ab, swapped);
}

std::vector<std::pair<VertexId, VertexId>> SortedPairs(
    const std::vector<Edge>& edges) {
  std::vector<std::pair<VertexId, VertexId>> out;
  for (const Edge& e : edges) out.emplace_back(e.src, e.dst);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(MaterializeEdgesTest, ReconstructsEverySnapshot) {
  // Base {0->1, 1->2, 2->3}; t=1 inserts 3->0 and deletes 1->2; t=2
  // re-inserts 1->2. MaterializeEdges(t) must reproduce each snapshot's
  // exact edge set, including the deletion and the re-insertion.
  const std::vector<Edge> base = {{0, 1}, {1, 2}, {2, 3}};
  auto store_or = DynamicGraphStore::Create(
      ::testing::TempDir() + "/mat_edges", 4, base, {}, &GlobalMetrics());
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(store_or).value();

  auto t1 = store->ApplyMutations({{{3, 0}, +1}, {{1, 2}, -1}});
  ASSERT_TRUE(t1.ok());
  auto t2 = store->ApplyMutations({{{1, 2}, +1}});
  ASSERT_TRUE(t2.ok());

  std::vector<Edge> got;
  ASSERT_TRUE(store->MaterializeEdges(store->pool(), 0, &got).ok());
  EXPECT_EQ(SortedPairs(got), SortedPairs(base));

  ASSERT_TRUE(store->MaterializeEdges(store->pool(), 1, &got).ok());
  EXPECT_EQ(SortedPairs(got),
            SortedPairs({{0, 1}, {2, 3}, {3, 0}}));

  ASSERT_TRUE(store->MaterializeEdges(store->pool(), 2, &got).ok());
  EXPECT_EQ(SortedPairs(got),
            SortedPairs({{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
}

// ---------------------------------------------------------------------------
// Drift auditor
// ---------------------------------------------------------------------------

std::vector<Edge> Sym(const std::vector<Edge>& edges) {
  std::vector<Edge> out;
  for (const Edge& e : edges) {
    out.push_back(e);
    out.push_back({e.dst, e.src});
  }
  return out;
}

/// A live WCC pipeline (8-vertex ring) plus its auditor, stepped through
/// 4 symmetric delta batches with the auditor hooked in like the driver:
/// OnRun after every run, MaybeAudit after every incremental step.
struct AuditedPipeline {
  std::unique_ptr<CompiledProgram> program;
  std::unique_ptr<DynamicGraphStore> store;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<DriftAuditor> auditor;
};

/// Page files of the shadow stores the auditor of `tag` made.
std::vector<std::string> ShadowFiles(const std::string& tag) {
  const std::string prefix = "audit_" + tag + "_scratch.shadow";
  std::vector<std::string> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  }
  return out;
}

AuditedPipeline MakeAudited(const std::string& tag, int every,
                            Timestamp corrupt_t, VertexId corrupt_vertex,
                            double corrupt_delta) {
  const std::vector<Edge> ring = {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                  {4, 5}, {5, 6}, {6, 7}, {7, 0}};
  for (const std::string& file : ShadowFiles(tag)) {
    std::filesystem::remove(std::filesystem::path(::testing::TempDir()) /
                            file);
  }
  AuditedPipeline p;
  auto compiled = CompileProgram(WccProgram());
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  p.program = std::move(compiled).value();
  auto store_or =
      DynamicGraphStore::Create(::testing::TempDir() + "/audit_" + tag, 8,
                                Sym(ring), {}, &GlobalMetrics());
  EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
  p.store = std::move(store_or).value();

  EngineOptions opts;
  opts.record_history = true;
  opts.debug_corrupt_timestamp = corrupt_t;
  opts.debug_corrupt_vertex = corrupt_vertex;
  opts.debug_corrupt_delta = corrupt_delta;
  p.engine = std::make_unique<Engine>(p.store.get(), p.program.get(), opts);

  DriftAuditor::Options aopts;
  aopts.every = every;
  p.auditor = std::make_unique<DriftAuditor>(
      p.store.get(), p.engine.get(), WccProgram(),
      ::testing::TempDir() + "/audit_" + tag + "_scratch", aopts);
  return p;
}

/// One-shot then 4 delta batches (delete 3-4, insert 2-7, delete 7-0,
/// insert 3-4), auditing per the configured cadence.
void DriveAudited(AuditedPipeline* p) {
  ASSERT_TRUE(p->engine->RunOneShot(0).ok());
  p->auditor->OnRun(0);
  const std::vector<std::pair<Edge, Multiplicity>> batches = {
      {{3, 4}, -1}, {{2, 7}, +1}, {{7, 0}, -1}, {{3, 4}, +1}};
  Timestamp t = 0;
  for (const auto& [edge, mult] : batches) {
    std::vector<EdgeDelta> batch = {{edge, mult},
                                    {{edge.dst, edge.src}, mult}};
    auto ts = p->store->ApplyMutations(batch);
    ASSERT_TRUE(ts.ok()) << ts.status().ToString();
    t = *ts;
    ASSERT_TRUE(p->engine->RunIncremental(t).ok());
    p->auditor->OnRun(t);
    ASSERT_TRUE(p->auditor->MaybeAudit(t).ok());
  }
  ASSERT_EQ(t, 4);
}

TEST(DriftAuditorTest, CleanRunVerifiesOnCadence) {
  AuditedPipeline p = MakeAudited("clean", /*every=*/2, -1, -1, 0.0);
  DriveAudited(&p);
  const AuditSection& s = p.auditor->section();
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.every, 2);
  EXPECT_EQ(s.audits, 2u);  // t=2 and t=4
  EXPECT_EQ(s.digest_mismatches, 0u);  // WCC is integer-exact
  EXPECT_EQ(s.last_verified, 4);
  EXPECT_FALSE(s.divergence.found);
  ASSERT_EQ(s.digests.size(), 5u);  // t=0..4, in execution order
  for (size_t i = 0; i < s.digests.size(); ++i) {
    EXPECT_EQ(s.digests[i].first, static_cast<Timestamp>(i));
  }
  // Each audit's shadow store took its page file with it.
  EXPECT_TRUE(ShadowFiles("clean").empty());
}

TEST(DriftAuditorTest, ZeroCadenceNeverAudits) {
  AuditedPipeline p = MakeAudited("off", /*every=*/0, -1, -1, 0.0);
  DriveAudited(&p);
  EXPECT_EQ(p.auditor->section().audits, 0u);
  EXPECT_EQ(p.auditor->section().last_verified, -1);
  // Digests are still recorded: they come free from the live engine.
  EXPECT_EQ(p.auditor->section().digests.size(), 5u);
}

TEST(DriftAuditorTest, DetectsAndBisectsInjectedCorruption) {
  // Corrupt comp(2) by -7 during batch 3 via the engine's debug hook
  // (negative, so WCC's min keeps propagating it). The t=2 audit is
  // pre-corruption and verifies; the t=4 audit must detect, bisect the
  // live digest history against a clean incremental replay back to
  // batch 3 exactly, and name vertex 2 among the divergent set.
  AuditedPipeline p = MakeAudited("drift", /*every=*/2, /*corrupt_t=*/3,
                                  /*corrupt_vertex=*/2,
                                  /*corrupt_delta=*/-7.0);
  DriveAudited(&p);
  const AuditSection& s = p.auditor->section();
  EXPECT_EQ(s.audits, 2u);
  EXPECT_EQ(s.last_verified, 2);

  const AuditDivergence& d = s.divergence;
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.detected_at, 4);
  EXPECT_EQ(d.first_bad_batch, 3);
  EXPECT_GE(d.bisection_probes, 1);
  EXPECT_NE(d.expected_digest, d.actual_digest);
  ASSERT_FALSE(d.attrs.empty());
  EXPECT_EQ(d.attrs[0], "comp");
  EXPECT_GE(d.divergent_vertices, 1u);
  EXPECT_TRUE(std::find(d.vertices.begin(), d.vertices.end(), 2) !=
              d.vertices.end())
      << "corrupted vertex 2 missing from divergent sample";
  // Neither the audits' shadows nor the bisection's replay store leave
  // a page file behind.
  EXPECT_TRUE(ShadowFiles("drift").empty());
}

}  // namespace
}  // namespace itg
