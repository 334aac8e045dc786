#include "harness/audit.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>

#include "common/flight_recorder.h"
#include "common/live_status.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "compiler/compiled_program.h"

namespace itg {

DriftAuditor::DriftAuditor(DynamicGraphStore* store, Engine* engine,
                           std::string program_source,
                           std::string scratch_path, const Options& options)
    : store_(store),
      engine_(engine),
      source_(std::move(program_source)),
      scratch_path_(std::move(scratch_path)),
      options_(options) {
  section_.enabled = true;
  section_.every = options_.every;
  section_.tolerance = options_.tolerance;
}

void DriftAuditor::OnRun(Timestamp t) {
  section_.digests.emplace_back(t, engine_->last_stats().state_digest);
}

Status DriftAuditor::MaybeAudit(Timestamp t) {
  if (options_.every <= 0 || t <= 0 || t % options_.every != 0) {
    return Status::OK();
  }
  return AuditNow(t);
}

StatusOr<std::unique_ptr<Engine>> DriftAuditor::MakeShadow(
    Timestamp t, bool record_history,
    std::unique_ptr<DynamicGraphStore>* store_out) {
  if (shadow_program_ == nullptr) {
    ITG_ASSIGN_OR_RETURN(shadow_program_, CompileProgram(source_));
  }
  std::vector<Edge> edges;
  ITG_RETURN_IF_ERROR(store_->MaterializeEdges(store_->pool(), t, &edges));
  ITG_ASSIGN_OR_RETURN(
      *store_out,
      DynamicGraphStore::Create(
          scratch_path_ + ".shadow" + std::to_string(shadow_counter_++),
          store_->num_vertices(), std::move(edges), options_.store,
          &GlobalMetrics()));
  // The store keeps its page file open, so unlinking it now frees it
  // when the store is dropped, on every exit path.
  std::error_code ec;
  std::filesystem::remove((*store_out)->page_store()->path(), ec);
  EngineOptions opts = engine_->options();
  opts.record_history = record_history;
  // The shadow must run the *intended* computation: no lineage overhead
  // and, crucially, none of the live engine's debug/corruption hooks.
  opts.lineage = false;
  opts.debug_corrupt_timestamp = -1;
  opts.debug_corrupt_vertex = -1;
  opts.debug_corrupt_delta = 0.0;
  opts.debug_stall_first_superstep_ms = 0;
  return std::make_unique<Engine>(store_out->get(), shadow_program_.get(),
                                  opts);
}

void DriftAuditor::DiffColumns(const Engine& shadow, AuditDivergence* out,
                               bool* within_tolerance) const {
  *within_tolerance = true;
  std::vector<std::pair<std::string, uint64_t>> per_attr;
  engine_->ComputeStateDigest(&per_attr);  // names, in AuditedAttrs order
  const std::vector<int> attrs = engine_->AuditedAttrs();
  const ColumnSet& live = engine_->columns();
  const ColumnSet& ref = shadow.columns();
  std::vector<char> vertex_flagged(
      static_cast<size_t>(live.num_vertices()), 0);
  for (size_t ai = 0; ai < attrs.size(); ++ai) {
    const int attr = attrs[ai];
    const int width = live.width(attr);
    bool attr_diverged = false;
    for (VertexId v = 0; v < live.num_vertices(); ++v) {
      const double* a = live.Cell(attr, v);
      const double* b = ref.Cell(attr, v);
      for (int i = 0; i < width; ++i) {
        if (a[i] == b[i]) continue;
        if (std::abs(a[i] - b[i]) <= options_.tolerance) continue;
        *within_tolerance = false;
        attr_diverged = true;
        if (!vertex_flagged[static_cast<size_t>(v)]) {
          vertex_flagged[static_cast<size_t>(v)] = 1;
          ++out->divergent_vertices;
          if (out->vertices.size() < options_.max_divergent_vertices) {
            out->vertices.push_back(v);
          }
        }
        break;
      }
    }
    if (attr_diverged && ai < per_attr.size()) {
      out->attrs.push_back(per_attr[ai].first);
    }
  }
}

Status DriftAuditor::Bisect(Timestamp t, AuditDivergence* out) {
  // One clean forward replay of the whole incremental chain. Both sides
  // are incremental runs with identical accumulation order, so the
  // per-timestamp digests are bit-exact against an uncorrupted live run
  // for every program — floats included.
  std::unique_ptr<DynamicGraphStore> clean_store;
  ITG_ASSIGN_OR_RETURN(
      auto clean, MakeShadow(0, /*record_history=*/true, &clean_store));
  std::vector<uint64_t> clean_digest(static_cast<size_t>(t) + 1, 0);
  ITG_RETURN_IF_ERROR(clean->RunOneShot(0));
  clean_digest[0] = clean->last_stats().state_digest;
  for (Timestamp i = 1; i <= t; ++i) {
    std::vector<EdgeDelta> batch;
    ITG_RETURN_IF_ERROR(store_->ScanDeltas(
        store_->pool(), i, Direction::kOut,
        [&](Edge e, Multiplicity m) { batch.push_back({e, m}); }));
    ITG_ASSIGN_OR_RETURN(Timestamp applied,
                         clean_store->ApplyMutations(batch));
    ITG_CHECK(applied == i) << "replay drifted off the delta chain";
    ITG_RETURN_IF_ERROR(clean->RunIncremental(i));
    clean_digest[static_cast<size_t>(i)] = clean->last_stats().state_digest;
  }

  // The live digest history, as recorded by OnRun after every run.
  std::vector<uint64_t> live(static_cast<size_t>(t) + 1, 0);
  std::vector<char> have(static_cast<size_t>(t) + 1, 0);
  for (const auto& [ts, digest] : section_.digests) {
    if (ts >= 0 && ts <= t) {
      live[static_cast<size_t>(ts)] = digest;
      have[static_cast<size_t>(ts)] = 1;
    }
  }
  auto differs = [&](Timestamp i) {
    const auto idx = static_cast<size_t>(i);
    return have[idx] != 0 && clean_digest[idx] != live[idx];
  };

  // Binary-search the first differing timestamp in (last_verified, t].
  // Divergence persists once introduced under the corruption model, so
  // the predicate is monotone; verify the boundary anyway and fall back
  // to a linear scan if the history turned out non-monotone.
  int probes = 0;
  Timestamp lo = std::max<Timestamp>(section_.last_verified + 1, 1);
  Timestamp hi = t;
  while (lo < hi) {
    const Timestamp mid = lo + (hi - lo) / 2;
    ++probes;
    if (differs(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  ++probes;
  if (!differs(lo) || (lo > 1 && differs(lo - 1))) {
    lo = -1;
    for (Timestamp i = 1; i <= t; ++i) {
      ++probes;
      if (differs(i)) {
        lo = i;
        break;
      }
    }
  }
  // lo == -1 means every recorded live digest matches the clean replay:
  // the incremental chain is self-consistent and the disagreement with
  // the one-shot shadow is systematic, not introduced by one batch.
  out->first_bad_batch = lo;
  out->bisection_probes = probes;

  // Exact divergent set at t from the clean replay's final state —
  // bit-exact, so it supersedes the tolerance-based sample when it
  // localizes anything.
  AuditDivergence exact;
  const ColumnSet& live_cols = engine_->columns();
  const ColumnSet& clean_cols = clean->columns();
  std::vector<std::pair<std::string, uint64_t>> per_attr;
  engine_->ComputeStateDigest(&per_attr);
  const std::vector<int> attrs = engine_->AuditedAttrs();
  std::vector<char> vertex_flagged(
      static_cast<size_t>(live_cols.num_vertices()), 0);
  for (size_t ai = 0; ai < attrs.size(); ++ai) {
    const int attr = attrs[ai];
    bool attr_diverged = false;
    for (VertexId v = 0; v < live_cols.num_vertices(); ++v) {
      if (!ColumnSet::CellDiffers(live_cols, clean_cols, attr, v)) continue;
      attr_diverged = true;
      if (!vertex_flagged[static_cast<size_t>(v)]) {
        vertex_flagged[static_cast<size_t>(v)] = 1;
        ++exact.divergent_vertices;
        if (exact.vertices.size() < options_.max_divergent_vertices) {
          exact.vertices.push_back(v);
        }
      }
    }
    if (attr_diverged && ai < per_attr.size()) {
      exact.attrs.push_back(per_attr[ai].first);
    }
  }
  if (exact.divergent_vertices > 0) {
    out->attrs = std::move(exact.attrs);
    out->vertices = std::move(exact.vertices);
    out->divergent_vertices = exact.divergent_vertices;
  }
  return Status::OK();
}

Status DriftAuditor::AuditNow(Timestamp t) {
  ++section_.audits;
  std::unique_ptr<DynamicGraphStore> shadow_store;
  ITG_ASSIGN_OR_RETURN(
      auto shadow, MakeShadow(t, /*record_history=*/false, &shadow_store));
  ITG_RETURN_IF_ERROR(shadow->RunOneShot(0));
  const uint64_t expected = shadow->last_stats().state_digest;
  const uint64_t actual = engine_->ComputeStateDigest();
  if (expected == actual) {
    section_.last_verified = t;
    RecordVerdict(true);
    return Status::OK();
  }

  // Digest mismatch: the tolerance column diff is the authority —
  // floating-point programs legitimately differ in the last bits.
  AuditDivergence d;
  bool within_tolerance = false;
  DiffColumns(*shadow, &d, &within_tolerance);
  if (within_tolerance) {
    ++section_.digest_mismatches;
    section_.last_verified = t;
    RecordVerdict(true);
    return Status::OK();
  }

  d.found = true;
  d.detected_at = t;
  d.expected_digest = expected;
  d.actual_digest = actual;
  if (options_.bisect) {
    ITG_RETURN_IF_ERROR(Bisect(t, &d));
  }
  section_.divergence = d;
  ITG_LOG(Warn) << "drift audit: divergence at t=" << t
                << " first_bad_batch=" << d.first_bad_batch
                << " divergent_vertices=" << d.divergent_vertices;
  FlightRecorder::Global().DumpToLog("drift-audit divergence",
                                     /*force=*/true);
  RecordVerdict(false);
  return Status::OK();
}

void DriftAuditor::RecordVerdict(bool ok) {
  GlobalLiveStatus().RecordAudit(ok);
  MetricsRegistry& registry = GlobalMetrics().registry();
  registry.counter("audit.audits_total")->Increment();
  if (!ok) registry.counter("audit.failures")->Increment();
}

}  // namespace itg
