#include "serve/standing_query.h"

#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "harness/audit.h"

namespace itg {
namespace serve {

StatusOr<std::unique_ptr<StandingQuery>> StandingQuery::Create(
    DynamicGraphStore* store, const StandingQueryOptions& options) {
  auto query = std::unique_ptr<StandingQuery>(new StandingQuery());
  query->options_ = options;
  query->store_ = store;
  query->budget_ = std::make_unique<MemoryBudget>(options.budget_bytes);
  query->resource_ctx_ = std::make_unique<ResourceContext>(
      "view." + options.name, options.registry);
  // Everything below — compile, the one-shot run, the registration
  // audit — executes as this view, so its construction cost
  // lands on resource.view.<name>.* (ParallelFor re-establishes the
  // context on pool workers).
  ResourceScope attribution(query->resource_ctx_.get());

  ITG_ASSIGN_OR_RETURN(query->program_, CompileProgram(options.source));

  EngineOptions eopt;
  eopt.fixed_supersteps = options.fixed_supersteps;
  eopt.record_history = true;  // standing views are incremental forever
  eopt.num_partitions = options.num_partitions;
  eopt.num_threads = options.num_threads;
  eopt.query_label = "serve:" + options.name;
  query->engine_ =
      std::make_unique<Engine>(store, query->program_.get(), eopt);
  query->audited_ = query->engine_->AuditedAttrs();

  // Admission-time memory accounting: attribute columns (current +
  // previous engine generations) and the previous-state mirror used for
  // ΔQ extraction. Estimated from the compiled program's attribute
  // widths — the engine only materializes its ColumnSet inside the first
  // run, and an over-budget view must be rejected without burning that
  // run.
  const size_t n = static_cast<size_t>(store->num_vertices());
  size_t column_bytes = 0;
  const int attr_count = static_cast<int>(query->program_->vertex_attrs.size());
  for (int attr = 0; attr < attr_count; ++attr) {
    column_bytes += n * static_cast<size_t>(query->program_->attr_width(attr)) *
                    sizeof(double);
  }
  size_t mirror_bytes = 0;
  for (int attr : query->audited_) {
    mirror_bytes += n * static_cast<size_t>(query->program_->attr_width(attr)) *
                    sizeof(double);
  }
  query->charged_bytes_ = 2 * column_bytes + mirror_bytes;
  ITG_RETURN_IF_ERROR(query->budget_->Charge(query->charged_bytes_));

  query->base_t_ = store->latest();
  ITG_RETURN_IF_ERROR(query->engine_->RunOneShot(query->base_t_));
  query->runs_ = 1;
  query->t_ = 0;
  query->digest_ = query->engine_->last_stats().state_digest;
  query->last_supersteps_ = query->engine_->last_stats().supersteps;
  query->last_seconds_ = query->engine_->last_stats().seconds;
  query->MirrorState();

  // On-register consistency check: the view's fresh one-shot state must
  // match a shadow replay over the same materialized snapshot — the same
  // audit/digest machinery the drift auditor applies mid-stream.
  if (options.verify_on_register) {
    DriftAuditor::Options aopt;
    aopt.bisect = false;
    DriftAuditor auditor(store, query->engine_.get(), options.source,
                         options.scratch_path, aopt);
    auditor.OnRun(query->base_t_);
    ITG_RETURN_IF_ERROR(auditor.AuditNow(query->base_t_));
    if (auditor.section().divergence.found) {
      return Status::Internal("registration audit diverged for view '" +
                              options.name + "'");
    }
  }
  return query;
}

StandingQuery::~StandingQuery() {
  if (budget_ != nullptr) budget_->Release(charged_bytes_);
}

void StandingQuery::MirrorState() {
  const ColumnSet& cols = engine_->columns();
  prev_.resize(audited_.size());
  for (size_t ai = 0; ai < audited_.size(); ++ai) {
    prev_[ai] = cols.Column(audited_[ai]);
  }
}

Status StandingQuery::ApplyBatch(Response* out) {
  // Maintenance runs as this view: incremental supersteps, ΔQ
  // extraction, and any buffer-pool misses they trigger bill to
  // resource.view.<name>.*.
  ResourceScope attribution(resource_ctx_.get());
  const Timestamp ts = store_->latest();
  if (ts != base_t_ + t_ + 1) {
    return Status::Internal("view '" + options_.name +
                            "' drifted off its delta chain");
  }
  ITG_RETURN_IF_ERROR(engine_->RunIncremental(ts));
  t_ = ts - base_t_;
  ++runs_;
  digest_ = engine_->last_stats().state_digest;
  last_supersteps_ = engine_->last_stats().supersteps;
  last_seconds_ = engine_->last_stats().seconds;

  out->type = ResponseType::kDelta;
  out->query = options_.name;
  out->timestamp = t_;
  out->batch_ops = store_->BatchSize(ts);
  out->supersteps = last_supersteps_;
  out->seconds = last_seconds_;
  out->digest = digest_;

  // ΔQ extraction: after-images of every audited cell whose bit pattern
  // moved since the previous snapshot. Bitwise comparison (not ==) so
  // -0.0 vs +0.0 and NaN transitions stream exactly like the digest
  // sees them.
  const ColumnSet& cols = engine_->columns();
  out->changes.clear();
  for (size_t ai = 0; ai < audited_.size(); ++ai) {
    const int attr = audited_[ai];
    const int width = cols.width(attr);
    const std::vector<double>& cur = cols.Column(attr);
    const std::vector<double>& prev = prev_[ai];
    AttrCells cells;
    cells.name = program_->vertex_attrs[attr].name;
    cells.salt = attr;
    cells.width = width;
    for (VertexId v = 0; v < cols.num_vertices(); ++v) {
      const size_t off = static_cast<size_t>(v) * width;
      if (std::memcmp(cur.data() + off, prev.data() + off,
                      sizeof(double) * width) == 0) {
        continue;
      }
      cells.vertices.push_back(v);
      cells.values.insert(cells.values.end(), cur.begin() + off,
                          cur.begin() + off + width);
    }
    if (!cells.vertices.empty()) out->changes.push_back(std::move(cells));
  }
  MirrorState();
  return Status::OK();
}

void StandingQuery::FillSnapshot(Response* out) const {
  out->type = ResponseType::kSnapshot;
  out->query = options_.name;
  out->timestamp = t_;
  out->digest = digest_;
  const ColumnSet& cols = engine_->columns();
  out->num_vertices = cols.num_vertices();
  out->attrs.clear();
  for (int attr : audited_) {
    AttrColumn col;
    col.name = program_->vertex_attrs[attr].name;
    col.salt = attr;
    col.width = cols.width(attr);
    col.values = cols.Column(attr);
    out->attrs.push_back(std::move(col));
  }
}

void StandingQuery::FillRow(QueryRow* row) const {
  row->query = options_.name;
  row->timestamp = t_;
  row->digest = digest_;
  row->runs = runs_;
  row->supersteps = last_supersteps_;
  row->last_seconds = last_seconds_;
  row->budget_bytes = budget_->budget_bytes();
  row->budget_used_bytes = budget_->used_bytes();
  row->lag_batches = pipeline_.lag_batches_now;
  row->lag_us = pipeline_.lag_us_now;
}

std::vector<std::string> StandingQuery::MetricSeriesNames() const {
  const std::string& n = options_.name;
  std::vector<std::string> names = {
      "serve.delta_latency_us." + n,
      "serve.stage_latency_us.view_run." + n,
      "serve.stage_latency_us.stream_flush." + n,
      "serve.view_lag_batches." + n,
      "serve.view_lag_us." + n,
      "serve.budget_used_bytes." + n,
  };
  // The resource.view.<name>.* attribution counters retire with the
  // view too (they are per-principal, and the principal is gone).
  for (std::string& s : ResourceContext::SeriesNamesFor("view." + n)) {
    names.push_back(std::move(s));
  }
  return names;
}

}  // namespace serve
}  // namespace itg
