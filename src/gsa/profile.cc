#include "gsa/profile.h"

#include <cinttypes>
#include <cstdio>

namespace itg::gsa {

const char* SuperstepModeName(SuperstepMode mode) {
  switch (mode) {
    case SuperstepMode::kOneShot:
      return "oneshot";
    case SuperstepMode::kDelta:
      return "delta";
    case SuperstepMode::kRecompute:
      return "recompute";
  }
  return "?";
}

void ExecutionProfile::RegisterOp(int id, std::string op,
                                  std::string detail) {
  Entry& e = ops_[id];
  e.op = std::move(op);
  e.detail = std::move(detail);
}

OperatorCounters& ExecutionProfile::Op(int id) {
  return ops_[id].counters;
}

const OperatorCounters* ExecutionProfile::Find(int id) const {
  auto it = ops_.find(id);
  return it == ops_.end() ? nullptr : &it->second.counters;
}

void ExecutionProfile::ResetCounters() {
  for (auto& [id, entry] : ops_) entry.counters = OperatorCounters{};
  supersteps_.clear();
}

void ExecutionProfile::Merge(const ExecutionProfile& o) {
  for (const auto& [id, entry] : o.ops_) {
    Entry& mine = ops_[id];
    if (mine.op.empty()) {
      mine.op = entry.op;
      mine.detail = entry.detail;
    }
    mine.counters.Merge(entry.counters);
  }
  supersteps_.insert(supersteps_.end(), o.supersteps_.begin(),
                     o.supersteps_.end());
}

bool ExecutionProfile::SameWork(const ExecutionProfile& o) const {
  // Ids must match exactly; zero-count entries still participate so a
  // silently-unrecorded operator is a difference, not a pass.
  if (ops_.size() != o.ops_.size()) return false;
  auto a = ops_.begin();
  auto b = o.ops_.begin();
  for (; a != ops_.end(); ++a, ++b) {
    if (a->first != b->first) return false;
    if (!a->second.counters.SameWork(b->second.counters)) return false;
  }
  if (supersteps_.size() != o.supersteps_.size()) return false;
  for (size_t i = 0; i < supersteps_.size(); ++i) {
    if (!supersteps_[i].SameWork(o.supersteps_[i])) return false;
  }
  return true;
}

std::vector<uint64_t> ExecutionProfile::WorkFingerprint() const {
  std::vector<uint64_t> out;
  out.reserve(ops_.size() * 9 + supersteps_.size() * 9);
  for (const auto& [id, entry] : ops_) {
    const OperatorCounters& c = entry.counters;
    out.push_back(static_cast<uint64_t>(id));
    out.push_back(c.in_pos);
    out.push_back(c.in_neg);
    out.push_back(c.out_pos);
    out.push_back(c.out_neg);
    out.push_back(c.pruned);
    out.push_back(c.windows);
    out.push_back(c.edges);
    out.push_back(c.evals);
  }
  for (const SuperstepProfile& s : supersteps_) {
    out.push_back(static_cast<uint64_t>(s.superstep));
    out.push_back(static_cast<uint64_t>(s.mode));
    out.push_back(s.delta_cost);
    out.push_back(s.recompute_cost);
    out.push_back(s.active_vertices);
    out.push_back(s.frontier);
    out.push_back(s.emissions);
    out.push_back(s.windows);
    out.push_back(s.edges);
    for (uint64_t b : s.shuffle_bytes) out.push_back(b);
  }
  return out;
}

std::string FormatSuperstepTimeline(const ExecutionProfile& profile) {
  std::string out =
      "  ss  mode       active  frontier  emissions     edges  "
      "est_delta  est_recompute   wall_ms\n";
  char line[160];
  for (const SuperstepProfile& s : profile.supersteps()) {
    std::snprintf(line, sizeof(line),
                  "%4d  %-9s %7" PRIu64 " %9" PRIu64 " %10" PRIu64
                  " %9" PRIu64 " %10" PRIu64 " %14" PRIu64 " %9.3f\n",
                  s.superstep, SuperstepModeName(s.mode), s.active_vertices,
                  s.frontier, s.emissions, s.edges, s.delta_cost,
                  s.recompute_cost, static_cast<double>(s.wall_nanos) / 1e6);
    out += line;
  }
  return out;
}

}  // namespace itg::gsa
