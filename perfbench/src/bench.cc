#include "bench.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/statvfs.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>

namespace perfbench {

namespace fs = std::filesystem;

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"batch_ms_p50", "ms"},
      {"batch_ms_p90", "ms"},
      {"ops_per_s", "ops/s"},
      {"notify_ms_p50", "ms"},
      {"disk_bytes_per_op", "B/op"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"recompute_s", "s"},
      {"incr_vs_recompute", "ratio"},
      {"compiler.compile_ms", "ms"},
      {"storage.build_s", "s"},
      {"storage.apply_ms_p50", "ms"},
      {"storage.apply_ms_p90", "ms"},
      {"storage.apply_drift", "ratio"},
      {"storage.read_bytes_per_batch", "B"},
      {"storage.write_bytes_per_batch", "B"},
      {"storage.page_reads_per_batch", "count"},
      {"storage.pool_hit_rate", "ratio"},
      {"engine.incr_ms_p50", "ms"},
      {"engine.incr_ms_p90", "ms"},
      {"engine.oneshot_s", "s"},
      {"engine.supersteps_per_batch", "count"},
      {"engine.edges_scanned_per_batch", "count"},
      {"engine.windows_loaded_per_batch", "count"},
      {"engine.emissions_per_batch", "count"},
      {"engine.delta_walk_emissions_per_batch", "count"},
      {"engine.pruned_per_batch", "count"},
      {"engine.recomputed_vertices_per_batch", "count"},
      {"engine.frontier_per_batch", "count"},
      {"engine.tuples_pos_per_batch", "count"},
      {"engine.tuples_neg_per_batch", "count"},
      {"engine.walk_op_ms_per_batch", "ms"},
      {"thread_pool.busy_ms_per_batch", "ms"},
      {"thread_pool.utilization", "ratio"},
      {"thread_pool.steals_per_batch", "count"},
      {"thread_pool.tasks_per_batch", "count"},
      {"serve.notify_ms_p99", "ms"},
      {"serve.capacity_bps", "batches/s"},
      {"serve.ingest_call_ms_p50", "ms"},
      {"serve.ingest_call_ms_p99", "ms"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.apply_ms_p50", "ms"},
      {"serve.view_run_ms_p50", "ms"},
      {"serve.stream_flush_ms_p50", "ms"},
      {"serve.backpressure_stalls", "count"},
      {"serve.queue_depth_max", "count"},
      {"serve.view_pages_read_per_batch", "count"},
      {"serve.view_cpu_ms_per_batch", "ms"},
      {"protocol.serialize_us_p50", "us"},
      {"load.gen_late_ms_max", "ms"},
      {"load.achieved_rate_40", "batches/s"},
      {"load.achieved_rate_80", "batches/s"},
      {"load.achieved_rate_160", "batches/s"},
      {"load.achieved_rate_320", "batches/s"},
      {"load.achieved_rate_640", "batches/s"},
      {"storage.self_ms_per_batch", "ms"},
      {"engine.self_ms_per_batch", "ms"},
      {"serve.self_ms_per_batch", "ms"},
      {"protocol.self_ms_per_batch", "ms"},
      {"load.self_ms_per_batch", "ms"},
      {"trace.layer_sum_ms_per_batch", "ms"},
      {"trace.latency_ms_mean", "ms"},
      {"trace.batch_ms_p50", "ms"},
      {"trace.notify_ms_p50", "ms"},
      {"trace.spans", "count"},
  };
  return kMetrics;
}

double Results::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Results::Fail(uint64_t ops, const std::string& why) {
  failed_ += ops;
  errors_.push_back(why);
}

void Results::Error(const std::string& why) { errors_.push_back(why); }

namespace {

void AppendJsonNumber(double v, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  *out += buf;
}

}  // namespace

void PrintResults(const Options& options, const Results& results) {
  std::printf("# workload %s seed %" PRIu64 " (%s run)\n",
              options.workload.c_str(), options.seed,
              options.trace ? "traced" : "untraced");
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    std::printf("# %s\n", list == &EndToEndMetrics() ? "end-to-end" : "per-layer");
    for (const MetricDef& m : *list) {
      std::printf("%-40s %16.6f %s\n", m.name, results.Get(m.name), m.unit);
    }
  }
  for (const std::string& e : results.errors()) {
    std::printf("# check failed: %s\n", e.c_str());
  }
  std::string line = "{\"correct\": ";
  line += results.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(results.attempted());
  line += ", \"failed\": " + std::to_string(results.failed());
  line += ", \"metrics\": {";
  const auto& catalogue = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  bool first = true;
  for (const MetricDef& m : catalogue) {
    if (!first) line += ", ";
    first = false;
    line += "\"";
    line += m.name;
    line += "\": {\"value\": ";
    AppendJsonNumber(results.Get(m.name), &line);
    line += ", \"unit\": \"";
    line += m.unit;
    line += "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

uint64_t DirBytes(const std::string& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  uint64_t total = 0;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    std::error_code fec;
    if (it->is_regular_file(fec)) {
      const auto size = it->file_size(fec);
      if (!fec) total += size;
    }
  }
  return total;
}

uint64_t FreeBytes(const std::string& dir) {
  struct statvfs st {};
  if (statvfs(dir.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.f_bavail) * st.f_frsize;
}

itg::Status CheckFreeSpace(const std::string& dir, uint64_t need,
                           const std::string& what) {
  const uint64_t free_bytes = FreeBytes(dir);
  if (free_bytes < need) {
    return itg::Status::IOError(
        "refusing to run " + what + ": it needs about " +
        std::to_string(need >> 20) + " MiB of disk under " + dir +
        " but only " + std::to_string(free_bytes >> 20) + " MiB are free");
  }
  return itg::Status::OK();
}

void SettleDisk(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

itg::Status RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (ec || fs::exists(dir)) {
    return itg::Status::IOError("could not remove " + dir + ": " +
                                ec.message());
  }
  return itg::Status::OK();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

SelfTimes ComputeSelfTimes(
    const std::vector<itg::Tracer::CollectedEvent>& events,
    const std::set<std::string>& roots) {
  // Benchmark spans of one thread nest properly (RAII scopes), so a stack
  // walk over start-ordered spans finds each span's direct children.
  struct Node {
    const itg::Tracer::CollectedEvent* ev;
    uint64_t end;
    uint64_t child_nanos;
    bool counted;
  };
  std::map<int, std::vector<const itg::Tracer::CollectedEvent*>> by_thread;
  for (const auto& ev : events) {
    if (ev.phase == 'X' && ev.cat == kSpanCat) by_thread[ev.tid].push_back(&ev);
  }
  SelfTimes out;
  auto close = [&](const Node& n) {
    if (!n.counted) return;
    const std::string layer = n.ev->name.substr(0, n.ev->name.find('.'));
    const uint64_t self =
        n.ev->dur_nanos > n.child_nanos ? n.ev->dur_nanos - n.child_nanos : 0;
    out.self_ms[layer] += static_cast<double>(self) / 1e6;
    ++out.spans;
  };
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_nanos != b->ts_nanos ? a->ts_nanos < b->ts_nanos
                                        : a->dur_nanos > b->dur_nanos;
    });
    std::vector<Node> stack;
    for (const auto* ev : spans) {
      while (!stack.empty() && stack.back().end <= ev->ts_nanos) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_nanos += ev->dur_nanos;
      const bool counted =
          stack.empty() ? roots.count(ev->name) != 0 : stack.back().counted;
      stack.push_back({ev, ev->ts_nanos + ev->dur_nanos, 0, counted});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return out;
}

itg::Status WriteTrace(const Options& options) {
  std::error_code ec;
  fs::create_directories(options.trace_dir, ec);
  // One file per workload (the latest run), so repeated runs do not pile
  // up traces in the checkout.
  const std::string path =
      options.trace_dir + "/trace-" + options.workload + ".json";
  ITG_RETURN_IF_ERROR(itg::Tracer::WriteTo(path));
  std::printf("# trace written to %s\n", path.c_str());
  return itg::Status::OK();
}

}  // namespace perfbench
