// incr-qpr / incr-tc: the paper's batch protocol (§6.1) driven through the
// library's public API, with every layer call timed from outside.
//
//   setup   CompileProgram + DynamicGraphStore::Create + RunOneShot(0),
//           repeated a few times (setup_s is their median)
//   batch   ApplyMutations + RunIncremental, kBatches times; the batches
//           are generated before the first one is timed
//   gate    every kCheckpointEvery batches: MaterializeEdges of the latest
//           snapshot into a fresh store, RunOneShot there, and the
//           incremental state must equal it exactly (both programs are
//           integer-valued)
#include <algorithm>
#include <filesystem>
#include <memory>

#include "algos/programs.h"
#include "bench.h"
#include "common/digest.h"
#include "common/metrics.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "gen/rmat.h"
#include "gen/workload.h"
#include "storage/csr.h"
#include "storage/graph_store.h"

namespace perfbench {
namespace {

using itg::DynamicGraphStore;
using itg::Edge;
using itg::EdgeDelta;
using itg::Engine;

constexpr int kScale = 17;             // |V| = 8192, |E| = 131072
constexpr int kBatches = 100;
constexpr size_t kBatchOps = 1000;
constexpr double kInsertRatio = 0.75;  // LinkBench-derived 75:25 mix
constexpr int kCheckpointEvery = 20;   // 5 recompute checkpoints
/// Fresh one-shots per checkpoint (recompute_s is the median of all):
/// incr-qpr's takes a tenth of a second, so one sample is noisy; incr-tc's
/// takes over a second.
constexpr int kRecomputesQpr = 3;
constexpr int kRecomputesTc = 1;
/// Set-ups per run (setup_s is their median); incr-tc's one-shot costs
/// about a second, incr-qpr's a tenth of that.
constexpr int kSetupsQpr = 7;
constexpr int kSetupsTc = 3;
/// Engine pool size: two worker threads plus the calling thread.
constexpr int kThreads = 3;
/// Disk the run may need per ingested op, with margin (incr-qpr writes
/// about 6.5 KB of vertex history per op).
constexpr uint64_t kDiskPerOpEstimate = 16 << 10;

struct Instance {
  std::unique_ptr<itg::CompiledProgram> program;
  std::unique_ptr<DynamicGraphStore> store;
  std::unique_ptr<Engine> engine;
  double compile_s = 0;
  double build_s = 0;
  double oneshot_s = 0;

  /// Destroys in dependency order (the engine points into store and
  /// program), which implicit member-wise assignment would not.
  void Reset() {
    engine.reset();
    store.reset();
    program.reset();
  }
};

/// Builds program + store + engine over `edges` under `prefix` and runs
/// the one-shot at t=0, timing each layer call.
itg::StatusOr<Instance> BuildAndRunOneShot(
    const std::string& source, int supersteps, itg::VertexId num_vertices,
    std::vector<Edge> edges, const std::string& prefix, bool record_history,
    itg::Metrics* metrics) {
  Instance inst;
  auto t0 = Clock::now();
  {
    itg::TraceSpan span("compiler.CompileProgram", kSpanCat, -1);
    ITG_ASSIGN_OR_RETURN(inst.program, itg::CompileProgram(source));
  }
  auto t1 = Clock::now();
  {
    itg::TraceSpan span("storage.Create", kSpanCat, -1);
    ITG_ASSIGN_OR_RETURN(
        inst.store, DynamicGraphStore::Create(prefix, num_vertices,
                                              std::move(edges),
                                              DynamicGraphStore::Options{},
                                              metrics));
  }
  auto t2 = Clock::now();
  itg::EngineOptions eopt;
  eopt.fixed_supersteps = supersteps;
  eopt.record_history = record_history;
  eopt.num_threads = kThreads;
  inst.engine = std::make_unique<Engine>(inst.store.get(),
                                         inst.program.get(), eopt);
  {
    itg::TraceSpan span("engine.RunOneShot", kSpanCat, -1);
    ITG_RETURN_IF_ERROR(inst.engine->RunOneShot(0));
  }
  auto t3 = Clock::now();
  inst.compile_s = SecondsBetween(t0, t1);
  inst.build_s = SecondsBetween(t1, t2);
  inst.oneshot_s = SecondsBetween(t2, t3);
  return inst;
}

/// The query answer as one 64-bit value: the engine's audited-attribute
/// state digest combined with every global accumulator (triangle counting
/// answers in a global, which the attribute digest does not cover).
uint64_t AnswerDigest(const Engine& engine, const itg::CompiledProgram& p) {
  uint64_t combined = engine.ComputeStateDigest();
  for (size_t g = 0; g < p.globals.size(); ++g) {
    const std::vector<double>& v = engine.GlobalValue(static_cast<int>(g));
    combined = itg::CombineColumnDigest(
        combined, static_cast<int>(1000 + g),
        itg::ColumnDigest(v.data(), 1, static_cast<int>(v.size())));
  }
  return itg::Mix64(combined);
}

/// Sums of the per-batch counters the program exposes.
struct Counters {
  double supersteps = 0, edges = 0, windows = 0, emissions = 0,
         delta_emissions = 0, pruned = 0, recomputed = 0, frontier = 0,
         tuples_pos = 0, tuples_neg = 0, walk_ms = 0, busy_ms = 0,
         steals = 0, tasks = 0, thread_wall_ms = 0;
  double read_bytes = 0, write_bytes = 0, page_reads = 0, hits = 0,
         misses = 0;

  void AddRun(const Engine& engine, double incr_ms) {
    const itg::RunStats& s = engine.last_stats();
    supersteps += s.supersteps;
    edges += static_cast<double>(s.edges_scanned);
    windows += static_cast<double>(s.windows_loaded);
    emissions += static_cast<double>(s.emissions_applied);
    delta_emissions += static_cast<double>(s.delta_walk_emissions);
    pruned += static_cast<double>(s.delta_walks_pruned);
    recomputed += static_cast<double>(s.recomputed_vertices);
    busy_ms += static_cast<double>(s.busy_nanos) / 1e6;
    steals += static_cast<double>(s.steals);
    tasks += static_cast<double>(s.parallel_tasks);
    thread_wall_ms += incr_ms * s.threads;
    const itg::gsa::ExecutionProfile& prof = engine.last_profile();
    for (const auto& [id, entry] : prof.ops()) {
      tuples_pos += static_cast<double>(entry.counters.out_pos);
      tuples_neg += static_cast<double>(entry.counters.out_neg);
      if (entry.op == "Walk") {
        walk_ms += static_cast<double>(entry.counters.wall_nanos) / 1e6;
      }
    }
    for (const auto& step : prof.supersteps()) {
      frontier += static_cast<double>(step.frontier);
    }
  }
};

struct StoreCounters {
  uint64_t read_bytes, write_bytes, page_reads, hits, misses;
  static StoreCounters Read(itg::Metrics& m) {
    return {m.read_bytes(), m.write_bytes(), m.page_reads(),
            m.registry().counter("buffer_pool.hits")->value(),
            m.registry().counter("buffer_pool.misses")->value()};
  }
};

/// The workload body; store files go under `dir`, which the caller
/// creates empty and removes afterwards.
void RunIncr(const Options& options, const std::string& dir,
             Results* results) {
  const bool tc = options.workload == "incr-tc";
  const std::string name = tc ? "tc" : "qpr";
  std::string source;
  int supersteps = -1;
  itg::NamedProgram(name, &source, &supersteps);

  const uint64_t need = kDiskPerOpEstimate * kBatches * kBatchOps;
  if (auto s = CheckFreeSpace(dir, need, options.workload); !s.ok()) {
    return results->Error(s.ToString());
  }

  SettleDisk(dir);

  // ---- inputs: graph and every mutation batch, generated up front -------
  itg::RmatOptions ropt;
  ropt.seed = options.seed;
  const itg::VertexId num_vertices = itg::RmatVertices(kScale);
  itg::MutationWorkload gen(itg::GenerateRmat(kScale, ropt), 0.9,
                            options.seed, /*canonical=*/tc);
  const std::vector<Edge> g0 = tc ? itg::SymmetrizeEdges(gen.initial_edges())
                                  : gen.initial_edges();
  std::vector<std::vector<EdgeDelta>> batches(kBatches);
  for (auto& stored : batches) {
    for (const EdgeDelta& d : gen.NextBatch(kBatchOps, kInsertRatio)) {
      stored.push_back(d);
      if (tc) stored.push_back({{d.edge.dst, d.edge.src}, d.mult});
    }
  }

  // Ops as ingested: incr-tc stores each undirected op in both directions.
  auto logical_ops = [&](int i) -> uint64_t {
    return batches[static_cast<size_t>(i)].size() / (tc ? 2 : 1);
  };

  // ---- setup ------------------------------------------------------------
  itg::Metrics store_metrics;
  std::vector<double> setup_s, compile_ms, build_s, oneshot_s;
  Instance inst;
  for (int k = 0; k < (tc ? kSetupsTc : kSetupsQpr); ++k) {
    if (inst.store != nullptr) {
      inst.Reset();
      if (auto s = RemoveTree(dir); !s.ok()) return results->Error(s.ToString());
      std::filesystem::create_directories(dir);
    }
    itg::TraceSpan setup_span("bench.setup", kSpanCat, k);
    auto inst_or = BuildAndRunOneShot(source, supersteps, num_vertices, g0,
                                      dir + "/store", true, &store_metrics);
    if (!inst_or.ok()) return results->Error(inst_or.status().ToString());
    inst = std::move(inst_or).value();
    setup_s.push_back(inst.compile_s + inst.build_s + inst.oneshot_s);
    compile_ms.push_back(inst.compile_s * 1e3);
    build_s.push_back(inst.build_s);
    oneshot_s.push_back(inst.oneshot_s);
  }
  Engine& engine = *inst.engine;
  const uint64_t disk_after_setup = DirBytes(dir);

  // ---- batches ------------------------------------------------------------
  std::vector<double> batch_ms, apply_ms, incr_ms, recompute_s;
  Counters c;
  double handover_ms_max = 0;
  int unchecked_from = 0;  // first batch no checkpoint has covered yet
  bool broken = false;
  Clock::time_point prev_end{};
  for (int i = 0; i < kBatches && !broken; ++i) {
    const uint64_t ops = logical_ops(i);
    results->Attempt(ops);
    if (options.inject_corruption && !tc && i + 1 == kCheckpointEvery) {
      // Corrupt the state the batch leaves behind (first audited
      // attribute of vertex 0) right before the first checkpoint.
      itg::EngineOptions* eo = engine.mutable_options();
      eo->debug_corrupt_timestamp = inst.store->latest() + 1;
      eo->debug_corrupt_vertex = 0;
      eo->debug_corrupt_delta = 1.0;
    }
    const StoreCounters before = StoreCounters::Read(store_metrics);
    const auto t0 = Clock::now();
    if (i > 0 && i % kCheckpointEvery != 0) {
      handover_ms_max = std::max(handover_ms_max, MillisBetween(prev_end, t0));
    }
    itg::Status status;
    Clock::time_point t1, t2;
    {
      itg::TraceSpan batch_span("bench.batch", kSpanCat, i);
      {
        itg::TraceSpan span("storage.ApplyMutations", kSpanCat, i);
        auto ts = inst.store->ApplyMutations(batches[static_cast<size_t>(i)]);
        status = ts.status();
      }
      t1 = Clock::now();
      if (status.ok()) {
        itg::TraceSpan span("engine.RunIncremental", kSpanCat, i);
        status = engine.RunIncremental(inst.store->latest());
      }
      t2 = Clock::now();
    }
    prev_end = t2;
    if (!status.ok()) {
      // The engine cannot continue past a failed batch: this batch and
      // every remaining one count as failed.
      uint64_t lost = 0;
      for (int j = i; j < kBatches; ++j) {
        lost += logical_ops(j);
      }
      results->Attempt(lost - ops);
      results->Fail(lost, "batch " + std::to_string(i) + ": " +
                              status.ToString());
      broken = true;
      break;
    }
    const StoreCounters after = StoreCounters::Read(store_metrics);
    apply_ms.push_back(MillisBetween(t0, t1));
    incr_ms.push_back(MillisBetween(t1, t2));
    batch_ms.push_back(MillisBetween(t0, t2));
    c.AddRun(engine, incr_ms.back());
    c.read_bytes += static_cast<double>(after.read_bytes - before.read_bytes);
    c.write_bytes += static_cast<double>(after.write_bytes - before.write_bytes);
    c.page_reads += static_cast<double>(after.page_reads - before.page_reads);
    c.hits += static_cast<double>(after.hits - before.hits);
    c.misses += static_cast<double>(after.misses - before.misses);

    if ((i + 1) % kCheckpointEvery != 0) continue;
    // ---- gate: fresh recompute on the current snapshot ----------------
    std::vector<Edge> edges;
    {
      itg::TraceSpan span("storage.MaterializeEdges", kSpanCat, i);
      status = inst.store->MaterializeEdges(inst.store->pool(),
                                            inst.store->latest(), &edges);
    }
    uint64_t unchecked_ops = 0;
    for (int j = unchecked_from; j <= i; ++j) {
      unchecked_ops += logical_ops(j);
    }
    bool mismatch = false;
    for (int r = 0; r < (tc ? kRecomputesTc : kRecomputesQpr) && status.ok();
         ++r) {
      {
        itg::Metrics fresh_metrics;
        auto fresh = BuildAndRunOneShot(source, supersteps, num_vertices,
                                        edges, dir + "/fresh", false,
                                        &fresh_metrics);
        status = fresh.status();
        if (fresh.ok()) {
          recompute_s.push_back(fresh->oneshot_s);
          compile_ms.push_back(fresh->compile_s * 1e3);
          oneshot_s.push_back(fresh->oneshot_s);
          mismatch |= AnswerDigest(*fresh->engine, *fresh->program) !=
                      AnswerDigest(engine, *inst.program);
        }
      }
      if (auto s = RemoveTree(dir + "/fresh"); !s.ok()) results->Error(s.ToString());
    }
    if (!status.ok() || mismatch) {
      results->Fail(unchecked_ops,
                    "batch " + std::to_string(i) + ": " +
                        (status.ok() ? "incremental answer differs from a "
                                       "fresh recompute"
                                     : "recompute failed: " + status.ToString()));
    }
    unchecked_from = i + 1;
  }

  // The caller reclaims the store files once this has been read.
  const uint64_t disk_end = DirBytes(dir);
  const double total_ops = static_cast<double>(kBatches * kBatchOps);
  if (broken || batch_ms.empty()) return;

  // ---- end-to-end -----------------------------------------------------------
  const double nb = static_cast<double>(batch_ms.size());
  double batch_s_total = 0;
  for (double ms : batch_ms) batch_s_total += ms / 1e3;
  const double p50 = Percentile(batch_ms, 50);
  const double rec = Median(recompute_s);
  results->Set("setup_s", Median(setup_s));
  results->Set("batch_ms_p50", p50);
  results->Set("batch_ms_p90", Percentile(batch_ms, 90));
  results->Set("ops_per_s", total_ops / batch_s_total);
  results->Set("recompute_s", rec);
  results->Set("incr_vs_recompute", rec > 0 ? p50 / 1e3 / rec : 0);
  // Closed loop: each batch is handed over the moment the previous one
  // finished, so its notify latency is its batch latency.
  results->Set("notify_ms_p50", p50);
  results->Set("disk_bytes_per_op",
               static_cast<double>(disk_end - disk_after_setup) / total_ops);

  // ---- per layer --------------------------------------------------------------
  const size_t tenth = std::max<size_t>(1, apply_ms.size() / 10);
  const double first = Median({apply_ms.begin(), apply_ms.begin() + tenth});
  const double last = Median({apply_ms.end() - tenth, apply_ms.end()});
  results->Set("compiler.compile_ms", Median(compile_ms));
  results->Set("storage.build_s", Median(build_s));
  results->Set("storage.apply_ms_p50", Percentile(apply_ms, 50));
  results->Set("storage.apply_ms_p90", Percentile(apply_ms, 90));
  results->Set("storage.apply_drift", first > 0 ? last / first : 0);
  results->Set("storage.read_bytes_per_batch", c.read_bytes / nb);
  results->Set("storage.write_bytes_per_batch", c.write_bytes / nb);
  results->Set("storage.page_reads_per_batch", c.page_reads / nb);
  results->Set("storage.pool_hit_rate",
               c.hits + c.misses > 0 ? c.hits / (c.hits + c.misses) : 0);
  results->Set("engine.incr_ms_p50", Percentile(incr_ms, 50));
  results->Set("engine.incr_ms_p90", Percentile(incr_ms, 90));
  results->Set("engine.oneshot_s", Median(oneshot_s));
  results->Set("engine.supersteps_per_batch", c.supersteps / nb);
  results->Set("engine.edges_scanned_per_batch", c.edges / nb);
  results->Set("engine.windows_loaded_per_batch", c.windows / nb);
  results->Set("engine.emissions_per_batch", c.emissions / nb);
  results->Set("engine.delta_walk_emissions_per_batch", c.delta_emissions / nb);
  results->Set("engine.pruned_per_batch", c.pruned / nb);
  results->Set("engine.recomputed_vertices_per_batch", c.recomputed / nb);
  results->Set("engine.frontier_per_batch", c.frontier / nb);
  results->Set("engine.tuples_pos_per_batch", c.tuples_pos / nb);
  results->Set("engine.tuples_neg_per_batch", c.tuples_neg / nb);
  results->Set("engine.walk_op_ms_per_batch", c.walk_ms / nb);
  results->Set("thread_pool.busy_ms_per_batch", c.busy_ms / nb);
  results->Set("thread_pool.utilization",
               c.thread_wall_ms > 0 ? c.busy_ms / c.thread_wall_ms : 0);
  results->Set("thread_pool.steals_per_batch", c.steals / nb);
  results->Set("thread_pool.tasks_per_batch", c.tasks / nb);
  results->Set("load.gen_late_ms_max", handover_ms_max);
  results->Set("trace.latency_ms_mean", Mean(batch_ms));
  results->Set("trace.batch_ms_p50", p50);
  results->Set("trace.notify_ms_p50", p50);

  if (options.trace) {
    const SelfTimes self =
        ComputeSelfTimes(itg::Tracer::Collect(), {"bench.batch"});
    double sum = 0;
    for (const auto& [layer, ms] : self.self_ms) {
      if (layer != "bench") {
        results->Set(layer + ".self_ms_per_batch", ms / nb);
      }
      sum += ms / nb;
    }
    results->Set("trace.layer_sum_ms_per_batch", sum);
    results->Set("trace.spans", static_cast<double>(self.spans));
  }
}

}  // namespace

void RunIncrWorkload(const Options& options, Results* results) {
  const std::string dir = options.scratch_root + "/" + options.workload;
  if (auto s = RemoveTree(dir); !s.ok()) return results->Error(s.ToString());
  std::filesystem::create_directories(dir);
  RunIncr(options, dir, results);
  if (auto s = RemoveTree(dir); !s.ok()) results->Error(s.ToString());
}

}  // namespace perfbench
