// lnga_run: a command-line driver for the full pipeline — compile an
// L_NGA program (a file, or one of the built-in algorithms), run it over
// a graph (an edge-list file, or a generated RMAT graph), optionally
// stream mutation batches through the incremental engine, and print the
// results and the compiled GSA plans.
//
//   example_lnga_run --program tc --graph rmat:14 --symmetric --explain
//   example_lnga_run --program pr --graph rmat:12 --mutations stream.txt
//                    --explain-analyze --dot plan.dot
//
// --explain-analyze prints the GSA plans annotated with the per-operator
// runtime counters accumulated over every run of the process (EXPLAIN
// ANALYZE); --dot writes the same profile as a Graphviz digraph.
//
// Edge-list format: one "src dst" pair per line ('#' comments allowed).
// Mutation-stream format: "+ src dst" / "- src dst" lines; a line
// containing only "commit" ends a batch (one incremental run per batch).
// With --symmetric every op is mirrored, so list one orientation per
// edge; a batch that repeats an edge, inserts a present one or deletes an
// absent one stops the run with exit code 1.
//
// --watch N switches to continuous ingestion: after the one-shot run (and
// any --mutations batches) the driver keeps generating N synthetic
// mutation batches from a seeded RNG — inserts mixed with deletions of
// previously inserted edges — running the incremental engine once per
// batch. Combined with --telemetry-port (or ITG_TELEMETRY_PORT) this
// makes a long-lived process whose /metrics, /statusz and /healthz
// endpoints can be watched live; --watchdog-ms arms the stall watchdog
// and --inject-stall-ms wedges the first superstep of each run to test it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "algos/programs.h"
#include "common/clean_stop.h"
#include "common/live_status.h"
#include "common/telemetry_server.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "gen/rmat.h"
#include "harness/audit.h"
#include "harness/run_report.h"
#include "storage/graph_store.h"

namespace {

using namespace itg;

struct Args {
  std::string program = "pr";
  std::string graph = "rmat:14";
  std::string mutations;
  std::string metrics_json;
  std::string dot_path;
  bool symmetric = false;
  bool explain = false;
  bool explain_analyze = false;
  int supersteps = -1;
  int top = 5;
  std::string top_attr;
  int partitions = 1;
  // Continuous-ingestion mode: number of synthetic mutation batches.
  int watch = 0;
  int watch_batch_ops = 64;
  int watch_delay_ms = 0;
  // Telemetry endpoint: -1 = flag absent (the ITG_TELEMETRY_PORT
  // environment still applies); 0 = ephemeral port.
  int telemetry_port = -1;
  uint64_t watchdog_ms = 0;
  uint64_t inject_stall_ms = 0;
  // Drift auditing: every K delta batches, replay the one-shot plan on
  // the materialized snapshot in a shadow engine and diff state digests.
  int audit_every = 0;
  double audit_tolerance = 1e-6;
  // Δ-record provenance (forces single-threaded execution).
  bool lineage = false;
  VertexId lineage_vertex = -1;
  // Deliberate drift injection, for exercising the auditor end to end.
  Timestamp corrupt_t = -1;
  VertexId corrupt_vertex = -1;
  double corrupt_delta = 0.0;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--program pr|qpr|lp|wcc|bfs:<root>|tc|lcc|<file.lnga>]\n"
      "          [--graph rmat:<scale>|<edges.txt>] [--symmetric]\n"
      "          [--mutations <stream.txt>] [--supersteps N]\n"
      "          [--top N <attr>] [--metrics-json <path>] [--explain]\n"
      "          [--explain-analyze] [--dot <plan.dot>]\n"
      "          [--partitions N] [--watch N] [--watch-batch-ops N]\n"
      "          [--watch-delay-ms N] [--telemetry-port P]\n"
      "          [--watchdog-ms N] [--inject-stall-ms N]\n"
      "          [--audit every=K] [--audit-tolerance X]\n"
      "          [--lineage [vertex=V]]\n"
      "          [--inject-corrupt-t T] [--inject-corrupt-vertex V]\n"
      "          [--inject-corrupt-delta X]\n"
      "environment: ITG_TELEMETRY_PORT, ITG_WATCHDOG_MS,\n"
      "             ITG_TELEMETRY_PORTFILE (see README, Live telemetry)\n",
      argv0);
  std::exit(2);
}

std::string LoadProgram(const Args& args, int* supersteps) {
  const std::string& p = args.program;
  std::string source;
  int builtin_supersteps = -1;
  if (NamedProgram(p, &source, &builtin_supersteps)) {
    if (builtin_supersteps > 0) *supersteps = builtin_supersteps;
    return source;
  }
  std::ifstream in(p);
  if (!in) {
    std::fprintf(stderr, "cannot open program file '%s'\n", p.c_str());
    std::exit(1);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<Edge> LoadGraph(const Args& args, VertexId* num_vertices) {
  if (args.graph.rfind("rmat:", 0) == 0) {
    int scale = std::stoi(args.graph.substr(5));
    *num_vertices = RmatVertices(scale);
    return GenerateRmat(scale);
  }
  std::ifstream in(args.graph);
  if (!in) {
    std::fprintf(stderr, "cannot open graph file '%s'\n",
                 args.graph.c_str());
    std::exit(1);
  }
  std::vector<Edge> edges;
  VertexId max_v = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    Edge e;
    if (row >> e.src >> e.dst) {
      edges.push_back(e);
      max_v = std::max({max_v, e.src, e.dst});
    }
  }
  *num_vertices = max_v + 1;
  return edges;
}

std::vector<std::vector<EdgeDelta>> LoadMutations(const std::string& path) {
  std::vector<std::vector<EdgeDelta>> batches;
  if (path.empty()) return batches;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open mutation file '%s'\n", path.c_str());
    std::exit(1);
  }
  std::vector<EdgeDelta> batch;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "commit") {
      if (!batch.empty()) batches.push_back(std::move(batch));
      batch = {};
      continue;
    }
    std::istringstream row(line);
    char op;
    Edge e;
    if (row >> op >> e.src >> e.dst) {
      batch.push_back({e, op == '-' ? Multiplicity{-1} : Multiplicity{1}});
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

void PrintResults(const Engine& engine, const CompiledProgram& program,
                  VertexId num_vertices, const Args& args) {
  for (size_t g = 0; g < program.globals.size(); ++g) {
    const auto& value = engine.GlobalValue(static_cast<int>(g));
    std::printf("global %s =", program.globals[g].name.c_str());
    for (double v : value) std::printf(" %g", v);
    std::printf("\n");
  }
  std::string attr_name = args.top_attr;
  if (attr_name.empty()) {
    // Default to the first non-predefined, non-accumulator attribute.
    for (const auto& attr : program.vertex_attrs) {
      if (!attr.type.is_accumulator && attr.name != "id" &&
          attr.name != "active" && attr.name.find("nbrs") == std::string::npos &&
          attr.name.find("degree") == std::string::npos) {
        attr_name = attr.name;
        break;
      }
    }
  }
  if (attr_name.empty()) return;
  int attr = engine.AttrIndex(attr_name);
  if (attr < 0) {
    std::fprintf(stderr, "unknown attribute '%s'\n", attr_name.c_str());
    return;
  }
  std::vector<VertexId> order(static_cast<size_t>(num_vertices));
  for (VertexId v = 0; v < num_vertices; ++v) order[v] = v;
  std::partial_sort(order.begin(),
                    order.begin() + std::min<VertexId>(args.top,
                                                       num_vertices),
                    order.end(), [&](VertexId a, VertexId b) {
                      return engine.AttrValue(attr, a) >
                             engine.AttrValue(attr, b);
                    });
  std::printf("top %d by %s:\n", args.top, attr_name.c_str());
  for (int i = 0; i < args.top && i < num_vertices; ++i) {
    std::printf("  %8lld  %g\n", static_cast<long long>(order[i]),
                engine.AttrValue(attr, order[i]));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--program")) args.program = next();
    else if (!std::strcmp(argv[i], "--graph")) args.graph = next();
    else if (!std::strcmp(argv[i], "--mutations")) args.mutations = next();
    else if (!std::strcmp(argv[i], "--metrics-json")) {
      args.metrics_json = next();
    } else if (!std::strncmp(argv[i], "--metrics-json=", 15)) {
      args.metrics_json = argv[i] + 15;
    }
    else if (!std::strcmp(argv[i], "--symmetric")) args.symmetric = true;
    else if (!std::strcmp(argv[i], "--explain")) args.explain = true;
    else if (!std::strcmp(argv[i], "--explain-analyze")) {
      args.explain_analyze = true;
    }
    else if (!std::strcmp(argv[i], "--dot")) args.dot_path = next();
    else if (!std::strcmp(argv[i], "--supersteps")) {
      args.supersteps = std::stoi(next());
    } else if (!std::strcmp(argv[i], "--top")) {
      args.top = std::stoi(next());
      args.top_attr = next();
    } else if (!std::strcmp(argv[i], "--partitions")) {
      args.partitions = std::stoi(next());
    } else if (!std::strcmp(argv[i], "--watch")) {
      args.watch = std::stoi(next());
    } else if (!std::strcmp(argv[i], "--watch-batch-ops")) {
      args.watch_batch_ops = std::stoi(next());
    } else if (!std::strcmp(argv[i], "--watch-delay-ms")) {
      args.watch_delay_ms = std::stoi(next());
    } else if (!std::strcmp(argv[i], "--telemetry-port")) {
      args.telemetry_port = std::stoi(next());
    } else if (!std::strcmp(argv[i], "--watchdog-ms")) {
      args.watchdog_ms = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--inject-stall-ms")) {
      args.inject_stall_ms = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--audit")) {
      const char* a = next();
      if (std::strncmp(a, "every=", 6) != 0) Usage(argv[0]);
      args.audit_every = std::stoi(a + 6);
    } else if (!std::strcmp(argv[i], "--audit-every")) {
      args.audit_every = std::stoi(next());
    } else if (!std::strcmp(argv[i], "--audit-tolerance")) {
      args.audit_tolerance = std::stod(next());
    } else if (!std::strcmp(argv[i], "--lineage")) {
      args.lineage = true;
      if (i + 1 < argc && !std::strncmp(argv[i + 1], "vertex=", 7)) {
        args.lineage_vertex = std::stoll(argv[++i] + 7);
      }
    } else if (!std::strcmp(argv[i], "--inject-corrupt-t")) {
      args.corrupt_t = std::stoi(next());
    } else if (!std::strcmp(argv[i], "--inject-corrupt-vertex")) {
      args.corrupt_vertex = std::stoll(next());
    } else if (!std::strcmp(argv[i], "--inject-corrupt-delta")) {
      args.corrupt_delta = std::stod(next());
    } else {
      Usage(argv[0]);
    }
  }

  // Live telemetry: the --telemetry-port flag wins; without it the
  // ITG_TELEMETRY_PORT / ITG_WATCHDOG_MS / ITG_TELEMETRY_PORTFILE
  // environment decides (FromEnv returns null when unset).
  GlobalLiveStatus().SetQuery(args.program + " @ " + args.graph);
  std::unique_ptr<TelemetryServer> telemetry;
  if (args.telemetry_port >= 0) {
    TelemetryOptions topt;
    topt.port = args.telemetry_port;
    topt.watchdog_deadline_ms = args.watchdog_ms;
    if (const char* wd = std::getenv("ITG_WATCHDOG_MS");
        wd != nullptr && topt.watchdog_deadline_ms == 0) {
      topt.watchdog_deadline_ms = std::strtoull(wd, nullptr, 10);
    }
    if (const char* pf = std::getenv("ITG_TELEMETRY_PORTFILE")) {
      topt.port_file = pf;
    }
    telemetry = std::make_unique<TelemetryServer>();
    if (Status s = telemetry->Start(topt); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("telemetry: http://127.0.0.1:%d/metrics\n",
                telemetry->port());
  } else {
    telemetry = TelemetryServer::FromEnv();
  }

  int supersteps = args.supersteps;
  std::string source = LoadProgram(args, &supersteps);
  if (args.supersteps > 0) supersteps = args.supersteps;

  auto program_or = CompileProgram(source);
  if (!program_or.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 program_or.status().ToString().c_str());
    return 1;
  }
  auto program = std::move(program_or).value();
  if (args.explain) std::printf("%s\n", program->Explain().c_str());

  VertexId num_vertices = 0;
  std::vector<Edge> edges = LoadGraph(args, &num_vertices);
  if (args.symmetric) edges = SymmetrizeEdges(edges);

  // The engine's columns (and the lineage sets) are sized by
  // num_vertices at store creation, so a mutation stream referencing a
  // vertex beyond the base graph must widen the vertex space up front.
  auto mutation_batches = LoadMutations(args.mutations);
  for (const auto& batch : mutation_batches) {
    for (const EdgeDelta& d : batch) {
      num_vertices = std::max({num_vertices, d.edge.src + 1, d.edge.dst + 1});
    }
  }

  // Every batch is validated against the store's live edge set before it
  // is applied (the store's degree bookkeeping assumes valid batches).
  // With --symmetric the mirrored batch is checked against the mirrored
  // graph, so a stream must list one orientation per edge.
  LiveEdgeSet live(num_vertices, edges);

  auto dir = std::filesystem::temp_directory_path() / "itg_lnga_run";
  std::filesystem::create_directories(dir);
  auto store_or = DynamicGraphStore::Create((dir / "store").string(),
                                            num_vertices, edges, {},
                                            &GlobalMetrics());
  if (!store_or.ok()) {
    std::fprintf(stderr, "%s\n", store_or.status().ToString().c_str());
    return 1;
  }
  auto store = std::move(store_or).value();

  EngineOptions options;
  options.fixed_supersteps = supersteps;
  options.num_partitions = std::max(1, args.partitions);
  options.debug_stall_first_superstep_ms = args.inject_stall_ms;
  options.lineage = args.lineage;
  options.debug_corrupt_timestamp = args.corrupt_t;
  options.debug_corrupt_vertex = args.corrupt_vertex;
  options.debug_corrupt_delta = args.corrupt_delta;
  Engine engine(store.get(), program.get(), options);
  std::unique_ptr<DriftAuditor> auditor;
  if (args.audit_every > 0) {
    DriftAuditor::Options aopt;
    aopt.every = args.audit_every;
    aopt.tolerance = args.audit_tolerance;
    auditor = std::make_unique<DriftAuditor>(store.get(), &engine, source,
                                             (dir / "audit").string(), aopt);
  }
  auto after_run = [&](Timestamp ts) {
    if (auditor == nullptr) return true;
    auditor->OnRun(ts);
    if (Status s = auditor->MaybeAudit(ts); !s.ok()) {
      std::fprintf(stderr, "audit failed: %s\n", s.ToString().c_str());
      return false;
    }
    return true;
  };
  RunReport report("lnga_run");
  // Whole-process profile: the engine resets its profile per run, so the
  // driver folds each run's counters into one accumulated view.
  gsa::ExecutionProfile total_profile;
  program->RegisterOperators(&total_profile);
  auto record_run = [&](const std::string& name) {
    uint64_t net = 0;
    for (const MachineStats& m : engine.machine_stats()) {
      net += m.network_bytes;
    }
    report.AddRun(name, engine.last_stats(), engine.machine_stats(), net,
                  &engine.last_profile());
    total_profile.Merge(engine.last_profile());
  };
  if (Status s = engine.RunOneShot(0); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  record_run("oneshot");
  if (!after_run(0)) return 1;
  std::printf("one-shot: %.4fs over |V|=%lld, %d supersteps\n",
              engine.last_stats().seconds,
              static_cast<long long>(num_vertices),
              engine.last_stats().supersteps);
  PrintResults(engine, *program, num_vertices, args);

  Timestamp t = 0;
  for (size_t b = 0; b < mutation_batches.size(); ++b) {
    std::vector<EdgeDelta>& batch = mutation_batches[b];
    if (args.symmetric) {
      std::vector<EdgeDelta> sym;
      for (const EdgeDelta& d : batch) {
        sym.push_back(d);
        sym.push_back({{d.edge.dst, d.edge.src}, d.mult});
      }
      batch = std::move(sym);
    }
    if (Status s = live.Apply(batch, nullptr); !s.ok()) {
      std::fprintf(stderr, "mutation batch %zu of %s: %s\n", b + 1,
                   args.mutations.c_str(), s.ToString().c_str());
      return 1;
    }
    auto ts = store->ApplyMutations(batch);
    if (!ts.ok()) {
      std::fprintf(stderr, "%s\n", ts.status().ToString().c_str());
      return 1;
    }
    t = *ts;
    GlobalLiveStatus().SetDeltaSeq(t);
    if (Status s = engine.RunIncremental(t); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    record_run("incremental_t" + std::to_string(t));
    if (!after_run(t)) return 1;
    std::printf("\nsnapshot %d (+%zu ops): incremental %.4fs\n", t,
                batch.size(), engine.last_stats().seconds);
    PrintResults(engine, *program, num_vertices, args);
  }

  // --watch: continuous ingestion of synthetic Δ-batches. Deterministic
  // (fixed-seed RNG); deletions retract edges a previous watch batch
  // inserted, so every batch is a valid mutation of the live graph.
  if (args.watch > 0) {
    // Ctrl-C during a watch session is a request to stop cleanly, not a
    // failure: the loop breaks at the next batch boundary, the report
    // still gets written, and the exit code is 0 (the daemon shares this
    // flag — see common/clean_stop.h).
    InstallCleanStop();
    std::mt19937_64 rng(0x17506b9u);
    std::uniform_int_distribution<VertexId> pick(0, num_vertices - 1);
    // The store's degree bookkeeping assumes insertions target absent
    // edges and deletions present ones, so track the live edge set (the
    // --mutations batches included) and resample colliding picks instead
    // of violating the invariant.
    std::unordered_set<Edge, EdgeHash> present = live.edges();
    std::vector<Edge> inserted;
    for (int b = 0; b < args.watch; ++b) {
      if (CleanStopRequested()) {
        std::printf("watch: clean stop after %d/%d batches\n", b,
                    args.watch);
        break;
      }
      std::vector<EdgeDelta> batch;
      const int ops = std::max(1, args.watch_batch_ops);
      const int deletes =
          std::min<int>(ops / 4, static_cast<int>(inserted.size()));
      for (int d = 0; d < deletes; ++d) {
        const size_t idx = rng() % inserted.size();
        batch.push_back({inserted[idx], Multiplicity{-1}});
        present.erase(inserted[idx]);
        if (args.symmetric) {
          present.erase(Edge{inserted[idx].dst, inserted[idx].src});
        }
        inserted[idx] = inserted.back();
        inserted.pop_back();
      }
      for (int ins = deletes; ins < ops; ++ins) {
        Edge e{pick(rng), pick(rng)};
        for (int tries = 0; tries < 64; ++tries) {
          if (e.src != e.dst && present.count(e) == 0 &&
              (!args.symmetric || present.count(Edge{e.dst, e.src}) == 0)) {
            break;
          }
          e = Edge{pick(rng), pick(rng)};
        }
        if (e.src == e.dst || present.count(e) != 0 ||
            (args.symmetric && present.count(Edge{e.dst, e.src}) != 0)) {
          continue;  // dense neighborhood; skip rather than corrupt
        }
        batch.push_back({e, Multiplicity{1}});
        present.insert(e);
        if (args.symmetric) present.insert(Edge{e.dst, e.src});
        inserted.push_back(e);
      }
      if (args.symmetric) {
        std::vector<EdgeDelta> sym;
        for (const EdgeDelta& d : batch) {
          sym.push_back(d);
          sym.push_back({{d.edge.dst, d.edge.src}, d.mult});
        }
        batch = std::move(sym);
      }
      auto ts = store->ApplyMutations(batch);
      if (!ts.ok()) {
        std::fprintf(stderr, "%s\n", ts.status().ToString().c_str());
        return 1;
      }
      t = *ts;
      GlobalLiveStatus().SetDeltaSeq(t);
      if (Status s = engine.RunIncremental(t); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      record_run("watch_t" + std::to_string(t));
      if (!after_run(t)) return 1;
      std::printf("watch %d/%d: snapshot %d (+%zu ops) incremental %.4fs\n",
                  b + 1, args.watch, t, batch.size(),
                  engine.last_stats().seconds);
      std::fflush(stdout);
      if (args.watch_delay_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(args.watch_delay_ms));
      }
    }
  }
  if (args.lineage && args.lineage_vertex >= 0) {
    if (args.lineage_vertex >= num_vertices) {
      std::fprintf(stderr, "lineage vertex %lld out of range\n",
                   static_cast<long long>(args.lineage_vertex));
      return 1;
    }
    std::printf("\n%s", engine.ExplainLineage(args.lineage_vertex).c_str());
  }
  if (args.explain_analyze) {
    std::printf("\n%s", program->ExplainAnalyze(total_profile).c_str());
  }
  if (!args.dot_path.empty()) {
    // Dot export: the incremental plan when mutations were streamed (its
    // operators carry the Δ-walk counters), else the one-shot plan.
    const gsa::PlanNode& plan = (t > 0 && program->incremental_plan)
                                    ? *program->incremental_plan
                                    : *program->oneshot_plan;
    std::ofstream dot(args.dot_path, std::ios::trunc);
    if (!dot) {
      std::fprintf(stderr, "cannot open dot file '%s'\n",
                   args.dot_path.c_str());
      return 1;
    }
    dot << gsa::PlanToDot(plan, &total_profile);
  }
  if (auditor != nullptr) report.SetAudit(auditor->section());
  if (!args.metrics_json.empty()) {
    if (Status s = report.WriteTo(args.metrics_json); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
