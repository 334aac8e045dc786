// Repo benchmark program. Usage:
//
//   itg_perfbench --workload incr-qpr|incr-tc|serve-2wcc --seed N
//                 --seconds S --trace 0|1 [--inject-corruption]
//
// Run it from the checkout root: store files go under .bench_build/scratch
// and traces under .bench_build/traces.
//
// Prints one line per metric and, last, the JSON result object. Exits 0
// when every output passed its correctness gate, 1 when any op failed or
// a check did not hold, 2 on bad arguments.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "common/trace.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "itg_perfbench: %s\n"
               "usage: itg_perfbench --workload incr-qpr|incr-tc|serve-2wcc "
               "--seed N --seconds S --trace 0|1 [--inject-corruption]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--inject-corruption") {
      options.inject_corruption = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const bool incr =
      options.workload == "incr-qpr" || options.workload == "incr-tc";
  if (!incr && options.workload != "serve-2wcc") {
    return Usage("unknown --workload");
  }

  // A file-size limit (RLIMIT_FSIZE) reached mid-run must surface as a
  // failed write, which fails ops with a message, not as a kill by SIGXFSZ.
  std::signal(SIGXFSZ, SIG_IGN);

  std::error_code ec;
  std::filesystem::create_directories(options.scratch_root, ec);
  const uint64_t scratch_before = perfbench::DirBytes(options.scratch_root);
  if (options.trace) itg::Tracer::Enable();

  perfbench::Results results;
  if (incr) {
    perfbench::RunIncrWorkload(options, &results);
  } else {
    perfbench::RunServeWorkload(options, &results);
  }
  results.Set("peak_rss_mb", perfbench::PeakRssMb());

  const uint64_t scratch_after = perfbench::DirBytes(options.scratch_root);
  if (scratch_after != scratch_before) {
    results.Error("scratch root holds " + std::to_string(scratch_after) +
                  " bytes after the run, " + std::to_string(scratch_before) +
                  " before");
  }
  if (options.trace) {
    itg::Tracer::Disable();
    if (auto s = perfbench::WriteTrace(options); !s.ok()) {
      results.Error(s.ToString());
    }
  }
  perfbench::PrintResults(options, results);
  return results.correct() ? 0 : 1;
}
