// lvf2_perfbench — end-to-end benchmark of the lvf2 libraries.
//
//   lvf2_perfbench --workload library|path|serve --seed N --seconds S
//                  --trace 0|1 [--work-dir DIR] [--source-id ID]
//
// Prints notes and a provenance line, then, as the last line, one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
// perfbench/run.py builds this program and is the supported entry.
// A timed run first measures its cold set-up in fresh processes of this
// program started with the extra argument --setup-probe 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "exec/pool.h"
#include "simd/simd.h"
#include "workloads.h"

extern char** environ;

namespace {

// Cold set-ups per timed run; the run reports their median.
constexpr int kSetupProbes = 31;

int usage(const char* why) {
  std::fprintf(stderr,
               "lvf2_perfbench: %s\nusage: lvf2_perfbench --workload "
               "library|path|serve --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--source-id ID]\n",
               why);
  return 2;
}

// Every program tracing / telemetry / cache / fault switch must be off
// for a measured run; only the thread budget may be set.
std::string armed_switches() {
  std::string armed;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string var(*env);
    if (var.rfind("LVF2_", 0) != 0 || var.rfind("LVF2_THREADS=", 0) == 0) {
      continue;
    }
    if (!armed.empty()) armed += ' ';
    armed.append(var, 0, var.find('='));
  }
  return armed;
}

perfbench::RunResult run_workload(const std::string& workload,
                                  const perfbench::Options& options) {
  if (workload == "library") return perfbench::run_library(options);
  if (workload == "path") return perfbench::run_path(options);
  return perfbench::run_serve(options);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string workload;
  std::string source_id = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  std::vector<std::string> args;  // what a set-up probe is started with
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg != "--setup-probe") {
      args.push_back(arg);
      args.push_back(value);
    }
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0.0;
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--source-id") {
      source_id = value;
    } else if (arg == "--setup-probe") {
      options.setup_probe = std::strcmp(value, "1") == 0;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (workload != "library" && workload != "path" && workload != "serve") {
    return usage(("unknown workload \"" + workload + "\"").c_str());
  }
  if (const std::string armed = armed_switches(); !armed.empty()) {
    std::fprintf(stderr,
                 "lvf2_perfbench: refusing to measure with %s set\n",
                 armed.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return usage(("cannot create " + options.work_dir).c_str());

  // Pin the thread budget to the host's cores.
  const unsigned cores = std::thread::hardware_concurrency();
  lvf2::exec::set_thread_count(cores > 0 ? cores : 1);

  if (options.setup_probe) {
    const perfbench::RunResult result = run_workload(workload, options);
    if (!result.correct || result.metrics.size() != 1) return 1;
    std::printf("setup_s %.17g\n", result.metrics.front().value);
    return 0;
  }

  std::printf(
      "provenance: {\"source\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"simd_tier\": \"%s\", \"threads\": %zu, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": "
      "%d}\n",
      source_id.c_str(), __VERSION__, PERFBENCH_BUILD_TYPE,
      lvf2::simd::tier_name(lvf2::simd::active_tier()),
      lvf2::exec::thread_count(), workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);

  if (!options.trace) {
    const std::filesystem::path self =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    options.setup_s =
        ec ? NAN : perfbench::cold_setup_s(self.string(), args, kSetupProbes);
  }
  // Host interference: CPU time the hypervisor gave to other guests
  // while this run wanted it. Timings move with it; see STEADINESS.md.
  const double steal0 = perfbench::host_steal_s();
  const perfbench::Clock::time_point t0 = perfbench::Clock::now();
  const perfbench::RunResult result = run_workload(workload, options);
  const double wall_s = perfbench::ms_since(t0) / 1000.0;
  const double steal_s = perfbench::host_steal_s() - steal0;
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (std::isfinite(steal_s)) {
    std::printf("host: %.2f CPU-s stolen by the hypervisor in %.1f s of "
                "wall (%.1f %% of %u cores)\n",
                steal_s, wall_s,
                100.0 * steal_s / (wall_s * (cores > 0 ? cores : 1)), cores);
  }
  std::printf("%s\n", perfbench::result_json(result).c_str());
  std::fflush(stdout);
  return 0;
}
