#pragma once
// The three workloads. Each builds its inputs from the seed, measures
// for the requested time with every program tracing and telemetry
// switch off (trace == false), or runs the separate traced pass
// (trace == true), checks its outputs, and returns the run's result.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/em.h"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's files (Liberty output, socket, spans).
  std::string work_dir = ".bench_build/run";
  /// Set-up probe: the workload only sets up, once, and returns its
  /// wall as the single metric "setup_s" (see cold_setup_s).
  bool setup_probe = false;
  /// The cold set-up time the timed run reports (from cold_setup_s).
  double setup_s = 0.0;
};

RunResult run_library(const Options& options);
RunResult run_path(const Options& options);
RunResult run_serve(const Options& options);

/// The median of `reps` cold set-ups: each runs this program again as
/// `program args... --setup-probe 1` in a fresh process, so the timed
/// set-up includes what a first use pays (the shared pool's worker
/// start, first allocations and page faults), and reads the probe's
/// "setup_s <seconds>" line. The processes run one after another and
/// each is waited for. Returns NaN when a probe fails.
double cold_setup_s(const std::string& program,
                    const std::vector<std::string>& args, int reps);

/// Times `setup` once and returns its wall in seconds.
double time_setup_s(const std::function<void()>& setup);

/// Repeats `round` until `seconds` have passed: a round starts only
/// while the elapsed time plus the median round so far fits the
/// budget, and at least `min_rounds` run. Returns each round's wall in
/// milliseconds.
std::vector<double> timed_rounds(double seconds, std::size_t min_rounds,
                                 const std::function<void()>& round);

/// The end-to-end metrics every workload reports.
struct EndToEnd {
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  std::vector<double> op_latency_ms;  ///< latency of one user-visible op
  double lvf2_binning_x = 0.0;
  double lvf2_cdf_rmse_x = 0.0;
};
void add_end_to_end(RunResult& result, const EndToEnd& e2e);

/// Layer names: the module directories under src/ that the benchmark
/// times from outside.
const std::vector<std::string>& layer_names();

/// The per-layer metrics every traced run reports, each 0 until the
/// workload sets it (a layer the workload does not use stays 0).
class PerLayer {
 public:
  PerLayer();
  /// Sets a catalogued metric; an unknown name fails the run.
  void set(const std::string& name, double value);
  void emit(RunResult& result) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> unknown_;
};

/// Sets "<layer>.self_ms" and "<layer>.self_share" for every layer
/// that recorded spans, the share of the traced wall, times
/// `thread_slots` concurrent tracers, that no root span covers, and
/// the trace overhead: the measured cost of one span times the spans
/// each tracer recorded. (The wall difference between a traced and an
/// untraced serial replay was tried and is dominated by run-to-run
/// noise, about 10 %, against an overhead below 0.01 %.)
void set_layer_times(PerLayer& per_layer,
                     const std::vector<const Tracer*>& tracers,
                     double traced_wall_ms, double thread_slots);

/// The exec layer, from an untraced parallel round of `parallel_ms`
/// wall and `cpu_s` process CPU at `threads`, against `serial_ms` for
/// the same work on one thread: CPU utilization, speedup, and as self
/// time the pool capacity the work left idle (threads x wall - serial).
void set_exec_times(PerLayer& per_layer, double parallel_ms, double cpu_s,
                    double threads, double serial_ms);

/// "<prefix>.total_ms", ".p50_ms" and ".tail_ms" of span durations.
void set_durations(PerLayer& per_layer, const std::string& prefix,
                   const std::vector<double>& ms);

/// "core.<stage>.em_fits", ".em_iterations" and
/// ".em_iterations_per_fit" of the EM reports of one fit stage.
void set_em_work(PerLayer& per_layer, const std::string& stage,
                 const std::vector<lvf2::core::EmReport>& reports);

/// "core.em_nonconverged_ratio" and "core.em_degraded_ratio" over all
/// EM reports of the run.
void set_em_health(PerLayer& per_layer,
                   const std::vector<lvf2::core::EmReport>& reports);

/// Mean of the values, 0 for none.
double mean(const std::vector<double>& values);
/// Geometric mean of positive values, 0 for none.
double geomean(const std::vector<double>& values);
std::string accuracy_note(const std::string& what,
                          const std::vector<double>& values);

}  // namespace perfbench
