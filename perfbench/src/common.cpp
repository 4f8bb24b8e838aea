#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "workloads.h"

extern char** environ;

namespace perfbench {

namespace {

// Runs one probe process and returns its "setup_s <seconds>" value.
double run_probe(const std::string& program,
                 const std::vector<std::string>& args) {
  std::vector<std::string> argv_text = {program};
  argv_text.insert(argv_text.end(), args.begin(), args.end());
  argv_text.push_back("--setup-probe");
  argv_text.push_back("1");
  std::vector<char*> argv;
  for (std::string& a : argv_text) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) != 0) return NAN;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, program.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[256];
    ssize_t n = 0;
    while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fds[0]);
  if (rc != 0) return NAN;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return NAN;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return NAN;
  const std::size_t at = out.rfind("setup_s ");
  if (at == std::string::npos) return NAN;
  char* end = nullptr;
  const double seconds = std::strtod(out.c_str() + at + 8, &end);
  return end != out.c_str() + at + 8 && seconds > 0.0 ? seconds : NAN;
}

}  // namespace

double cold_setup_s(const std::string& program,
                    const std::vector<std::string>& args, int reps) {
  std::vector<double> walls;
  for (int i = 0; i < reps; ++i) {
    const double s = run_probe(program, args);
    if (!std::isfinite(s)) return NAN;
    walls.push_back(s);
  }
  return median(walls);
}

double time_setup_s(const std::function<void()>& setup) {
  const Clock::time_point t0 = Clock::now();
  setup();
  return ms_since(t0) / 1000.0;
}

std::vector<double> timed_rounds(double seconds, std::size_t min_rounds,
                                 const std::function<void()>& round) {
  std::vector<double> walls;
  const Clock::time_point start = Clock::now();
  const double budget_ms = seconds * 1000.0;
  while (walls.size() < min_rounds ||
         ms_since(start) + median(walls) <= budget_ms) {
    const Clock::time_point t0 = Clock::now();
    round();
    walls.push_back(ms_since(t0));
  }
  return walls;
}

void add_end_to_end(RunResult& result, const EndToEnd& e2e) {
  const Tail tail = tail_of(e2e.op_latency_ms);
  result.add("setup_s", e2e.setup_s, "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("ops_per_s", e2e.ops_per_s, "1/s");
  result.add("p50_ms", median(e2e.op_latency_ms), "ms");
  result.add("tail_ms", tail.value, "ms");
  result.add("lvf2_binning_x", e2e.lvf2_binning_x, "x");
  result.add("lvf2_cdf_rmse_x", e2e.lvf2_cdf_rmse_x, "x");
  result.note("latency tail: " + describe_tail(tail));
}

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "core", "spice", "cells", "exec", "ssta", "liberty", "serve", "yield"};
  return names;
}

namespace {

std::vector<Metric> per_layer_catalog() {
  std::vector<Metric> out;
  const auto add = [&out](const std::string& name, const char* unit) {
    out.push_back(Metric{name, 0.0, unit});
  };
  // core: raw-sample fits (fit_model / Lvf2Model::fit) and grid refits
  // (refit_model; the mixtures through fit_weighted).
  for (const char* stage : {"fit", "refit"}) {
    const std::string p = std::string("core.") + stage;
    for (const char* family : {"lvf2", "norm2"}) {
      add(p + "." + family + ".total_ms", "ms");
      add(p + "." + family + ".p50_ms", "ms");
      add(p + "." + family + ".tail_ms", "ms");
    }
    add(p + ".lesn.total_ms", "ms");
    add(p + ".lvf.total_ms", "ms");
    add(p + ".em_fits", "count");
    add(p + ".em_iterations", "count");
    add(p + ".em_iterations_per_fit", "count");
  }
  add("core.em_nonconverged_ratio", "ratio");
  add("core.em_degraded_ratio", "ratio");
  add("core.eval_ms", "ms");
  add("core.lvf2_yield_x", "x");
  // spice
  add("spice.mc_ms", "ms");
  add("spice.mc_calls", "count");
  add("spice.samples", "count");
  // cells
  add("cells.entries", "count");
  add("cells.entry_p50_ms", "ms");
  add("cells.entry_tail_ms", "ms");
  // exec
  add("exec.threads", "count");
  add("exec.cpu_util", "ratio");
  add("exec.speedup", "x");
  // ssta
  add("ssta.path_mc_ms", "ms");
  add("ssta.sum_ms", "ms");
  add("ssta.sum_calls", "count");
  add("ssta.to_grid_ms", "ms");
  // liberty
  add("liberty.write_ms", "ms");
  add("liberty.bytes", "B");
  add("liberty.parse_ms", "ms");
  // serve: client-side latency per op class, the server's own
  // queue/exec split (its `metrics` op), the LRU and coalescing.
  for (const char* cls : {"light", "table", "compute"}) {
    const std::string p = std::string("serve.") + cls;
    add(p + ".requests", "count");
    add(p + ".p50_ms", "ms");
    add(p + ".tail_ms", "ms");
    add(p + ".tail_pct", "pct");
    add(p + ".queue_p50_ms", "ms");
    add(p + ".queue_tail_ms", "ms");
    add(p + ".exec_p50_ms", "ms");
    add(p + ".exec_tail_ms", "ms");
  }
  add("serve.lru_hit_ratio", "ratio");
  add("serve.full_computes", "count");
  add("serve.coalesced", "count");
  // yield
  add("yield.is_samples_per_req", "count");
  add("yield.is_batches", "count");
  // self time per layer and what tracing itself costs
  for (const std::string& layer : layer_names()) {
    add(layer + ".self_ms", "ms");
    add(layer + ".self_share", "ratio");
  }
  add("trace.wall_ms", "ms");
  add("trace.spans", "count");
  add("trace.overhead_ms", "ms");
  add("trace.unattributed_share", "ratio");
  return out;
}

}  // namespace

PerLayer::PerLayer() : metrics_(per_layer_catalog()) {}

void PerLayer::set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  unknown_.push_back(name);
}

void PerLayer::emit(RunResult& result) const {
  for (const std::string& name : unknown_) {
    result.fail_check("uncatalogued per-layer metric " + name);
  }
  for (const Metric& m : metrics_) result.add(m.name, m.value, m.unit);
}

void set_layer_times(PerLayer& per_layer,
                     const std::vector<const Tracer*>& tracers,
                     double traced_wall_ms, double thread_slots) {
  const LayerTimes times = layer_self_times(tracers);
  const double capacity = traced_wall_ms * thread_slots;
  for (const auto& [layer, ms] : times.self_ms) {
    per_layer.set(layer + ".self_ms", ms);
    per_layer.set(layer + ".self_share", capacity > 0.0 ? ms / capacity : 0.0);
  }
  std::size_t spans = 0;
  for (const Tracer* t : tracers) spans += t->spans().size();
  per_layer.set("trace.wall_ms", traced_wall_ms);
  per_layer.set("trace.spans", static_cast<double>(spans));
  per_layer.set("trace.overhead_ms", span_cost_ms() *
                                         static_cast<double>(spans) /
                                         thread_slots);
  per_layer.set("trace.unattributed_share",
                capacity > 0.0
                    ? std::max(0.0, 1.0 - times.covered_ms / capacity)
                    : 0.0);
}

void set_exec_times(PerLayer& per_layer, double parallel_ms, double cpu_s,
                    double threads, double serial_ms) {
  const double capacity_ms = parallel_ms * threads;
  const double idle_ms = std::max(0.0, capacity_ms - serial_ms);
  per_layer.set("exec.threads", threads);
  per_layer.set("exec.cpu_util", cpu_s * 1000.0 / capacity_ms);
  per_layer.set("exec.speedup", serial_ms / parallel_ms);
  per_layer.set("exec.self_ms", idle_ms);
  per_layer.set("exec.self_share", idle_ms / capacity_ms);
}

void set_durations(PerLayer& per_layer, const std::string& prefix,
                   const std::vector<double>& ms) {
  per_layer.set(prefix + ".total_ms", mean(ms) * static_cast<double>(ms.size()));
  per_layer.set(prefix + ".p50_ms", median(ms));
  per_layer.set(prefix + ".tail_ms", tail_of(ms).value);
}

void set_em_work(PerLayer& per_layer, const std::string& stage,
                 const std::vector<lvf2::core::EmReport>& reports) {
  double iterations = 0.0;
  for (const lvf2::core::EmReport& r : reports) {
    iterations += static_cast<double>(r.iterations);
  }
  const double n = static_cast<double>(reports.size());
  const std::string p = "core." + stage;
  per_layer.set(p + ".em_fits", n);
  per_layer.set(p + ".em_iterations", iterations);
  per_layer.set(p + ".em_iterations_per_fit", n > 0 ? iterations / n : 0.0);
}

void set_em_health(PerLayer& per_layer,
                   const std::vector<lvf2::core::EmReport>& reports) {
  double nonconverged = 0.0;
  double degraded = 0.0;
  for (const lvf2::core::EmReport& r : reports) {
    nonconverged += r.converged ? 0.0 : 1.0;
    degraded += r.degradation == lvf2::core::FitDegradation::kNone ? 0.0 : 1.0;
  }
  const double n = static_cast<double>(reports.size());
  per_layer.set("core.em_nonconverged_ratio", n > 0 ? nonconverged / n : 0.0);
  per_layer.set("core.em_degraded_ratio", n > 0 ? degraded / n : 0.0);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string accuracy_note(const std::string& what,
                          const std::vector<double>& values) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%s over %zu: mean %.4f, geomean %.4f, median %.4f",
                what.c_str(), values.size(), mean(values), geomean(values),
                median(values));
  return buf;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace perfbench
