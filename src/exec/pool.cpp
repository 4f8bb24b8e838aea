#include "exec/pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>

#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace lvf2::exec {

namespace detail {
std::atomic<bool> g_telemetry_enabled{false};
}  // namespace detail

namespace {

thread_local bool t_in_parallel_region = false;

/// Marks the current thread as executing pool work for its lifetime.
struct RegionGuard {
  RegionGuard() : was(t_in_parallel_region) { t_in_parallel_region = true; }
  ~RegionGuard() { t_in_parallel_region = was; }
  bool was;
};

std::atomic<std::size_t> g_thread_override{0};

std::size_t default_thread_count() {
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return hw;
}

/// Rendered `exec` manifest section: process-lifetime job counters
/// plus the per-slot utilization table when telemetry recorded work.
std::string exec_section_json() {
  std::string out = "{\"workers\":";
  out += std::to_string(thread_count());
  out += ",\"jobs\":";
  out += std::to_string(obs::counter("exec.pool.jobs").value());
  out += ",\"indices\":";
  out += std::to_string(obs::counter("exec.pool.indices").value());
  out += ",\"chunks\":";
  out += std::to_string(obs::counter("exec.pool.chunks").value());
  out += ",\"job_wall_s\":";
  obs::json_append_number(
      out, obs::double_counter("exec.pool.job_wall_s").value());
  out += ",\"telemetry\":";
  out += telemetry_enabled() ? "true" : "false";
  out += ",\"per_worker\":[";
  std::vector<std::string> slots;
  for (const obs::Labels& labels :
       obs::MetricsRegistry::instance().family_series("exec.worker.chunks")) {
    slots.push_back(labels.at(0).second);
  }
  // The caller first, then the workers in creation order.
  const auto rank = [](const std::string& slot) {
    return slot == "caller" ? 0ul : std::stoul(slot);
  };
  std::sort(slots.begin(), slots.end(),
            [&](const std::string& a, const std::string& b) {
              return rank(a) < rank(b);
            });
  const char* separator = "";
  for (const std::string& slot : slots) {
    const auto series = [&](std::string_view family) {
      return obs::series_name(family, {{"slot", slot}});
    };
    out += separator;
    separator = ",";
    out += "{\"slot\":";
    out += slot == "caller" ? "\"caller\"" : slot;
    out += ",\"chunks\":" +
           std::to_string(obs::counter(series("exec.worker.chunks")).value());
    out += ",\"indices\":" +
           std::to_string(obs::counter(series("exec.worker.indices")).value());
    out += ",\"busy_ms\":";
    obs::json_append_number(
        out, obs::double_counter(series("exec.worker.busy_us")).value() * 1e-3);
    out += '}';
  }
  out += "]}";
  return out;
}

// Registers the manifest `exec` section at static-initialization time
// and records per-slot telemetry exactly while a manifest is armed:
// the manifest is the only reader of those rows.
struct ExecManifestInit {
  ExecManifestInit() {
    obs::ManifestRecorder& recorder = obs::ManifestRecorder::instance();
    recorder.set_section_provider("exec", [] { return exec_section_json(); });
    recorder.on_arm(set_telemetry);
  }
} g_exec_manifest_init;

obs::Histogram& chunk_latency_histogram() {
  static obs::Histogram& h = obs::histogram(
      "exec.pool.chunk_us", {1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6});
  return h;
}

obs::Histogram& job_wall_histogram() {
  static obs::Histogram& h = obs::histogram(
      "exec.pool.job_wall_ms", {0.1, 1.0, 10.0, 100.0, 1e3, 1e4});
  return h;
}

}  // namespace

void set_telemetry(bool enabled) {
  detail::g_telemetry_enabled.store(enabled, std::memory_order_relaxed);
}

std::size_t parse_thread_count(const char* text, std::size_t fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || value == 0 || value > 4096) {
    return fallback;
  }
  return static_cast<std::size_t>(value);
}

std::size_t thread_count() {
  const std::size_t override = g_thread_override.load(std::memory_order_relaxed);
  if (override != 0) return override;
  static const std::size_t configured = parse_thread_count(
      std::getenv("LVF2_THREADS"), default_thread_count());
  return configured;
}

void set_thread_count(std::size_t count) {
  g_thread_override.store(count, std::memory_order_relaxed);
}

bool in_parallel_region() { return t_in_parallel_region; }

Pool::Pool(std::size_t workers) { ensure_workers(workers); }

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

Pool& Pool::instance() {
  // Function-local static (not leaked): workers are joined at static
  // destruction, before the exit-time observability sinks it never
  // touches, so sanitizers see a clean shutdown.
  static Pool pool(thread_count() > 1 ? thread_count() - 1 : 1);
  return pool;
}

struct Pool::SlotSeries {
  explicit SlotSeries(const std::string& slot)
      : chunks(obs::counter(
            obs::series_name("exec.worker.chunks", {{"slot", slot}}))),
        indices(obs::counter(
            obs::series_name("exec.worker.indices", {{"slot", slot}}))),
        busy_us(obs::double_counter(
            obs::series_name("exec.worker.busy_us", {{"slot", slot}}))) {}

  obs::Counter& chunks;
  obs::Counter& indices;
  obs::DoubleCounter& busy_us;
};

void Pool::ensure_workers(std::size_t workers) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (threads_.size() < workers) {
    // The fork-join caller is slot "caller"; workers count from 1.
    const std::size_t slot_index = threads_.size() + 1;
    threads_.emplace_back([this, slot_index] { worker_loop(slot_index); });
  }
}

void Pool::work_on(Job& job, SlotSeries* series) {
  RegionGuard region;
  const bool telemetry = series != nullptr;
  static obs::Counter& chunk_counter = obs::counter("exec.pool.chunks");
  for (;;) {
    const std::size_t begin =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.n) return;
    if (job.failed.load(std::memory_order_relaxed)) continue;
    const std::size_t end = std::min(begin + job.chunk, job.n);
    const auto chunk_start = telemetry
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
    try {
      for (std::size_t i = begin; i < end; ++i) (*job.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mutex);
      if (!job.failed.exchange(true, std::memory_order_relaxed)) {
        job.error = std::current_exception();
      }
    }
    if (telemetry) {
      const double chunk_us =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - chunk_start)
              .count();
      series->chunks.add(1);
      series->indices.add(end - begin);
      series->busy_us.add(chunk_us);
      chunk_counter.add(1);
      chunk_latency_histogram().observe(chunk_us);
    }
  }
}

void Pool::worker_loop(std::size_t slot) {
  // Sampled by the wall-clock profiler for the worker's lifetime
  // (inert while LVF2_PROFILE is off).
  obs::prof::ThreadRegistration profiler_registration;
  std::optional<SlotSeries> series;  // resolved by the first telemetry job
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    if (job == nullptr) continue;
    // Joining is capped per job so scaling benches measure the
    // requested parallelism even when the pool holds more workers.
    if (job->entered.fetch_add(1, std::memory_order_relaxed) <
        job->worker_limit) {
      // One relaxed load per job, not per chunk: a mid-job toggle is
      // a test scenario, not one worth a hot-loop branch miss.
      const bool telemetry = telemetry_enabled();
      if (telemetry && !series) series.emplace(std::to_string(slot));
      work_on(*job, telemetry ? &*series : nullptr);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++job->done;
    }
    done_cv_.notify_all();
  }
}

void Pool::run(std::size_t n, std::size_t chunk, std::size_t parallelism,
               const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t helpers = parallelism > 0 ? parallelism - 1 : 0;
  static obs::Counter& jobs = obs::counter("exec.pool.jobs");
  static obs::Counter& indices = obs::counter("exec.pool.indices");
  static obs::DoubleCounter& job_wall =
      obs::double_counter("exec.pool.job_wall_s");
  jobs.add(1);
  indices.add(n);
  const bool telemetry = telemetry_enabled();
  if (telemetry) {
    // "Queue depth" of a fork-join job: indices posted and not yet
    // claimed, maximal at post time. The gauge tracks the live job;
    // the histogram keeps the distribution across jobs.
    obs::gauge("exec.pool.queue_depth").set(static_cast<double>(n));
  }
  const auto job_start = std::chrono::steady_clock::now();

  std::lock_guard<std::mutex> run_lock(run_mutex_);
  // Grow only between jobs (we hold run_mutex_, so no job is in
  // flight): posted_to below must stay exact while the Job lives.
  ensure_workers(helpers);
  Job job;
  job.n = n;
  job.chunk = chunk;
  job.worker_limit = helpers;
  job.fn = &fn;
  std::size_t posted_to = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++generation_;
    posted_to = threads_.size();
  }
  work_cv_.notify_all();
  // The caller is one of the `parallelism` threads.
  SlotSeries* caller = nullptr;
  if (telemetry) {
    static SlotSeries caller_series("caller");
    caller = &caller_series;
  }
  work_on(job, caller);
  {
    // Every posted worker must check the job out (even if only to
    // decline it) before the stack-allocated Job can die.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return job.done == posted_to; });
    job_ = nullptr;
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - job_start)
                            .count();
  job_wall.add(wall_s);
  if (telemetry) {
    job_wall_histogram().observe(wall_s * 1e3);
    obs::gauge("exec.pool.queue_depth").set(0.0);
  }
  if (job.error) std::rethrow_exception(job.error);
}

void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t threads = thread_count();
  if (threads <= 1 || n <= chunk || in_parallel_region()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Pool::instance().run(n, chunk, threads, fn);
}

}  // namespace lvf2::exec
