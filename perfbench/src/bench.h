#pragma once
// Shared pieces of the end-to-end benchmark: the run result and its
// JSON line, the latency summaries, the in-memory span tracer, the
// host and process probes. Everything here is driven from outside the
// libraries: spans wrap calls into their public functions.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);
double ms_since(Clock::time_point t0);

// ---- metrics and the result line ---------------------------------------

/// Metric names: a letter or digit first, then at most 63 more
/// letters, digits, '_', '.' or '-'.
bool valid_metric_name(std::string_view name);

/// Units: 1 to 16 letters, digits, '_', '/', '%', '.' or '-'.
bool valid_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One benchmark run: the correctness verdict, the operation tally the
/// failure ratio is made of, and the metrics.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  /// Records a failed correctness check (the run is then incorrect).
  void fail_check(const std::string& what);
  /// Adds a metric; an invalid name/unit or a non-finite value fails
  /// the run instead of producing an unparseable line.
  void add(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes.push_back(line); }
};

/// The single-line JSON object the benchmark prints last:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
std::string result_json(const RunResult& result);

// ---- latency summaries -------------------------------------------------

/// The tail of a latency sample: the highest percentile of the ladder
/// 99 / 95 / 90 / 75 / 50 that leaves at least 10 samples beyond it
/// (nearest-rank). The ladder stops at p99 so that a run whose sample
/// count straddles 10000 does not flip between p99 and p99.9. Below 20
/// samples no ladder percentile qualifies and the tail is the maximum
/// (percentile 100), so a short run still reports its worst case.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t count = 0;
};
Tail tail_of(std::vector<double> samples);

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// "p99 of 2130" — the tail's percentile and sample count for notes.
std::string describe_tail(const Tail& tail);

// ---- span tracer -------------------------------------------------------

/// In-memory spans: name, layer, start, end and parent index. One
/// tracer per thread of the run; written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    std::uint64_t group = 0;  ///< spans of one request share a group id
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int begin(std::string name, std::string layer, std::uint64_t group = 0);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on an optional tracer (nullptr: no-op, zero recording).
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::string layer,
        std::uint64_t group = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(std::move(name), std::move(layer), group)
                   : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Measured cost of recording one span (begin + end) on this host.
double span_cost_ms();

/// Self time per layer: each span's duration minus the part covered by
/// its direct children (spans of one tracer are properly nested).
struct LayerTimes {
  std::vector<std::pair<std::string, double>> self_ms;  ///< per layer
  double covered_ms = 0.0;  ///< union of root spans, summed per tracer
};
LayerTimes layer_self_times(const std::vector<const Tracer*>& tracers);

/// Total duration of the spans with this exact name.
double span_total_ms(const Tracer& tracer, std::string_view name);
/// Durations of the spans with this exact name.
std::vector<double> span_durations(const Tracer& tracer,
                                   std::string_view name);

/// Writes the spans as a Chrome trace-event JSON file (one tid per
/// tracer). Returns false when the file cannot be written.
bool write_trace_file(const std::string& path,
                      const std::vector<const Tracer*>& tracers);

// ---- host ----------------------------------------------------------------

/// One busy thread per CPU at the lowest scheduling class (SCHED_IDLE)
/// while the object lives. A thread of the program that wakes up takes
/// the CPU from them at once, so they take no share of CPU time from
/// it; what they remove is the idle halt of a virtual CPU, and with it
/// the wait for the hypervisor to schedule that CPU again when a thread
/// on it wakes up. That wait follows the load of the other guests on
/// the host. The user-space counterpart of keeping the CPUs out of idle
/// states for a latency benchmark. A thread that cannot enter SCHED_IDLE
/// does not spin.
class IdleSpinners {
 public:
  explicit IdleSpinners(std::size_t count);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// ---- process probes ----------------------------------------------------

double peak_rss_mb();
/// User + system CPU seconds of the whole process so far.
double process_cpu_s();
/// CPU seconds the hypervisor has taken from this machine's virtual
/// CPUs so far (the "steal" column of /proc/stat, all CPUs); NaN where
/// the kernel does not report it.
double host_steal_s();

}  // namespace perfbench
