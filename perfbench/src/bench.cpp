#include "bench.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

namespace {

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

// 1-based nearest rank of percentile p among n samples; the epsilon
// keeps exact products (99.9% of 10000) from rounding up a rank.
std::size_t nearest_rank(double p, std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !is_alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

void RunResult::fail_check(const std::string& what) {
  correct = false;
  notes.push_back("check failed: " + what);
}

void RunResult::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name) || !valid_unit(unit)) {
    fail_check("invalid metric name or unit: " + name + " [" + unit + "]");
    return;
  }
  for (const Metric& m : metrics) {
    if (m.name == name) {
      fail_check("duplicate metric " + name);
      return;
    }
  }
  if (!std::isfinite(value)) {
    fail_check("non-finite metric " + name);
    value = 0.0;
  }
  metrics.push_back(Metric{name, value, unit});
}

std::string result_json(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += '"';
    out += json_escape(m.name);
    out += "\": {\"value\": ";
    out += fmt_double(m.value);
    out += ", \"unit\": \"";
    out += json_escape(m.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  std::size_t rank = nearest_rank(p, samples.size());
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail_of(std::vector<double> samples) {
  Tail tail;
  tail.count = samples.size();
  if (samples.empty()) return tail;
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samples.size() - nearest_rank(p, samples.size()) >= 10) {
      tail.percentile = p;
      tail.value = percentile(std::move(samples), p);
      return tail;
    }
  }
  tail.percentile = 100.0;
  tail.value = *std::max_element(samples.begin(), samples.end());
  return tail;
}

std::string describe_tail(const Tail& tail) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g of %zu", tail.percentile, tail.count);
  return buf;
}

int Tracer::begin(std::string name, std::string layer, std::uint64_t group) {
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = open_.empty() ? -1 : open_.back();
  span.group = group;
  span.start_ms = ms_since(origin_);
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ms = ms_since(origin_);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double span_cost_ms() {
  constexpr int kSpans = 20000;
  Tracer tracer(Clock::now());
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    Scope span(&tracer, "request.ping", "serve", static_cast<std::uint64_t>(i));
  }
  return ms_since(t0) / kSpans;
}

LayerTimes layer_self_times(const std::vector<const Tracer*>& tracers) {
  std::map<std::string, double> self;
  LayerTimes out;
  for (const Tracer* tracer : tracers) {
    const auto& spans = tracer->spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Tracer::Span& s : spans) {
      const double d = s.end_ms - s.start_ms;
      if (s.parent >= 0) {
        child_ms[static_cast<std::size_t>(s.parent)] += d;
      } else {
        out.covered_ms += d;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double d = spans[i].end_ms - spans[i].start_ms;
      self[spans[i].layer] += std::max(0.0, d - child_ms[i]);
    }
  }
  out.self_ms.assign(self.begin(), self.end());
  return out;
}

double span_total_ms(const Tracer& tracer, std::string_view name) {
  double total = 0.0;
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.name == name) total += s.end_ms - s.start_ms;
  }
  return total;
}

std::vector<double> span_durations(const Tracer& tracer,
                                   std::string_view name) {
  std::vector<double> out;
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.name == name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

bool write_trace_file(const std::string& path,
                      const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const auto& spans = tracers[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& s = spans[i];
      out << (first ? "" : ",") << "\n{\"name\":\"" << json_escape(s.name)
          << "\",\"cat\":\"" << json_escape(s.layer)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << t
          << ",\"ts\":" << fmt_double(s.start_ms * 1000.0)
          << ",\"dur\":" << fmt_double((s.end_ms - s.start_ms) * 1000.0)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"group\":" << s.group << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

IdleSpinners::IdleSpinners(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();  // leave the core to an SMT sibling
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

double host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return NAN;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  const long ticks = ::sysconf(_SC_CLK_TCK);
  if (n != 8 || ticks <= 0) return NAN;
  return static_cast<double>(v[7]) / static_cast<double>(ticks);
}

}  // namespace perfbench
