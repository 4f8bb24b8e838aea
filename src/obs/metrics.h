#pragma once
// Process-wide metrics registry: named counters, gauges, fixed-bucket
// histograms, and streaming quantile digests. Instruments are created
// on first access and live for the whole process (stable addresses —
// cache a reference in hot paths). Counter/gauge/histogram updates
// are lock-free relaxed atomics; a digest observation takes the
// instrument's own mutex (an uncontended lock + a buffered push,
// still nanoseconds); only name lookup takes the registry mutex.
//
// Labeled series: an instrument whose name is
// `family{key="value",...}` (build it with series_name()) is one series
// of `family`. Exports treat it as such — to_prometheus() declares the
// family once and merges the label block with its own quantile/le
// labels, to_json() keys the series by its full name — and
// family_series() enumerates a family's label sets. Resolve a series
// once and keep the reference: the name is built from strings.
//
// The registry has no sink of its own: the run manifest
// (LVF2_MANIFEST) embeds to_json() as its `metrics` member, and lvf2d
// serves to_json()/to_prometheus() on request. Unread, it still counts
// (a relaxed fetch_add) and emits nothing.

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/tdigest.h"

namespace lvf2::obs {

namespace detail {
/// Relaxed atomic accumulation into a double via a CAS retry loop.
/// std::atomic<double>::fetch_add exists only since C++20 and is
/// still missing/miscompiled on some toolchains; the CAS loop is
/// portable, lock-free wherever atomic<double> is, and exact under
/// concurrency (every addend is applied exactly once).
inline void atomic_add(std::atomic<double>& target, double v) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + v,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Monotonically increasing double accumulator (seconds of work,
/// nanoseconds of delay, ...). Thread-safe via the CAS add loop.
class DoubleCounter {
 public:
  void add(double v) { detail::atomic_add(value_, v); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Relative move (a live level such as requests in flight).
  void add(double delta) { detail::atomic_add(value_, delta); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds of the
/// finite buckets; one overflow bucket is appended implicitly.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Streaming quantile instrument: a mutex-guarded mergeable t-digest
/// (obs/tdigest.h). Built for latency tails — p99/p999 stay sharp
/// wherever the distribution lands, unlike a fixed bucket ladder.
class Digest {
 public:
  explicit Digest(double compression = 100.0) : digest_(compression) {}

  void observe(double v) {
    std::lock_guard<std::mutex> lock(mutex_);
    digest_.add(v);
  }
  /// Consistent point-in-time copy (merge it, serialize it, query it).
  TDigest snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    digest_.compress();
    return digest_;
  }
  double quantile(double q) const { return snapshot().quantile(q); }
  std::uint64_t count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::uint64_t>(digest_.count());
  }

 private:
  mutable std::mutex mutex_;
  TDigest digest_;
};

/// A series' label set, in declaration order: (key, value) pairs.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// The registry name of `family`'s series with `labels`:
/// `family{key="value",...}`, values escaped the Prometheus way
/// (backslash, double quote, newline). Keys must be Prometheus label
/// names ([a-zA-Z_][a-zA-Z0-9_]*). No labels gives plain `family`.
std::string series_name(
    std::string_view family,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

/// The process-wide registry (leaked singleton, never destroyed).
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  DoubleCounter& double_counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First call fixes the bucket bounds; later calls with the same
  /// name return the existing histogram regardless of `bounds`.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);
  /// First call fixes the compression; later calls with the same name
  /// return the existing digest regardless of `compression`.
  Digest& digest(std::string_view name, double compression = 100.0);

  /// Label sets of every labeled series of `family` (any instrument
  /// kind), ordered by series name.
  std::vector<Labels> family_series(std::string_view family) const;

  /// Full registry state as a JSON object
  /// {"counters":{...},"gauges":{...},"histograms":{...},
  ///  "digests":{...}} (each digest carries its serialized centroid
  /// state plus a "q" block of p50/p90/p95/p99/p999 estimates).
  std::string to_json() const;
  /// Prometheus text exposition (version 0.0.4): counters as
  /// `<prefix><name>_total`, gauges plain, histograms as cumulative
  /// `_bucket{le=...}` + `_sum`/`_count`, digests as
  /// `{quantile=...}` summaries + `_sum`/`_count`. Metric names are
  /// the registry family names with non-[a-zA-Z0-9_] flattened to
  /// '_'. Each family gets one `# TYPE` line with all its series
  /// contiguous below it.
  std::string to_prometheus(std::string_view prefix = "lvf2_") const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, DoubleCounter, std::less<>> double_counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, Digest, std::less<>> digests_;
};

/// Convenience accessors against the process registry.
inline Counter& counter(std::string_view name) {
  return MetricsRegistry::instance().counter(name);
}
inline DoubleCounter& double_counter(std::string_view name) {
  return MetricsRegistry::instance().double_counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return MetricsRegistry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name,
                            std::vector<double> bounds) {
  return MetricsRegistry::instance().histogram(name, std::move(bounds));
}
inline Digest& digest(std::string_view name, double compression = 100.0) {
  return MetricsRegistry::instance().digest(name, compression);
}

}  // namespace lvf2::obs
