#pragma once
// Per-request tracing for lvf2d: a compact fixed-size record per
// request, pushed into lock-free per-thread SPSC rings and drained by
// a single writer thread into a size-capped JSONL access log.
//
// Enablement is env-gated (LVF2_ACCESS_LOG=<path>); when disabled the
// entire subsystem costs one relaxed atomic load per request at the
// call site — BM_DisabledRequestTrace in bench/bench_perf.cpp holds
// that cost to the LVF2_PERF_NS_BUDGET gate. When enabled, recording
// is a struct copy into a preallocated ring slot: no allocation, no
// lock, no syscall on the request path. A full ring drops the record
// and counts it (`dropped()`); the request itself is never slowed or
// failed by tracing.
//
// Log format: one JSON object per line —
//   {"rid":..,"conn":..,"op":"..","status":"..","degradation":"..",
//    "mode":"ok|refused","queue_ms":..,"exec_ms":..,
//    "bytes_in":..,"bytes_out":..}
// Rotation: when the file would exceed 4 MiB, it is renamed to
// <path>.1 (replacing any previous .1) and a fresh file is started —
// bounded disk, ~2x cap worst case.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace lvf2::serve {

/// One request's timeline. Plain data, fixed size, so ring slots are
/// preallocated and recording is a memcpy-equivalent.
struct RequestTrace {
  std::uint64_t rid = 0;       ///< server-minted request id
  std::uint64_t conn = 0;      ///< connection number
  double queue_ms = 0.0;       ///< arrival -> dispatch
  double exec_ms = 0.0;        ///< dispatch -> response written
  std::uint32_t bytes_in = 0;  ///< request frame payload bytes
  std::uint32_t bytes_out = 0; ///< response frame payload bytes
  char op[16] = {};
  char status[20] = {};        ///< core::Status code name
                               ///< (longest: "resource_exhausted", 18)
  char degradation[12] = {};   ///< none/cached/single_sn/point_mass
  char mode[10] = {};          ///< "ok" (processed) | "refused"

  /// Truncating copy into one of the fixed char fields.
  template <std::size_t N>
  static void set_field(char (&dst)[N], std::string_view src) {
    const std::size_t n = src.size() < N - 1 ? src.size() : N - 1;
    std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
  }
};

/// Single-producer/single-consumer ring of trace records. The owning
/// worker thread pushes; only the writer thread pops.
class TraceRing {
 public:
  static constexpr std::size_t kCapacity = 1024;  // power of two
  static_assert((kCapacity & (kCapacity - 1)) == 0);

  bool try_push(const RequestTrace& t) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == kCapacity) {
      return false;  // full; caller counts the drop
    }
    slots_[tail & (kCapacity - 1)] = t;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  bool try_pop(RequestTrace& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    out = slots_[head & (kCapacity - 1)];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

 private:
  std::array<RequestTrace, kCapacity> slots_{};
  std::atomic<std::size_t> head_{0};
  std::atomic<std::size_t> tail_{0};
};

namespace detail {
extern std::atomic<bool> g_reqtrace_enabled;
}  // namespace detail

/// The one load on the disabled path. Call sites guard everything
/// else (struct fill, ring push) behind this.
inline bool reqtrace_enabled() {
  return detail::g_reqtrace_enabled.load(std::memory_order_relaxed);
}

/// Process-wide access-log writer (leaked singleton). Threads get a
/// thread-local ring on first record(); rings are owned here and
/// outlive their threads, so late drains are safe.
class RequestTraceLog {
 public:
  static RequestTraceLog& instance();

  /// Reads LVF2_ACCESS_LOG; starts the writer, capped at 4 MiB, when
  /// the path is set. Safe to call when already running.
  void configure_from_env();
  /// Programmatic setup (tests). `max_kb` caps the file size before
  /// rotation. Returns false if already running.
  bool configure(std::string path, std::size_t max_kb);
  /// Starts the writer thread and flips reqtrace_enabled() on.
  /// No-op without a configured path or when already running.
  void start();
  /// Flips tracing off, drains every ring, joins the writer.
  void stop();

  /// Records one request. Cheap no-op when tracing is disabled.
  void record(const RequestTrace& t);

  std::uint64_t written() const {
    return written_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  const std::string& path() const { return path_; }

 private:
  RequestTraceLog() = default;

  TraceRing* ring_for_this_thread();
  void writer_loop();
  /// Drains all rings into `buf` as JSONL; returns records drained.
  std::size_t drain_into(std::string& buf);
  void append_to_file(const std::string& buf);

  std::string path_;
  std::size_t max_bytes_ = 4096 * 1024;
  std::size_t file_bytes_ = 0;

  std::mutex rings_mutex_;
  std::vector<std::unique_ptr<TraceRing>> rings_;

  std::thread writer_;
  std::atomic<bool> running_{false};
  std::mutex cv_mutex_;
  std::condition_variable cv_;

  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace lvf2::serve
