#include "serve/reqtrace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "obs/json.h"
#include "obs/metrics.h"

namespace lvf2::serve {

namespace detail {
std::atomic<bool> g_reqtrace_enabled{false};
}  // namespace detail

namespace {

// Size cap of the LVF2_ACCESS_LOG file before it rotates.
constexpr std::size_t kAccessLogMaxKb = 4096;

void append_record(std::string& out, const RequestTrace& t) {
  out += "{\"rid\":";
  out += std::to_string(t.rid);
  out += ",\"conn\":";
  out += std::to_string(t.conn);
  out += ",\"op\":";
  obs::json_append_string(out, t.op);
  out += ",\"status\":";
  obs::json_append_string(out, t.status);
  out += ",\"degradation\":";
  obs::json_append_string(out, t.degradation);
  out += ",\"mode\":";
  obs::json_append_string(out, t.mode);
  out += ",\"queue_ms\":";
  obs::json_append_number(out, t.queue_ms);
  out += ",\"exec_ms\":";
  obs::json_append_number(out, t.exec_ms);
  out += ",\"bytes_in\":";
  out += std::to_string(t.bytes_in);
  out += ",\"bytes_out\":";
  out += std::to_string(t.bytes_out);
  out += "}\n";
}

}  // namespace

RequestTraceLog& RequestTraceLog::instance() {
  static RequestTraceLog* log = new RequestTraceLog();  // leaked
  return *log;
}

void RequestTraceLog::configure_from_env() {
  const char* path = std::getenv("LVF2_ACCESS_LOG");
  if (path == nullptr || path[0] == '\0') return;
  if (configure(path, kAccessLogMaxKb)) start();
}

bool RequestTraceLog::configure(std::string path, std::size_t max_kb) {
  if (running_.load(std::memory_order_relaxed)) return false;
  path_ = std::move(path);
  max_bytes_ = max_kb * 1024;
  return true;
}

void RequestTraceLog::start() {
  if (path_.empty() || running_.exchange(true)) return;
  // Truncate: each daemon run owns its log (rotation keeps history).
  if (std::FILE* f = std::fopen(path_.c_str(), "w")) std::fclose(f);
  file_bytes_ = 0;
  writer_ = std::thread([this] { writer_loop(); });
  detail::g_reqtrace_enabled.store(true, std::memory_order_relaxed);
}

void RequestTraceLog::stop() {
  detail::g_reqtrace_enabled.store(false, std::memory_order_relaxed);
  if (!running_.exchange(false)) return;
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  // Final drain: records pushed between the enabled flip and here.
  std::string buf;
  if (drain_into(buf) > 0) append_to_file(buf);
}

void RequestTraceLog::record(const RequestTrace& t) {
  if (!reqtrace_enabled()) return;
  static thread_local TraceRing* ring = nullptr;
  if (ring == nullptr) ring = ring_for_this_thread();
  if (ring->try_push(t)) return;
  dropped_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& drops = obs::counter("serve.trace.dropped");
  drops.add();
}

TraceRing* RequestTraceLog::ring_for_this_thread() {
  std::lock_guard<std::mutex> lock(rings_mutex_);
  rings_.push_back(std::make_unique<TraceRing>());
  return rings_.back().get();
}

void RequestTraceLog::writer_loop() {
  std::string buf;
  while (running_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lock(cv_mutex_);
      cv_.wait_for(lock, std::chrono::milliseconds(50), [this] {
        return !running_.load(std::memory_order_relaxed);
      });
    }
    buf.clear();
    if (drain_into(buf) > 0) append_to_file(buf);
  }
}

std::size_t RequestTraceLog::drain_into(std::string& buf) {
  // Ring pointers are stable (unique_ptr nodes, never erased), so the
  // lock is only held to copy the pointer list, not while draining.
  std::vector<TraceRing*> rings;
  {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    rings.reserve(rings_.size());
    for (const auto& r : rings_) rings.push_back(r.get());
  }
  std::size_t drained = 0;
  RequestTrace t;
  for (TraceRing* ring : rings) {
    while (ring->try_pop(t)) {
      append_record(buf, t);
      ++drained;
    }
  }
  written_.fetch_add(drained, std::memory_order_relaxed);
  return drained;
}

void RequestTraceLog::append_to_file(const std::string& buf) {
  if (file_bytes_ + buf.size() > max_bytes_ && file_bytes_ > 0) {
    const std::string rotated = path_ + ".1";
    std::remove(rotated.c_str());
    std::rename(path_.c_str(), rotated.c_str());
    file_bytes_ = 0;
  }
  std::FILE* f = std::fopen(path_.c_str(), "a");
  if (f == nullptr) return;  // best effort: tracing never fails requests
  std::fwrite(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  file_bytes_ += buf.size();
}

}  // namespace lvf2::serve
