#include "client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <mutex>
#include <thread>

#include "serve/protocol.h"

namespace perfbench {

const char* op_class_name(OpClass c) {
  switch (c) {
    case OpClass::kLight:
      return "light";
    case OpClass::kTable:
      return "table";
    case OpClass::kCompute:
      return "compute";
  }
  return "light";
}

std::vector<double> LoopResult::all_latencies() const {
  std::vector<double> out;
  for (const auto& v : latency_ms) out.insert(out.end(), v.begin(), v.end());
  return out;
}

std::string request_body(const RequestSpec& spec, std::uint64_t id) {
  std::string body = "{\"id\":";
  body += std::to_string(id);
  body += ",\"op\":\"";
  body += spec.op;
  body += "\",\"params\":";
  body += spec.params.empty() ? "{}" : spec.params;
  body += '}';
  return body;
}

LoopResult run_closed_loop(const LoopConfig& config,
                           const std::vector<RequestSpec>& sequence,
                           const std::function<Exchange(std::size_t)>& connect,
                           const Validate& validate) {
  LoopResult result;
  if (sequence.empty() || config.clients == 0) return result;
  std::atomic<std::uint64_t> next{0};
  std::mutex merge_mutex;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  Clock::time_point last_answer = start;

  const auto client = [&](std::size_t index) {
    LoopResult local;
    Clock::time_point local_last = start;
    Tracer* tracer =
        config.tracers ? &(*config.tracers)[index] : nullptr;
    Exchange exchange = connect(index);
    while (Clock::now() < deadline) {
      const std::uint64_t n = next.fetch_add(1);
      const RequestSpec& spec = sequence[n % sequence.size()];
      const std::uint64_t id = n + 1;
      ++local.sent;
      std::optional<std::string> reply;
      const Clock::time_point t0 = Clock::now();
      {
        Scope span(tracer, "request." + spec.op, spec.layer, id);
        reply = exchange ? exchange(request_body(spec, id)) : std::nullopt;
      }
      const Clock::time_point t1 = Clock::now();
      if (!reply) {
        ++local.connection_failures;
        break;
      }
      ++local.answered;
      local_last = t1;
      local.latency_ms[static_cast<std::size_t>(spec.op_class)].push_back(
          ms_between(t0, t1));
      if (validate(spec, id, *reply)) ++local.valid;
    }
    std::lock_guard<std::mutex> lock(merge_mutex);
    result.sent += local.sent;
    result.answered += local.answered;
    result.valid += local.valid;
    result.connection_failures += local.connection_failures;
    for (std::size_t c = 0; c < kOpClasses; ++c) {
      result.latency_ms[c].insert(result.latency_ms[c].end(),
                                  local.latency_ms[c].begin(),
                                  local.latency_ms[c].end());
    }
    if (local_last > last_answer) last_answer = local_last;
  };

  std::vector<std::thread> threads;
  threads.reserve(config.clients);
  for (std::size_t i = 0; i < config.clients; ++i) {
    threads.emplace_back(client, i);
  }
  for (std::thread& t : threads) t.join();
  result.wall_ms = ms_between(start, last_answer);
  return result;
}

namespace {

// Owns one connected socket; closed with the last Exchange copy.
struct Socket {
  int fd = -1;
  explicit Socket(int f) : fd(f) {}
  ~Socket() {
    if (fd >= 0) ::close(fd);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
};

}  // namespace

std::optional<Exchange> unix_exchange(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return std::nullopt;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  auto socket = std::make_shared<Socket>(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return std::nullopt;
  }
  return Exchange([socket](const std::string& body)
                      -> std::optional<std::string> {
    if (!lvf2::serve::write_frame(socket->fd, body).is_ok()) {
      return std::nullopt;
    }
    std::string reply;
    if (!lvf2::serve::read_frame(socket->fd, reply).is_ok()) {
      return std::nullopt;
    }
    return reply;
  });
}

}  // namespace perfbench
