// lvf2_top — polling terminal monitor for a running lvf2d. Sends the
// `metrics` protocol op on an interval and renders the snapshot as a
// compact dashboard: per-op QPS, p50/p95/p99 latency split
// queue/exec, the degradation-rung mix, and SLO burn against the
// configured deadline budget (deadline compliance plus the deadline
// population's p99 queue+exec against the budget). QPS is
// Δrequests/Δuptime between polls; the first frame (and --once) shows
// the lifetime average.
//
// usage: lvf2_top --connect unix:<path>|tcp:<port>
//                 [--interval-ms 1000] [--count N] [--once]
//                 [--prometheus]
//
//   --once        one snapshot, no screen clearing (scripting)
//   --prometheus  print the raw Prometheus text exposition instead of
//                 the dashboard (check.sh scrapes the soak this way)
//
// Exit 0 after --count/--once snapshots; 2 when the daemon cannot be
// reached or answers garbage.

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "serve/protocol.h"

namespace {

using namespace lvf2;

int connect_to(const std::string& target) {
  if (target.rfind("unix:", 0) == 0) {
    const std::string path = target.substr(5);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  if (target.rfind("tcp:", 0) == 0) {
    const int port = std::atoi(target.c_str() + 4);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  return -1;
}

/// One metrics round-trip. Returns the response's "result" value, or
/// nullopt on any transport/protocol failure (diagnostic on stderr).
std::optional<obs::JsonValue> fetch(int& fd, const std::string& target,
                                    bool prometheus) {
  if (fd < 0) fd = connect_to(target);
  if (fd < 0) {
    std::fprintf(stderr, "lvf2_top: cannot connect to %s\n", target.c_str());
    return std::nullopt;
  }
  static std::uint64_t next_id = 1;
  std::string body = "{\"id\":" + std::to_string(next_id++) +
                     ",\"op\":\"metrics\"";
  if (prometheus) body += ",\"params\":{\"format\":\"prometheus\"}";
  body += "}";
  std::string reply;
  if (!serve::write_frame(fd, body).is_ok() ||
      !serve::read_frame(fd, reply).is_ok()) {
    ::close(fd);
    fd = -1;
    std::fprintf(stderr, "lvf2_top: connection to %s lost\n", target.c_str());
    return std::nullopt;
  }
  const std::optional<obs::JsonValue> doc = obs::json_parse(reply);
  if (!doc || !doc->is_object()) {
    std::fprintf(stderr, "lvf2_top: unparseable response\n");
    return std::nullopt;
  }
  if (doc->string_or("status", "") != "ok") {
    std::fprintf(stderr, "lvf2_top: metrics op failed: %s\n",
                 doc->string_or("error", "?").c_str());
    return std::nullopt;
  }
  const obs::JsonValue* result = doc->find("result");
  if (result == nullptr) {
    std::fprintf(stderr, "lvf2_top: response has no result\n");
    return std::nullopt;
  }
  return *result;
}

double q_of(const obs::JsonValue& row, const char* block, const char* q) {
  if (const obs::JsonValue* b = row.find(block); b != nullptr) {
    return b->number_or(q, 0.0);
  }
  return 0.0;
}

/// Per-op request totals and uptime of the previous frame, for QPS.
struct PrevFrame {
  double uptime_s = 0.0;
  std::map<std::string, double> requests;
};

void render(const obs::JsonValue& snap, PrevFrame& prev) {
  const double uptime = snap.number_or("uptime_s", 0.0);
  std::printf("lvf2d  up %.0fs  queue %d  inflight %d  budget %.0fms\n",
              uptime,
              static_cast<int>(snap.number_or("queue_depth", 0.0)),
              static_cast<int>(snap.number_or("inflight", 0.0)),
              snap.number_or("deadline_budget_ms", 0.0));
  std::printf(
      "%-10s %7s %7s %7s | %6s %6s %6s | %6s %6s %6s | %7s\n", "op",
      "req", "resp", "qps", "q_p50", "q_p95", "q_p99", "x_p50", "x_p95",
      "x_p99", "slo");
  const obs::JsonValue* ops = snap.find("ops");
  if (ops == nullptr || !ops->is_object()) return;
  const double span = uptime - prev.uptime_s;
  for (const auto& [name, row] : ops->object) {
    const double requests = row.number_or("requests", 0.0);
    const double qps =
        span > 0.0 ? (requests - prev.requests[name]) / span : 0.0;
    prev.requests[name] = requests;
    const double dl_total = q_of(row, "deadline", "total");
    std::string slo = "-";
    if (dl_total > 0.0) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%5.1f%%",
                    100.0 * q_of(row, "deadline", "compliance"));
      slo = buf;
    }
    std::printf(
        "%-10s %7.0f %7.0f %7.1f | %6.1f %6.1f %6.1f | %6.1f %6.1f "
        "%6.1f | %7s\n",
        name.c_str(), requests, row.number_or("responded", 0.0), qps,
        q_of(row, "queue_ms", "p50"),
        q_of(row, "queue_ms", "p95"), q_of(row, "queue_ms", "p99"),
        q_of(row, "exec_ms", "p50"), q_of(row, "exec_ms", "p95"),
        q_of(row, "exec_ms", "p99"), slo.c_str());
    if (const obs::JsonValue* rungs = row.find("degradation");
        rungs != nullptr && rungs->is_object()) {
      std::string mix;
      for (const auto& [rung, count] : rungs->object) {
        const double n =
            count.type == obs::JsonValue::Type::kNumber ? count.number : 0.0;
        if (n <= 0.0 || rung == "none") continue;
        mix += ' ' + rung + '=' + std::to_string(static_cast<long long>(n));
      }
      if (!mix.empty()) std::printf("           degraded:%s\n", mix.c_str());
    }
  }
  prev.uptime_s = uptime;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect = "unix:/tmp/lvf2d.sock";
  int interval_ms = 1000;
  long count = 0;  // 0 = forever
  bool once = false;
  bool prometheus = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--connect" && value != nullptr) {
      connect = value;
      ++i;
    } else if (arg == "--interval-ms" && value != nullptr) {
      interval_ms = std::atoi(value);
      ++i;
    } else if (arg == "--count" && value != nullptr) {
      count = std::atol(value);
      ++i;
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--prometheus") {
      prometheus = true;
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr,
                   "usage: lvf2_top --connect unix:<path>|tcp:<port> "
                   "[--interval-ms N] [--count N] [--once] [--json] "
                   "[--prometheus]\n");
      return 2;
    }
  }
  if (once) count = 1;
  if (interval_ms < 10) interval_ms = 10;

  int fd = -1;
  long shown = 0;
  PrevFrame prev;
  while (count == 0 || shown < count) {
    const std::optional<obs::JsonValue> snap =
        fetch(fd, connect, prometheus);
    if (!snap) {
      if (fd >= 0) ::close(fd);
      return 2;
    }
    if (prometheus) {
      std::fputs(snap->string_or("text", "").c_str(), stdout);
    } else if (json) {
      std::printf("%s\n", obs::json_write(*snap).c_str());
    } else {
      if (!once && shown > 0) std::printf("\n");
      render(*snap, prev);
    }
    std::fflush(stdout);
    ++shown;
    if (count != 0 && shown >= count) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  if (fd >= 0) ::close(fd);
  return 0;
}
