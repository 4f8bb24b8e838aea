#pragma once
// Closed-loop load generator for the `serve` workload: a fixed number
// of client connections, each sending its next request only after the
// previous answer arrived, drawing requests in order from one shared
// seeded sequence until the time budget ends. The transport is a
// callback so the accounting can be tested without a server.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

enum class OpClass : int { kLight = 0, kTable = 1, kCompute = 2 };
inline constexpr std::size_t kOpClasses = 3;
const char* op_class_name(OpClass c);

struct RequestSpec {
  std::string op;
  std::string params;  ///< JSON object text
  OpClass op_class = OpClass::kLight;
  std::size_t key = 0;  ///< table-entry key index (table/compute ops)
  /// Layer a client-side span of this request is attributed to.
  std::string layer = "serve";
};

/// One client's connection: sends a request frame body and returns the
/// response body, or nullopt when the connection failed.
using Exchange = std::function<std::optional<std::string>(const std::string&)>;

/// Verdict on one answer: ok status, degradation "none", matching id.
/// `body` is the response; `id` the request id that was sent.
using Validate = std::function<bool(const RequestSpec& spec,
                                    std::uint64_t id,
                                    const std::string& body)>;

struct LoopResult {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;  ///< a response body came back
  std::uint64_t valid = 0;     ///< ...and it passed validation
  std::uint64_t connection_failures = 0;
  double wall_ms = 0.0;
  /// Latency of every answered request, per op class.
  std::array<std::vector<double>, kOpClasses> latency_ms;

  std::uint64_t failed() const { return sent - valid; }
  std::vector<double> all_latencies() const;
};

struct LoopConfig {
  std::size_t clients = 4;
  double seconds = 10.0;
  /// Optional per-client tracers (size == clients): one span per
  /// request, group = request id.
  std::vector<Tracer>* tracers = nullptr;
};

/// Renders the frame body of request `id`.
std::string request_body(const RequestSpec& spec, std::uint64_t id);

/// Runs the closed loop. `connect(i)` makes client i's connection;
/// request n of the run (across all clients) is sequence[n % size].
/// A client whose connection fails counts the request as sent and not
/// answered, and stops. Requests that started before the deadline are
/// always completed (closed loop: at most `clients` outstanding).
LoopResult run_closed_loop(const LoopConfig& config,
                           const std::vector<RequestSpec>& sequence,
                           const std::function<Exchange(std::size_t)>& connect,
                           const Validate& validate);

/// A unix-socket Exchange speaking the lvf2d frame protocol; nullopt
/// when the socket cannot be connected. The connection closes when
/// the last copy of the Exchange is destroyed.
std::optional<Exchange> unix_exchange(const std::string& path);

}  // namespace perfbench
