#pragma once
// lvf2d request handlers: the query ops and the graceful-degradation
// chain behind them. Every op that needs a characterized table entry
// acquires it through a three-tier chain whose depth depends on how
// much compute the server is willing to spend on the request:
//
//   kFull       hot LRU -> result-cache shard -> full MC + EM fit
//   kShedLight  hot LRU -> result-cache shard -> 128-sample analytic
//               moments (single skew-normal, "single_sn")
//   kShedFloor  hot LRU -> result-cache shard -> nominal-only point
//               mass ("point_mass")
//
// kShedLight answers overload sheds (admission watermark crossed:
// some budget left, none to waste); kShedFloor answers deadline
// expiry and drain sheds (no budget at all). A shed answer is status
// ok with a non-"none" degradation tag — the client learns what
// quality it got, and nobody gets an error for being unlucky about
// arrival time (DESIGN.md decision 19).

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>

#include "cells/characterize.h"
#include "cells/library.h"
#include "core/status.h"
#include "obs/json.h"
#include "serve/lru.h"
#include "serve/protocol.h"
#include "spice/process.h"

namespace lvf2::serve {

/// How much compute a request is allowed to spend (see above).
enum class ExecMode {
  kFull,
  kShedLight,
  kShedFloor,
};

/// Long-lived handler state: the library being served, the
/// characterization configuration (grid / samples / corner), and the
/// hot-entry LRU. One per server; all methods thread-safe.
struct HandlerContext {
  cells::StandardCellLibrary library;
  spice::ProcessCorner corner = spice::ProcessCorner::tt_global_local_mc();
  cells::CharacterizeOptions characterize;
  HotLru lru;

  /// Single-flight coalescing state for identical-key full
  /// characterizations (acquire_entry): the first request through
  /// becomes the leader and computes; concurrent identical-key
  /// requests wait (counted in serve.coalesced) and re-read the
  /// caches when the leader finishes, instead of burning a pool slot
  /// on the same Monte Carlo.
  std::mutex flight_mutex;
  std::condition_variable flight_cv;
  std::unordered_set<std::uint64_t> inflight_keys;
};

/// Outcome of one handled request.
struct HandlerResult {
  core::Status status;
  std::string degradation = "none";
  obs::JsonValue result;
};

/// Executes one request under `mode`. Never throws: a deadline expiry
/// mid-compute is caught internally and re-answered from the
/// degradation floor; any other failure becomes the result's Status.
/// Ops: ping, stats, metrics, arc_dist, bin, yield3, path_ssta
/// (README "Serving" documents params and results).
HandlerResult handle_request(HandlerContext& ctx, const Request& request,
                             ExecMode mode);

// Per-op serving metrics, kept in the metrics registry as labeled
// series (obs/metrics.h) so the `metrics` op, the Prometheus scrape
// and the manifest all read one source:
//   counters serve.op.{requests,responded,ok,failed,deadline,
//            deadline_met}{op=...} and serve.op.degraded{op=...,rung=...}
//   digests  serve.op.{queue_ms,exec_ms}{op=...} (compression 64)
//   gauges   serve.{inflight,queue_depth,deadline_budget_ms,
//            uptime_seconds}
// The eight known ops plus "other" (everything else, so a hostile
// client cannot grow the registry) resolve their series once; recording
// is then relaxed atomic adds and two digest observations.

/// Counts a parsed request (reader thread, before admission).
void record_request(std::string_view op);

/// Counts an answered request (after its response was written).
/// `budget_ms` <= 0 means the request ran without a deadline; it met
/// its deadline when ok and queue_ms + exec_ms fit the budget.
void record_response(std::string_view op, bool ok,
                     std::string_view degradation, double queue_ms,
                     double exec_ms, double budget_ms);

/// The serving metrics snapshot, read from the registry: uptime_s,
/// queue_depth, inflight, deadline_budget_ms, the deadline block
/// {total,met,compliance,queue_p99_ms,exec_p99_ms} and one row per op
/// {requests,responded,ok,failed,degradation.{none,cached,single_sn,
/// point_mass},deadline.{total,met,compliance},queue_ms.{count,p50,
/// p95,p99},exec_ms.{...}}. The `metrics` op answers it (plus the full
/// registry); the manifest "serve_telemetry" section is it.
obs::JsonValue serve_metrics_json();

}  // namespace lvf2::serve
