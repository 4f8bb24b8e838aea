// Workload `serve`: an in-process serve::Server on a unix socket,
// driven by a closed loop of client connections from this process.
// The seeded mix has light ops (ping, stats), table ops (arc_dist,
// bin, yield3) over a fixed set of K entries, so exactly K full
// characterizations run and every later table op is an LRU hit, and
// per-request compute ops (path_ssta, yield_hs) on the same entries.
// No deadlines, no unknown cells, no faults: every answer must be ok
// with degradation "none". The only workload for serve queueing, the
// LRU and the yield engine; EM is limited to the K misses.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "cells/characterize.h"
#include "cells/library.h"
#include "client.h"
#include "core/binning.h"
#include "core/lvf2_model.h"
#include "core/lvf_model.h"
#include "core/metrics.h"
#include "exec/pool.h"
#include "obs/json.h"
#include "serve/server.h"
#include "stats/descriptive.h"
#include "stats/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace lvf2;

// The K table entries: one per cell below, arc 0, cycling through the
// corners of the 2x2 sub-grid (stride 7) of the paper grid. Fixed, so
// the seed moves only the Monte-Carlo streams and the request order.
const char* const kKeyCells[] = {
    "INV_X1",  "BUFF_X1",  "NAND2_X1", "NAND3_X2", "NOR2_X1", "NOR4_X1",
    "AND2_X2", "AND3_X1", "OR2_X2",   "OR4_X1",   "XOR2_X1", "XNOR3_X1",
    "MUX2_X1", "MUX4_X2", "FA_X1",    "HA_X1"};
constexpr std::size_t kKeys = std::size(kKeyCells);
constexpr std::size_t kGridStride = 7;
constexpr std::size_t kMcSamples = 5000;  // per distribution

// The traffic follows tools/lvf2d_soak: the seven ops in equal shares
// (so 2/7 light, 3/7 table, 2/7 compute), path_ssta at a depth drawn
// from 2..11, yield_hs at 3 sigma with at most 2048 samples. Unlike the
// soak there are no deadlines, no unknown cells and no faults, and the
// table keys are the K entries above rather than the whole grid.
struct MixItem {
  const char* op;
  OpClass op_class;
};
constexpr MixItem kMix[] = {
    {"ping", OpClass::kLight},       {"stats", OpClass::kLight},
    {"arc_dist", OpClass::kTable},   {"bin", OpClass::kTable},
    {"yield3", OpClass::kTable},     {"path_ssta", OpClass::kCompute},
    {"yield_hs", OpClass::kCompute}};
constexpr std::size_t kMinPathDepth = 2;
constexpr std::size_t kPathDepths = 10;  // depths 2..11
constexpr double kYieldSigma = 3.0;
constexpr std::size_t kYieldMaxSamples = 2048;
// Blocks of one request per op, each shuffled by the seed: more than a
// run sends (the loop wraps around if it ever gets there).
constexpr std::size_t kBlocks = 4000;

struct Key {
  std::string cell;
  std::size_t load_idx = 0;
  std::size_t slew_idx = 0;
};

std::vector<Key> make_keys() {
  std::vector<Key> keys;
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys.push_back(Key{kKeyCells[i], i % 2, (i / 2) % 2});
  }
  return keys;
}

std::string key_params(const Key& k) {
  return "\"cell\":\"" + k.cell + "\",\"arc\":0,\"load_idx\":" +
         std::to_string(k.load_idx) + ",\"slew_idx\":" +
         std::to_string(k.slew_idx);
}

std::vector<RequestSpec> make_sequence(std::uint64_t seed,
                                       const std::vector<Key>& keys) {
  std::mt19937_64 rng(stats::combine_seed(seed, 0x6d6978));
  std::vector<RequestSpec> block;
  for (const MixItem& item : kMix) {
    RequestSpec spec;
    spec.op = item.op;
    spec.op_class = item.op_class;
    if (spec.op == "path_ssta") spec.layer = "ssta";
    if (spec.op == "yield_hs") spec.layer = "yield";
    block.push_back(spec);
  }
  std::vector<RequestSpec> out;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    std::shuffle(block.begin(), block.end(), rng);
    for (RequestSpec spec : block) {
      if (spec.op_class != OpClass::kLight) {
        spec.key = static_cast<std::size_t>(rng() % keys.size());
        std::string params = "{";
        params += key_params(keys[spec.key]);
        if (spec.op == "path_ssta") {
          params += ",\"depth\":" +
                    std::to_string(kMinPathDepth + rng() % kPathDepths);
        } else if (spec.op == "yield_hs") {
          char buf[64];
          std::snprintf(buf, sizeof(buf), ",\"sigma\":%g,\"max_samples\":%zu",
                        kYieldSigma, kYieldMaxSamples);
          params += buf;
        }
        spec.params = params + "}";
      }
      out.push_back(std::move(spec));
    }
  }
  return out;
}

// The served library is deployment configuration, fixed across seeds
// (the library's own seed defaults); the seed drives the traffic. A
// seeded characterization made the per-entry yield_hs cost, and with
// it throughput, differ by up to 25 % between seeds.
serve::ServerOptions server_options(const std::string& socket_path) {
  serve::ServerOptions o;
  o.listen = "unix:" + socket_path;
  o.default_deadline_ms = 0.0;
  o.characterize.grid = cells::SlewLoadGrid::reduced(kGridStride);
  o.characterize.mc_samples = kMcSamples;
  return o;
}

const obs::JsonValue* path_of(const obs::JsonValue& v,
                              std::initializer_list<const char*> keys) {
  const obs::JsonValue* cur = &v;
  for (const char* k : keys) {
    cur = cur->find(k);
    if (cur == nullptr) return nullptr;
  }
  return cur;
}

double number_at(const obs::JsonValue& v,
                 std::initializer_list<const char*> keys) {
  const obs::JsonValue* n = path_of(v, keys);
  return n != nullptr && n->type == obs::JsonValue::Type::kNumber ? n->number
                                                                  : 0.0;
}

stats::SnMoments moments_of(const obs::JsonValue& v) {
  return stats::SnMoments{v.number_or("mean", NAN), v.number_or("stddev", NAN),
                          v.number_or("skewness", NAN)};
}

core::Lvf2Parameters lvf2_of(const obs::JsonValue& v) {
  core::Lvf2Parameters p;
  p.lambda = v.number_or("lambda", NAN);
  if (const auto* t = v.find("theta1")) p.theta1 = moments_of(*t);
  if (const auto* t = v.find("theta2")) p.theta2 = moments_of(*t);
  return p;
}

bool close(double a, double b) {
  // Responses render numbers at %.9g.
  return std::fabs(a - b) <=
         1e-8 * std::max({std::fabs(a), std::fabs(b), 1e-12});
}

bool close_moments(const stats::SnMoments& a, const stats::SnMoments& b) {
  return close(a.mean, b.mean) && close(a.stddev, b.stddev) &&
         close(a.skewness, b.skewness);
}

bool close_lvf2(const core::Lvf2Parameters& a, const core::Lvf2Parameters& b) {
  return close(a.lambda, b.lambda) && close_moments(a.theta1, b.theta1) &&
         close_moments(a.theta2, b.theta2);
}

double reduction(const stats::SnMoments& lvf, const core::Lvf2Parameters& lvf2,
                 const stats::EmpiricalCdf& cdf, bool binning) {
  const core::LvfModel base = core::LvfModel::from_moments(lvf);
  const core::Lvf2Model model = core::Lvf2Model::from_parameters(lvf2);
  const std::size_t n = cdf.size();
  if (binning) {
    return core::error_reduction(core::binning_error(base, cdf),
                                 core::binning_error(model, cdf),
                                 core::binning_error_floor(n));
  }
  return core::error_reduction(core::cdf_rmse(base, cdf),
                               core::cdf_rmse(model, cdf),
                               core::cdf_rmse_floor(n));
}

// The server's queue/exec digests per op, folded into op classes by
// taking the worst op of the class. The tail is p99 when the op has at
// least 1000 samples, else p95 (>= 200), else p50 — the digest's
// percentiles that leave at least 10 samples beyond them.
void set_server_split(PerLayer& pl, const obs::JsonValue& snapshot) {
  for (std::size_t c = 0; c < kOpClasses; ++c) {
    const OpClass cls = static_cast<OpClass>(c);
    double q50 = 0.0, qt = 0.0, e50 = 0.0, et = 0.0;
    for (const MixItem& item : kMix) {
      if (item.op_class != cls) continue;
      const auto tail = [&](const char* which) {
        const double n = number_at(snapshot, {"ops", item.op, which, "count"});
        const char* p = n >= 1000 ? "p99" : n >= 200 ? "p95" : "p50";
        return number_at(snapshot, {"ops", item.op, which, p});
      };
      q50 = std::max(q50, number_at(snapshot, {"ops", item.op, "queue_ms", "p50"}));
      e50 = std::max(e50, number_at(snapshot, {"ops", item.op, "exec_ms", "p50"}));
      qt = std::max(qt, tail("queue_ms"));
      et = std::max(et, tail("exec_ms"));
    }
    const std::string p = std::string("serve.") + op_class_name(cls);
    pl.set(p + ".queue_p50_ms", q50);
    pl.set(p + ".queue_tail_ms", qt);
    pl.set(p + ".exec_p50_ms", e50);
    pl.set(p + ".exec_tail_ms", et);
  }
}

}  // namespace

RunResult run_serve(const Options& options) {
  RunResult result;
  const std::string socket_path = options.work_dir + "/serve.sock";
  // Half the cores: each connection also wakes a server reader thread,
  // and the dispatcher and pool share the rest, so more clients would
  // measure the host scheduler rather than the server.
  const std::size_t clients =
      std::max<std::size_t>(1, exec::thread_count() / 2);
  const std::vector<Key> keys = make_keys();
  const std::vector<RequestSpec> sequence = make_sequence(options.seed, keys);

  std::unique_ptr<serve::Server> server;
  std::vector<Exchange> connections;
  const auto setup = [&] {
    server = std::make_unique<serve::Server>(server_options(socket_path));
    if (!server->start().is_ok()) return;
    exec::parallel_for(exec::thread_count(), 1, [](std::size_t) {});
    for (std::size_t i = 0; i < clients; ++i) {
      if (auto ex = unix_exchange(socket_path)) connections.push_back(*ex);
    }
  };
  if (options.setup_probe) {
    const double setup_s = time_setup_s(setup);
    if (connections.size() == clients) result.add("setup_s", setup_s, "s");
    connections.clear();
    server.reset();
    return result;
  }
  setup();
  if (connections.size() != clients) {
    result.fail_check("could not start the server or connect " +
                      std::to_string(clients) + " clients on " + socket_path);
    result.attempted = 1;
    result.failed = 1;
    return result;
  }

  // Validation: ok status, degradation "none", echoed id. The first
  // arc_dist answer per key is kept for the direct-compute comparison.
  std::mutex answers_mutex;
  std::map<std::size_t, obs::JsonValue> arc_answers;
  const Validate validate = [&](const RequestSpec& spec, std::uint64_t id,
                                const std::string& body) {
    const std::optional<obs::JsonValue> doc = obs::json_parse(body);
    if (!doc || doc->number_or("id", -1.0) != static_cast<double>(id) ||
        doc->string_or("status", "") != "ok" ||
        doc->string_or("degradation", "") != "none") {
      return false;
    }
    const obs::JsonValue* res = doc->find("result");
    if (res == nullptr) return false;
    if (spec.op == "arc_dist") {
      std::lock_guard<std::mutex> lock(answers_mutex);
      arc_answers.emplace(spec.key, *res);
    }
    return true;
  };

  // Warm-up: one arc_dist per key, spread over the connections, makes
  // the K full characterizations (and fills the LRU) before timing, so
  // the timed loop measures steady-state serving rather than the cold
  // start. The answers are the ones compared with a direct compute.
  const Clock::time_point warm0 = Clock::now();
  std::vector<int> warm_ok(kKeys, 0);
  {
    std::vector<std::thread> warmers;
    for (std::size_t c = 0; c < clients; ++c) {
      warmers.emplace_back([&, c] {
        for (std::size_t k = c; k < kKeys; k += clients) {
          std::string params = "{";
          params += key_params(keys[k]);
          params += '}';
          const RequestSpec spec{"arc_dist", params, OpClass::kTable, k};
          const auto reply = connections[c](request_body(spec, k + 1));
          warm_ok[k] = reply && validate(spec, k + 1, *reply) ? 1 : 0;
        }
      });
    }
    for (std::thread& t : warmers) t.join();
  }
  const double warm_ms = ms_since(warm0);
  result.attempted += kKeys;
  for (std::size_t k = 0; k < kKeys; ++k) {
    if (warm_ok[k]) continue;
    ++result.failed;
    result.fail_check("no valid answer for " + keys[k].cell);
  }

  std::vector<Tracer> tracers;
  const Clock::time_point origin = Clock::now();
  if (options.trace) tracers.assign(clients, Tracer(origin));
  LoopConfig config;
  config.clients = clients;
  config.seconds = options.seconds;
  config.tracers = options.trace ? &tracers : nullptr;
  LoopResult loop;
  {
    // Keeps the CPUs out of their idle halt while requests wake threads.
    const IdleSpinners spinners(std::thread::hardware_concurrency());
    loop = run_closed_loop(
        config, sequence, [&](std::size_t i) { return connections[i]; },
        validate);
  }
  const double traced_wall_ms = ms_since(origin);

  result.attempted += loop.sent;
  result.failed += loop.failed();
  if (loop.valid != loop.sent) {
    result.fail_check(std::to_string(loop.sent - loop.valid) + " of " +
                      std::to_string(loop.sent) +
                      " requests unanswered, not ok or degraded");
  }

  // The server's own view, snapshotted once the loop is done.
  std::optional<obs::JsonValue> snapshot;
  if (auto reply = connections[0](request_body({"metrics", "{}"}, 0))) {
    if (auto doc = obs::json_parse(*reply)) {
      if (const obs::JsonValue* r = doc->find("result")) snapshot = *r;
    }
  }
  connections.clear();
  server.reset();
  if (!snapshot) {
    result.fail_check("no metrics snapshot from the server");
    return result;
  }
  double requests = 0.0;
  double responded = 0.0;
  for (const MixItem& item : kMix) {
    requests += number_at(*snapshot, {"ops", item.op, "requests"});
    responded += number_at(*snapshot, {"ops", item.op, "responded"});
  }
  if (requests != responded ||
      responded != static_cast<double>(loop.answered + kKeys)) {
    result.fail_check("server accepted " + std::to_string(requests) +
                      ", responded " + std::to_string(responded) +
                      ", client received " + std::to_string(loop.answered));
  }
  const double full_computes =
      number_at(*snapshot, {"registry", "counters", "characterize.entries"});
  if (full_computes != static_cast<double>(kKeys)) {
    result.fail_check("expected " + std::to_string(kKeys) +
                      " full computes, server made " +
                      std::to_string(full_computes));
  }

  // Table answers against a direct characterize_entry of the same key,
  // and LVF^2 accuracy of the served parameters against golden samples.
  const serve::ServerOptions so = server_options(socket_path);
  const cells::Characterizer characterizer(so.corner, so.characterize);
  const cells::StandardCellLibrary library =
      cells::build_paper_library(so.library);
  std::vector<double> bin_x(kKeys * 2, 0.0);
  std::vector<double> rmse_x(kKeys * 2, 0.0);
  std::vector<int> mismatch(kKeys, 0);
  exec::parallel_for(kKeys, 1, [&](std::size_t k) {
    const cells::Cell* cell = library.find(keys[k].cell);
    const auto it = arc_answers.find(k);
    const obs::JsonValue* fields[4] = {};
    if (it != arc_answers.end()) {
      fields[0] = it->second.find("delay");
      fields[1] = it->second.find("transition");
      fields[2] = it->second.find("lvf2_delay");
      fields[3] = it->second.find("lvf2_transition");
    }
    if (cell == nullptr || std::count(fields, fields + 4, nullptr) > 0) {
      mismatch[k] = 1;
      return;
    }
    const cells::TimingArc& arc = cell->arcs.front();
    const cells::ConditionCharacterization direct =
        characterizer.characterize_entry(*cell, arc, arc.label(),
                                         keys[k].load_idx, keys[k].slew_idx);
    const stats::SnMoments delay = moments_of(*fields[0]);
    const stats::SnMoments tran = moments_of(*fields[1]);
    const core::Lvf2Parameters lvf2_delay = lvf2_of(*fields[2]);
    const core::Lvf2Parameters lvf2_tran = lvf2_of(*fields[3]);
    if (!close_moments(delay, direct.lvf_delay) ||
        !close_moments(tran, direct.lvf_transition) ||
        !close_lvf2(lvf2_delay, direct.lvf2_delay) ||
        !close_lvf2(lvf2_tran, direct.lvf2_transition)) {
      mismatch[k] = 1;
      return;
    }
    const spice::McResult golden = characterizer.golden_samples(
        *cell, arc, keys[k].load_idx, keys[k].slew_idx);
    const stats::EmpiricalCdf dcdf(golden.delay_ns);
    const stats::EmpiricalCdf tcdf(golden.transition_ns);
    bin_x[2 * k] = reduction(delay, lvf2_delay, dcdf, true);
    bin_x[2 * k + 1] = reduction(tran, lvf2_tran, tcdf, true);
    rmse_x[2 * k] = reduction(delay, lvf2_delay, dcdf, false);
    rmse_x[2 * k + 1] = reduction(tran, lvf2_tran, tcdf, false);
  });
  std::size_t mismatches = 0;
  for (const int m : mismatch) mismatches += static_cast<std::size_t>(m);
  if (mismatches > 0) {
    result.fail_check(std::to_string(mismatches) +
                      " served entries differ from a direct characterization");
    result.failed += mismatches;
  }

  char line[200];
  std::snprintf(line, sizeof(line),
                "serve: %zu closed-loop clients, %llu requests, K=%zu entries "
                "(%zu MC samples per distribution) warmed in %.1f ms",
                clients, static_cast<unsigned long long>(loop.sent), kKeys,
                kMcSamples, warm_ms);
  result.note(line);

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = options.setup_s;
    e2e.ops_per_s =
        static_cast<double>(loop.answered) * 1000.0 / loop.wall_ms;
    e2e.op_latency_ms = loop.all_latencies();
    e2e.lvf2_binning_x = geomean(bin_x);
    e2e.lvf2_cdf_rmse_x = geomean(rmse_x);
    result.note(accuracy_note("binning_x", bin_x));
    result.note(accuracy_note("cdf_rmse_x", rmse_x));
    for (std::size_t c = 0; c < kOpClasses; ++c) {
      const Tail t = tail_of(loop.latency_ms[c]);
      std::snprintf(line, sizeof(line), "serve %s: p50 %.3f ms, tail %.3f ms (%s)",
                    op_class_name(static_cast<OpClass>(c)),
                    median(loop.latency_ms[c]), t.value,
                    describe_tail(t).c_str());
      result.note(line);
    }
    add_end_to_end(result, e2e);
    return result;
  }

  PerLayer pl;
  for (std::size_t c = 0; c < kOpClasses; ++c) {
    const std::string p =
        std::string("serve.") + op_class_name(static_cast<OpClass>(c));
    const Tail t = tail_of(loop.latency_ms[c]);
    pl.set(p + ".requests", static_cast<double>(loop.latency_ms[c].size()));
    pl.set(p + ".p50_ms", median(loop.latency_ms[c]));
    pl.set(p + ".tail_ms", t.value);
    pl.set(p + ".tail_pct", t.percentile);
  }
  set_server_split(pl, *snapshot);
  const double hits = number_at(*snapshot, {"registry", "counters", "serve.lru.hit"});
  const double misses =
      number_at(*snapshot, {"registry", "counters", "serve.lru.miss"});
  pl.set("serve.lru_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  pl.set("serve.full_computes", full_computes);
  pl.set("serve.coalesced",
         number_at(*snapshot, {"registry", "counters", "serve.coalesced"}));
  const double hs_requests = number_at(*snapshot, {"ops", "yield_hs", "requests"});
  const double is_samples =
      number_at(*snapshot, {"registry", "counters", "yield.is.samples"});
  pl.set("yield.is_samples_per_req", hs_requests > 0 ? is_samples / hs_requests : 0.0);
  pl.set("yield.is_batches",
         number_at(*snapshot, {"registry", "counters", "yield.is.batches"}));
  pl.set("exec.threads", static_cast<double>(exec::thread_count()));
  std::vector<const Tracer*> views;
  for (const Tracer& t : tracers) views.push_back(&t);
  set_layer_times(pl, views, traced_wall_ms, static_cast<double>(clients));
  if (!write_trace_file(options.work_dir + "/serve.trace.json", views)) {
    result.note("could not write the span file");
  }
  pl.emit(result);
  return result;
}

}  // namespace perfbench
