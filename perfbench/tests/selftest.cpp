// Tests of the benchmark's own machinery: the tail selector, the
// metric-name rule, the result-line schema and the closed-loop
// client's accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <thread>

#include "bench.h"
#include "client.h"
#include "obs/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailSelector, PicksHighestLadderPercentileWithTenBeyond) {
  // 2000 samples: p99 leaves 20 beyond.
  Tail t = tail_of(iota(2000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 1980.0);
  EXPECT_EQ(t.count, 2000u);
  // Exactly 10 beyond qualifies: 1000 samples at p99.
  t = tail_of(iota(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  // The ladder tops out at p99, however many samples there are.
  t = tail_of(iota(50000));
  EXPECT_EQ(t.percentile, 99.0);
  // 999 samples: p99 leaves 9 beyond, p95 leaves 49.
  t = tail_of(iota(999));
  EXPECT_EQ(t.percentile, 95.0);
  // 200 samples: p95 leaves 10 beyond, p99 only 2.
  t = tail_of(iota(200));
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.value, 190.0);
}

TEST(TailSelector, ShortSamplesReportTheMaximum) {
  const Tail t = tail_of({3.0, 1.0, 2.0});
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.value, 3.0);
  EXPECT_EQ(t.count, 3u);
  EXPECT_EQ(tail_of({}).count, 0u);
  EXPECT_EQ(describe_tail(tail_of(iota(2000))), "p99 of 2000");
}

TEST(TailSelector, NeverLeavesFewerThanTenBeyond) {
  for (std::size_t n = 20; n < 3000; n += 37) {
    const std::vector<double> v = iota(n);
    const Tail t = tail_of(v);
    std::size_t beyond = 0;
    for (const double x : v) beyond += x > t.value ? 1 : 0;
    EXPECT_GE(beyond, 10u) << "n=" << n;
  }
}

TEST(MetricNames, FollowTheRule) {
  EXPECT_TRUE(valid_metric_name("ops_per_s"));
  EXPECT_TRUE(valid_metric_name("core.fit.lvf2.p50_ms"));
  EXPECT_TRUE(valid_metric_name("9-lives"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit("m s"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(MetricNames, EveryPerLayerMetricIsValidAndUnique) {
  PerLayer pl;
  RunResult r;
  pl.emit(r);
  EXPECT_TRUE(r.correct);
  EXPECT_LE(r.metrics.size(), 128u);
  std::set<std::string> names;
  for (const Metric& m : r.metrics) {
    EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(valid_unit(m.unit)) << m.unit;
    EXPECT_TRUE(names.insert(m.name).second) << m.name;
  }
  for (const std::string& layer : layer_names()) {
    EXPECT_TRUE(names.count(layer + ".self_ms")) << layer;
  }
  pl.set("no.such.metric", 1.0);
  RunResult bad;
  pl.emit(bad);
  EXPECT_FALSE(bad.correct);
}

TEST(ResultSchema, HasExactlyTheFourKeys) {
  RunResult r;
  r.attempted = 12;
  r.failed = 1;
  r.add("ops_per_s", 12.345678901234567, "1/s");
  r.add("setup_s", 0.25, "s");
  const std::string line = result_json(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto doc = lvf2::obs::json_parse(line);
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->type, lvf2::obs::JsonValue::Type::kObject);
  ASSERT_EQ(doc->object.size(), 4u);
  EXPECT_EQ(doc->object[0].first, "correct");
  EXPECT_EQ(doc->object[1].first, "attempted");
  EXPECT_EQ(doc->object[2].first, "failed");
  EXPECT_EQ(doc->object[3].first, "metrics");
  EXPECT_TRUE(doc->find("correct")->boolean);
  EXPECT_EQ(doc->number_or("attempted", 0), 12.0);
  EXPECT_EQ(doc->number_or("failed", 0), 1.0);
  const auto* m = doc->find("metrics")->find("ops_per_s");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->number_or("value", 0), 12.345678901234567);  // all digits
  EXPECT_EQ(m->string_or("unit", ""), "1/s");
  EXPECT_EQ(m->object.size(), 2u);
}

TEST(ResultSchema, BadMetricsFailTheRunInsteadOfTheLine) {
  RunResult r;
  r.add("bad name", 1.0, "s");
  r.add("nan_metric", std::nan(""), "s");
  r.add("dup", 1.0, "s");
  r.add("dup", 2.0, "s");
  EXPECT_FALSE(r.correct);
  const auto doc = lvf2::obs::json_parse(result_json(r));
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(doc->find("correct")->boolean);
  EXPECT_EQ(doc->find("metrics")->object.size(), 2u);  // nan_metric, dup
}

std::vector<RequestSpec> mix() {
  std::vector<RequestSpec> seq(3);
  seq[0].op = "ping";
  seq[1].op = "arc_dist";
  seq[1].op_class = OpClass::kTable;
  seq[2].op = "path_ssta";
  seq[2].op_class = OpClass::kCompute;
  return seq;
}

TEST(ClosedLoop, AccountsEveryRequestAndBoundsOutstanding) {
  std::atomic<int> outstanding{0};
  std::atomic<int> max_outstanding{0};
  const auto connect = [&](std::size_t) -> Exchange {
    return [&](const std::string& body) -> std::optional<std::string> {
      const int now = ++outstanding;
      int prev = max_outstanding.load();
      while (now > prev && !max_outstanding.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      --outstanding;
      return body;  // echo
    };
  };
  std::atomic<std::uint64_t> validated{0};
  const Validate validate = [&](const RequestSpec&, std::uint64_t id,
                                const std::string& body) {
    ++validated;
    // Every other request is judged invalid.
    return body.find("\"id\":" + std::to_string(id) + ",") !=
               std::string::npos &&
           id % 2 == 0;
  };
  LoopConfig config;
  config.clients = 3;
  config.seconds = 0.2;
  const LoopResult r = run_closed_loop(config, mix(), connect, validate);
  EXPECT_GT(r.sent, 30u);
  EXPECT_EQ(r.answered, r.sent);
  EXPECT_EQ(validated.load(), r.sent);
  EXPECT_EQ(r.failed(), r.sent - r.valid);
  EXPECT_NEAR(static_cast<double>(r.valid), r.sent / 2.0, 1.0);
  EXPECT_LE(max_outstanding.load(), 3);  // closed loop: one per client
  EXPECT_EQ(r.all_latencies().size(), r.answered);
  // Round-robin over the sequence: the classes split evenly.
  for (const auto& per_class : r.latency_ms) {
    EXPECT_NEAR(static_cast<double>(per_class.size()), r.sent / 3.0, 2.0);
  }
  EXPECT_GT(r.wall_ms, 150.0);
}

TEST(ClosedLoop, ConnectionFailureCountsAsSentNotAnswered) {
  const auto connect = [&](std::size_t i) -> Exchange {
    if (i == 1) {
      return [](const std::string&) -> std::optional<std::string> {
        return std::nullopt;
      };
    }
    return [](const std::string& b) -> std::optional<std::string> {
      return b;
    };
  };
  LoopConfig config;
  config.clients = 2;
  config.seconds = 0.05;
  std::vector<Tracer> tracers(2, Tracer(Clock::now()));
  config.tracers = &tracers;
  const LoopResult r = run_closed_loop(
      config, mix(), connect,
      [](const RequestSpec&, std::uint64_t, const std::string&) {
        return true;
      });
  EXPECT_EQ(r.connection_failures, 1u);
  EXPECT_EQ(r.answered + 1, r.sent);
  EXPECT_EQ(r.failed(), 1u);
  EXPECT_EQ(tracers[1].spans().size(), 1u);
  EXPECT_EQ(tracers[0].spans().size(), r.answered);
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer t(Clock::now());
  {
    Scope outer(&t, "cells.entry", "cells");
    Scope inner(&t, "core.fit.lvf2", "core");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const LayerTimes lt = layer_self_times({&t});
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  double cells = -1, core = -1;
  for (const auto& [layer, ms] : lt.self_ms) {
    if (layer == "cells") cells = ms;
    if (layer == "core") core = ms;
  }
  EXPECT_GE(core, 4.5);
  EXPECT_GE(cells, 0.0);
  EXPECT_LT(cells, core);
  EXPECT_NEAR(lt.covered_ms, cells + core, 1e-9);
}

}  // namespace
}  // namespace perfbench
