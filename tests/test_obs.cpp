// Observability subsystem: metrics registry semantics, Chrome-trace
// JSON well-formedness (the emitted file must actually parse), log
// level filtering and structured formatting, and the guarantee that
// every sink is a no-op when its environment variable is unset.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace {

using namespace lvf2;

// --- A minimal strict JSON parser (objects, arrays, strings,
// numbers, true/false/null), enough to prove the emitted files are
// well-formed and to navigate them. ---

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    if (it == object.end()) {
      ADD_FAILURE() << "missing JSON key: " << key;
      static const JsonValue null_value;
      return null_value;
    }
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  void fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    pos_ = text_.size();
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end");
      return '\0';
    }
    return text_[pos_];
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    const char c = peek();
    if (c == '{') {
      v.type = JsonValue::Type::kObject;
      ++pos_;
      if (consume('}')) return v;
      do {
        skip_ws();
        if (peek() != '"') {
          fail("expected object key");
          return v;
        }
        const std::string key = parse_string();
        if (!consume(':')) {
          fail("expected ':'");
          return v;
        }
        v.object.emplace(key, parse_value());
      } while (consume(','));
      if (!consume('}')) fail("expected '}'");
    } else if (c == '[') {
      v.type = JsonValue::Type::kArray;
      ++pos_;
      if (consume(']')) return v;
      do {
        v.array.push_back(parse_value());
      } while (consume(','));
      if (!consume(']')) fail("expected ']'");
    } else if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.string = parse_string();
    } else if (c == 't' || c == 'f') {
      v.type = JsonValue::Type::kBool;
      const std::string_view word = (c == 't') ? "true" : "false";
      if (text_.substr(pos_, word.size()) != word) {
        fail("bad literal");
      } else {
        pos_ += word.size();
        v.boolean = (c == 't');
      }
    } else if (c == 'n') {
      if (text_.substr(pos_, 4) != "null") {
        fail("bad literal");
      } else {
        pos_ += 4;
      }
    } else {
      v.type = JsonValue::Type::kNumber;
      v.number = parse_number();
    }
    return v;
  }

  std::string parse_string() {
    std::string out;
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) {
              fail("bad \\u escape");
              return out;
            }
            out += '?';  // enough for well-formedness checking
            pos_ += 4;
            break;
          default: out += esc;
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
      return out;
    }
    ++pos_;  // closing quote
    return out;
  }

  double parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected number");
      return 0.0;
    }
    return std::atof(std::string(text_.substr(start, pos_ - start)).c_str());
  }

  std::string text_;
  std::size_t pos_ = 0;
  std::string error_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

// --- Metrics registry ---

TEST(MetricsRegistry, CounterAccumulatesAndIsStable) {
  obs::Counter& c = obs::counter("test.counter.a");
  const std::uint64_t before = c.value();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), before + 42);
  // Same name -> same instrument (stable address).
  EXPECT_EQ(&c, &obs::counter("test.counter.a"));
  EXPECT_NE(&c, &obs::counter("test.counter.b"));
}

TEST(MetricsRegistry, GaugeLastWriteWins) {
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST(MetricsRegistry, HistogramBucketsAndOverflow) {
  obs::Histogram& h = obs::histogram("test.hist", {1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (inclusive upper bound)
  h.observe(3.0);   // bucket 2 (<= 4)
  h.observe(100.0); // overflow bucket
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  // Re-lookup keeps the original bounds.
  obs::Histogram& again = obs::histogram("test.hist", {99.0});
  EXPECT_EQ(&again, &h);
  EXPECT_EQ(again.bounds().size(), 3u);
}

TEST(MetricsRegistry, HistogramEmptyBoundsIsAllOverflow) {
  obs::Histogram& h = obs::histogram("test.hist.empty", {});
  h.observe(-1.0);
  h.observe(0.0);
  h.observe(1e9);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 1u);  // overflow bucket only
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 1e9 - 1.0);
}

TEST(MetricsRegistry, HistogramNegativeValuesAndBounds) {
  obs::Histogram& h = obs::histogram("test.hist.neg", {-2.0, 0.0, 2.0});
  h.observe(-3.0);  // bucket 0 (<= -2)
  h.observe(-1.0);  // bucket 1 (<= 0)
  h.observe(-0.0);  // bucket 1 (inclusive upper bound)
  h.observe(1.5);   // bucket 2 (<= 2)
  h.observe(2.5);   // overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_DOUBLE_EQ(h.sum(), -3.0 - 1.0 + 1.5 + 2.5);
}

TEST(MetricsRegistry, HistogramConcurrentObserveLosesNothing) {
  obs::Histogram& h = obs::histogram("test.hist.mt", {10.0, 20.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(t * 10));  // buckets 0,0,1,2
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u * kPerThread);  // values 0 and 10
  EXPECT_EQ(counts[1], 1u * kPerThread);  // value 20
  EXPECT_EQ(counts[2], 1u * kPerThread);  // value 30 overflows
  EXPECT_DOUBLE_EQ(h.sum(), (0.0 + 10.0 + 20.0 + 30.0) * kPerThread);
}

TEST(MetricsRegistry, JsonDumpParsesAndContainsInstruments) {
  obs::counter("test.json.counter").add(7);
  obs::gauge("test.json.gauge").set(3.5);
  obs::histogram("test.json.hist", {10.0}).observe(5.0);

  const std::string json = obs::MetricsRegistry::instance().to_json();
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error() << "\n" << json;
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  EXPECT_GE(root.at("counters").at("test.json.counter").number, 7.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("test.json.gauge").number, 3.5);
  const JsonValue& hist = root.at("histograms").at("test.json.hist");
  EXPECT_EQ(hist.at("bounds").array.size(), 1u);
  EXPECT_EQ(hist.at("counts").array.size(), 2u);
  EXPECT_GE(hist.at("count").number, 1.0);
}

TEST(MetricsRegistry, DigestInstrumentSnapshotsAndExports) {
  obs::Digest& d = obs::digest("test.digest.latency");
  for (int i = 1; i <= 200; ++i) d.observe(static_cast<double>(i));
  EXPECT_GE(d.count(), 200.0);
  EXPECT_NEAR(d.quantile(0.5), 100.0, 10.0);

  // JSON dump: digests section carries centroids plus the headline
  // pre-computed quantile block.
  const std::string json = obs::MetricsRegistry::instance().to_json();
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  const JsonValue& dig = root.at("digests").at("test.digest.latency");
  EXPECT_GE(dig.at("count").number, 200.0);
  EXPECT_EQ(dig.at("centroids").type, JsonValue::Type::kArray);
  EXPECT_GT(dig.at("centroids").array.size(), 0u);
  const JsonValue& q = dig.at("q");
  EXPECT_NEAR(q.at("p50").number, 100.0, 10.0);
  EXPECT_GE(q.at("p99").number, q.at("p50").number);

  // Prometheus exposition: a summary family with quantile labels and
  // the _sum/_count pair.
  const std::string prom = obs::MetricsRegistry::instance().to_prometheus();
  EXPECT_NE(prom.find("# TYPE lvf2_test_digest_latency summary"),
            std::string::npos);
  EXPECT_NE(prom.find("lvf2_test_digest_latency{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("lvf2_test_digest_latency_count"), std::string::npos);
  EXPECT_NE(prom.find("lvf2_test_digest_latency_sum"), std::string::npos);
}

// The snapshot the manifest embeds as its `metrics` member parses back
// with the obs reader, every kind of instrument intact.
TEST(MetricsRegistry, ToJsonRoundTrips) {
  obs::counter("test.roundtrip.counter").add(3);
  obs::gauge("test.roundtrip.gauge").set(0.25);
  obs::histogram("test.roundtrip.histogram", {1.0, 2.0}).observe(1.5);
  std::string error;
  const std::optional<obs::JsonValue> root =
      obs::json_parse(obs::MetricsRegistry::instance().to_json(), &error);
  ASSERT_TRUE(root.has_value()) << error;
  const obs::JsonValue* counters = root->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->number_or("test.roundtrip.counter", -1.0), 3.0);
  const obs::JsonValue* gauges = root->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->number_or("test.roundtrip.gauge", -1.0), 0.25);
  const obs::JsonValue* histograms = root->find("histograms");
  ASSERT_NE(histograms, nullptr);
  const obs::JsonValue* h = histograms->find("test.roundtrip.histogram");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->number_or("count", -1.0), 1.0);
  EXPECT_EQ(h->number_or("sum", -1.0), 1.5);
  for (const char* member : {"double_counters", "digests"}) {
    EXPECT_TRUE(root->has(member)) << member;
  }
}

// --- Labeled series ---

// The lines of a Prometheus exposition.
std::vector<std::string> prom_lines() {
  std::vector<std::string> lines;
  std::istringstream in(obs::MetricsRegistry::instance().to_prometheus());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// The sample lines under `# TYPE <family> <type>`, which must occur
// exactly once; empty when it does not.
std::vector<std::string> prom_family(const std::string& family,
                                     const std::string& type) {
  const std::vector<std::string> lines = prom_lines();
  const std::string header = "# TYPE " + family + " " + type;
  std::vector<std::string> samples;
  int headers = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] != header) continue;
    ++headers;
    for (std::size_t j = i + 1; j < lines.size() && lines[j][0] != '#'; ++j) {
      samples.push_back(lines[j]);
    }
  }
  EXPECT_EQ(headers, 1) << header;
  return headers == 1 ? samples : std::vector<std::string>{};
}

bool has_line_starting(const std::vector<std::string>& lines,
                       const std::string& prefix) {
  for (const std::string& line : lines) {
    if (line.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

TEST(MetricsRegistry, LabeledSeriesOneTypePerFamily) {
  // A plain instrument, a same-prefix neighbour that sorts between it
  // and its labeled siblings, and two labeled series: one family.
  obs::counter("test.ls.count").add(1);
  obs::counter("test.ls.count.x").add(1);
  obs::counter(obs::series_name("test.ls.count", {{"k", "a"}})).add(2);
  obs::counter(obs::series_name("test.ls.count", {{"k", "b"}})).add(3);
  const auto counters = prom_family("lvf2_test_ls_count_total", "counter");
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_TRUE(has_line_starting(counters, "lvf2_test_ls_count_total 1"));
  EXPECT_TRUE(
      has_line_starting(counters, "lvf2_test_ls_count_total{k=\"a\"} 2"));
  EXPECT_TRUE(
      has_line_starting(counters, "lvf2_test_ls_count_total{k=\"b\"} 3"));

  obs::double_counter(obs::series_name("test.ls.dcount", {{"k", "a"}}))
      .add(0.5);
  obs::double_counter(obs::series_name("test.ls.dcount", {{"k", "b"}}))
      .add(1.5);
  EXPECT_EQ(prom_family("lvf2_test_ls_dcount_total", "counter").size(), 2u);

  obs::gauge(obs::series_name("test.ls.gauge", {{"k", "a"}})).set(1.0);
  obs::gauge(obs::series_name("test.ls.gauge", {{"k", "b"}})).set(2.0);
  EXPECT_EQ(prom_family("lvf2_test_ls_gauge", "gauge").size(), 2u);

  obs::digest(obs::series_name("test.ls.digest", {{"k", "a"}})).observe(1.0);
  obs::digest(obs::series_name("test.ls.digest", {{"k", "b"}})).observe(2.0);
  // Five quantiles plus _sum and _count per series.
  EXPECT_EQ(prom_family("lvf2_test_ls_digest", "summary").size(), 14u);

  // No family anywhere in the exposition is declared twice.
  std::map<std::string, int> declared;
  for (const std::string& line : prom_lines()) {
    if (line.rfind("# TYPE ", 0) == 0) ++declared[line];
  }
  for (const auto& [line, count] : declared) EXPECT_EQ(count, 1) << line;
}

TEST(MetricsRegistry, LabeledSeriesMergesQuantileAndLeLabels) {
  obs::digest(obs::series_name("test.ls.merge.digest", {{"op", "x"}}))
      .observe(4.0);
  obs::histogram(obs::series_name("test.ls.merge.hist", {{"op", "x"}}),
                 {1.0})
      .observe(0.5);
  const auto digest = prom_family("lvf2_test_ls_merge_digest", "summary");
  EXPECT_TRUE(has_line_starting(
      digest, "lvf2_test_ls_merge_digest{op=\"x\",quantile=\"0.5\"} 4"));
  EXPECT_TRUE(has_line_starting(
      digest, "lvf2_test_ls_merge_digest{op=\"x\",quantile=\"0.999\"} "));
  EXPECT_TRUE(
      has_line_starting(digest, "lvf2_test_ls_merge_digest_sum{op=\"x\"} 4"));
  EXPECT_TRUE(has_line_starting(
      digest, "lvf2_test_ls_merge_digest_count{op=\"x\"} 1"));
  const auto hist = prom_family("lvf2_test_ls_merge_hist", "histogram");
  EXPECT_TRUE(has_line_starting(
      hist, "lvf2_test_ls_merge_hist_bucket{op=\"x\",le=\"1\"} 1"));
  EXPECT_TRUE(has_line_starting(
      hist, "lvf2_test_ls_merge_hist_bucket{op=\"x\",le=\"+Inf\"} 1"));
  EXPECT_TRUE(
      has_line_starting(hist, "lvf2_test_ls_merge_hist_count{op=\"x\"} 1"));
}

TEST(MetricsRegistry, LabeledSeriesEscapesLabelValues) {
  const std::string raw = "a\\b\"c\nd";
  const std::string name = obs::series_name("test.ls.escape", {{"v", raw}});
  EXPECT_EQ(name, "test.ls.escape{v=\"a\\\\b\\\"c\\nd\"}");
  obs::counter(name).add(1);
  EXPECT_EQ(prom_family("lvf2_test_ls_escape_total", "counter"),
            std::vector<std::string>{
                "lvf2_test_ls_escape_total{v=\"a\\\\b\\\"c\\nd\"} 1"});
  const std::vector<obs::Labels> series =
      obs::MetricsRegistry::instance().family_series("test.ls.escape");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0], (obs::Labels{{"v", raw}}));
}

TEST(MetricsRegistry, LabeledSeriesJsonKeysByFullName) {
  obs::counter(obs::series_name("test.ls.json", {{"op", "x"}})).add(5);
  obs::gauge(obs::series_name("test.ls.json.gauge", {{"op", "x"}})).set(2.5);
  JsonParser parser(obs::MetricsRegistry::instance().to_json());
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  EXPECT_EQ(root.at("counters").at("test.ls.json{op=\"x\"}").number, 5.0);
  EXPECT_EQ(root.at("gauges").at("test.ls.json.gauge{op=\"x\"}").number,
            2.5);
}

TEST(MetricsRegistry, LabeledSeriesFamilyEnumeration) {
  obs::counter("test.ls.enum");  // plain: not a labeled series
  obs::counter(obs::series_name("test.ls.enum", {{"op", "b"}, {"rung", "y"}}));
  obs::counter(obs::series_name("test.ls.enum", {{"op", "a"}, {"rung", "x"}}));
  obs::digest(obs::series_name("test.ls.enum", {{"op", "c"}, {"rung", "z"}}));
  obs::counter(obs::series_name("test.ls.enum_other", {{"op", "d"}}));
  const std::vector<obs::Labels> series =
      obs::MetricsRegistry::instance().family_series("test.ls.enum");
  const std::vector<obs::Labels> expected = {
      {{"op", "a"}, {"rung", "x"}},
      {{"op", "b"}, {"rung", "y"}},
      {{"op", "c"}, {"rung", "z"}}};
  EXPECT_EQ(series, expected);
  EXPECT_TRUE(obs::MetricsRegistry::instance()
                  .family_series("test.ls.no_such_family")
                  .empty());
  EXPECT_EQ(obs::series_name("test.ls.enum", {}), "test.ls.enum");
}

TEST(MetricsRegistry, LabeledSeriesConcurrentCreateAndAddIsExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const std::string own = std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        // Resolved by name every time: creation races creation.
        obs::counter(obs::series_name("test.ls.mt", {{"t", "shared"}})).add(1);
        obs::counter(obs::series_name("test.ls.mt", {{"t", own}})).add(1);
        obs::double_counter(obs::series_name("test.ls.mt.d", {{"t", own}}))
            .add(0.5);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(obs::counter(obs::series_name("test.ls.mt", {{"t", "shared"}}))
                .value(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    const std::string own = std::to_string(t);
    EXPECT_EQ(obs::counter(obs::series_name("test.ls.mt", {{"t", own}}))
                  .value(),
              static_cast<std::uint64_t>(kPerThread));
    EXPECT_DOUBLE_EQ(
        obs::double_counter(obs::series_name("test.ls.mt.d", {{"t", own}}))
            .value(),
        0.5 * kPerThread);
  }
  EXPECT_EQ(obs::MetricsRegistry::instance().family_series("test.ls.mt").size(),
            static_cast<std::size_t>(kThreads + 1));
}

// --- Tracer ---

TEST(Tracer, DisabledByDefaultWhenEnvUnset) {
  if (std::getenv("LVF2_TRACE") != nullptr) {
    GTEST_SKIP() << "LVF2_TRACE is set in this environment";
  }
  EXPECT_FALSE(obs::trace_enabled());
}

TEST(Tracer, EmitsParseableChromeTraceJson) {
  if (obs::trace_enabled()) {
    GTEST_SKIP() << "a trace session is already active";
  }
  const std::string path = temp_path("lvf2_trace_test.json");
  obs::Tracer::instance().start(path);
  ASSERT_TRUE(obs::trace_enabled());
  {
    obs::TraceSpan outer("outer", [] {
      return obs::ArgsBuilder()
          .add("cell", "NAND2 \"X1\"")  // exercises escaping
          .add("samples", 123)
          .add("ratio", 0.5)
          .str();
    });
    obs::TraceSpan inner("inner");
    obs::trace_counter("test.counter", -1.5);
  }
  obs::Tracer::instance().stop();
  EXPECT_FALSE(obs::trace_enabled());

  JsonParser parser(read_file(path));
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.type, JsonValue::Type::kArray);
  ASSERT_EQ(events.array.size(), 3u);

  int spans = 0, counters = 0;
  for (const JsonValue& e : events.array) {
    ASSERT_EQ(e.type, JsonValue::Type::kObject);
    EXPECT_TRUE(e.has("name"));
    EXPECT_TRUE(e.has("ts"));
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
    const std::string& ph = e.at("ph").string;
    if (ph == "X") {
      ++spans;
      EXPECT_GE(e.at("dur").number, 0.0);
    } else if (ph == "C") {
      ++counters;
      EXPECT_DOUBLE_EQ(e.at("args").at("value").number, -1.5);
    }
  }
  EXPECT_EQ(spans, 2);
  EXPECT_EQ(counters, 1);

  // The outer span's args survived with escaping intact.
  bool found_outer = false;
  for (const JsonValue& e : events.array) {
    if (e.at("name").string == "outer") {
      found_outer = true;
      EXPECT_EQ(e.at("args").at("cell").string, "NAND2 \"X1\"");
      EXPECT_DOUBLE_EQ(e.at("args").at("samples").number, 123.0);
    }
  }
  EXPECT_TRUE(found_outer);
  std::remove(path.c_str());
}

TEST(Tracer, SpanArgsCallbackNotInvokedWhenDisabled) {
  if (obs::trace_enabled()) {
    GTEST_SKIP() << "a trace session is already active";
  }
  bool invoked = false;
  {
    obs::TraceSpan span("disabled", [&] {
      invoked = true;
      return std::string("{}");
    });
  }
  EXPECT_FALSE(invoked);
}

TEST(Tracer, ArgsBuilderRendersJsonObject) {
  const std::string json =
      obs::ArgsBuilder().add("a", "x").add("b", 2).add("c", 1.5).str();
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error() << "\n" << json;
  EXPECT_EQ(root.at("a").string, "x");
  EXPECT_DOUBLE_EQ(root.at("b").number, 2.0);
  EXPECT_DOUBLE_EQ(root.at("c").number, 1.5);
}

// --- Logger ---

class LogCapture {
 public:
  LogCapture() : path_(temp_path("lvf2_log_test.txt")) {
    stream_ = std::fopen(path_.c_str(), "w+");
    obs::set_log_stream(stream_);
  }
  ~LogCapture() {
    obs::set_log_stream(nullptr);
    std::fclose(stream_);
    std::remove(path_.c_str());
  }
  std::string text() {
    std::fflush(stream_);
    return read_file(path_);
  }

 private:
  std::string path_;
  std::FILE* stream_;
};

TEST(Logger, OffByDefaultWhenEnvUnset) {
  if (std::getenv("LVF2_LOG") != nullptr) {
    GTEST_SKIP() << "LVF2_LOG is set in this environment";
  }
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kError));
}

TEST(Logger, ParseLogLevel) {
  EXPECT_EQ(obs::parse_log_level("debug"), obs::LogLevel::kDebug);
  EXPECT_EQ(obs::parse_log_level("info"), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::parse_log_level("warn"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("error"), obs::LogLevel::kError);
  EXPECT_EQ(obs::parse_log_level("bogus"), obs::LogLevel::kOff);
}

TEST(Logger, LevelFiltering) {
  LogCapture capture;
  obs::set_log_level(obs::LogLevel::kWarn);
  obs::log_debug("dropped.debug");
  obs::log_info("dropped.info");
  obs::log_warn("kept.warn");
  obs::log_error("kept.error");
  obs::set_log_level(obs::LogLevel::kOff);

  const std::string text = capture.text();
  EXPECT_EQ(text.find("dropped."), std::string::npos);
  EXPECT_NE(text.find("kept.warn"), std::string::npos);
  EXPECT_NE(text.find("kept.error"), std::string::npos);
}

TEST(Logger, StructuredFieldsAndQuoting) {
  LogCapture capture;
  obs::set_log_level(obs::LogLevel::kInfo);
  obs::log_info("em.fit", {{"cell", "NAND2 X1"},
                           {"arc", "A->Y"},
                           {"iterations", std::size_t{17}},
                           {"converged", true},
                           {"ll", -42.5}});
  obs::set_log_level(obs::LogLevel::kOff);

  const std::string text = capture.text();
  EXPECT_NE(text.find("em.fit"), std::string::npos);
  EXPECT_NE(text.find("cell=\"NAND2 X1\""), std::string::npos);  // quoted
  EXPECT_NE(text.find("arc=A->Y"), std::string::npos);  // no quoting needed
  EXPECT_NE(text.find("iterations=17"), std::string::npos);
  EXPECT_NE(text.find("converged=true"), std::string::npos);
  EXPECT_NE(text.find("info] "), std::string::npos) << text;
}

TEST(Logger, DisabledLevelEmitsNothing) {
  LogCapture capture;
  obs::set_log_level(obs::LogLevel::kOff);
  obs::log_error("should.not.appear");
  EXPECT_TRUE(capture.text().empty());
}

}  // namespace
