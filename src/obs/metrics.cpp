#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

#include "obs/json.h"

namespace lvf2::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

void Histogram::observe(double v) {
  std::size_t bucket = bounds_.size();
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS loop, not fetch_add: atomic<double>::fetch_add is a C++20
  // addition not every supported toolchain implements correctly.
  detail::atomic_add(sum_, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::string series_name(
    std::string_view family,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out(family);
  if (labels.size() == 0) return out;
  char sep = '{';
  for (const auto& [key, value] : labels) {
    out += sep;
    sep = ',';
    out += key;
    out += "=\"";
    for (char c : value) {
      if (c == '\\' || c == '"') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '"';
  }
  out += '}';
  return out;
}

namespace {

// Splits a registry name into its family and its label block ("" or
// "{...}"): family names never contain '{'.
std::pair<std::string_view, std::string_view> split_series(
    std::string_view name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos) return {name, {}};
  return {name.substr(0, brace), name.substr(brace)};
}

// Parses a series_name() label block back into its (key, value) pairs.
Labels parse_labels(std::string_view block) {
  Labels out;
  std::size_t i = 1;  // past '{'
  while (i < block.size() && block[i] != '}') {
    const std::size_t eq = block.find('=', i);
    if (eq == std::string_view::npos) break;
    std::string key(block.substr(i, eq - i));
    std::string value;
    for (i = eq + 2; i < block.size() && block[i] != '"'; ++i) {
      if (block[i] == '\\' && i + 1 < block.size()) {
        ++i;
        value += block[i] == 'n' ? '\n' : block[i];
      } else {
        value += block[i];
      }
    }
    out.emplace_back(std::move(key), std::move(value));
    i += 2;  // past the closing quote and the ',' or '}'
  }
  return out;
}

}  // namespace

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

DoubleCounter& MetricsRegistry::double_counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = double_counters_.find(name);
  if (it == double_counters_.end()) {
    it = double_counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name), std::move(bounds)).first;
  }
  return it->second;
}

Digest& MetricsRegistry::digest(std::string_view name, double compression) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = digests_.find(name);
  if (it == digests_.end()) {
    it = digests_.try_emplace(std::string(name), compression).first;
  }
  return it->second;
}

std::vector<Labels> MetricsRegistry::family_series(
    std::string_view family) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string_view, Labels> found;
  const auto scan = [&](const auto& instruments) {
    for (const auto& entry : instruments) {
      const auto [name, block] = split_series(entry.first);
      if (name == family && !block.empty()) {
        found.try_emplace(entry.first, parse_labels(block));
      }
    }
  };
  scan(counters_);
  scan(double_counters_);
  scan(gauges_);
  scan(histograms_);
  scan(digests_);
  std::vector<Labels> out;
  out.reserve(found.size());
  for (auto& [name, labels] : found) out.push_back(std::move(labels));
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    json_append_string(out, name);
    out += ':';
    out += std::to_string(c.value());
  }
  out += "},\"double_counters\":{";
  first = true;
  for (const auto& [name, c] : double_counters_) {
    if (!first) out += ',';
    first = false;
    json_append_string(out, name);
    out += ':';
    json_append_number(out, c.value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    json_append_string(out, name);
    out += ':';
    json_append_number(out, g.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    json_append_string(out, name);
    out += ":{\"bounds\":[";
    const auto& bounds = h.bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (i > 0) out += ',';
      json_append_number(out, bounds[i]);
    }
    out += "],\"counts\":[";
    const auto counts = h.bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(counts[i]);
    }
    out += "],\"count\":";
    out += std::to_string(h.count());
    out += ",\"sum\":";
    json_append_number(out, h.sum());
    out += '}';
  }
  out += "},\"digests\":{";
  first = true;
  for (const auto& [name, d] : digests_) {
    if (!first) out += ',';
    first = false;
    json_append_string(out, name);
    out += ':';
    const TDigest snap = d.snapshot();
    // Full centroid state (mergeable, 17-digit round-trippable) plus
    // the headline quantiles so readers need not re-derive them.
    out += json_write(snap.to_json(), JsonWriteOptions{17});
    out.pop_back();  // reopen the digest object to append "q"
    out += ",\"q\":{";
    static constexpr std::pair<const char*, double> kQuantiles[] = {
        {"p50", 0.50}, {"p90", 0.90}, {"p95", 0.95},
        {"p99", 0.99}, {"p999", 0.999}};
    bool first_q = true;
    for (const auto& [label, q] : kQuantiles) {
      if (!first_q) out += ',';
      first_q = false;
      json_append_string(out, label);
      out += ':';
      json_append_number(out, snap.count() > 0.0 ? snap.quantile(q) : 0.0);
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; registry names use
// dots. Flatten everything else to '_'.
std::string prom_name(std::string_view prefix, std::string_view name) {
  std::string out(prefix);
  out += name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  return out;
}

std::string prom_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// One exposition family: its type and its sample lines, emitted under
// a single # TYPE line however many series feed it.
struct PromFamily {
  const char* type = nullptr;
  std::string samples;
};

// Where one registry series writes: its family, its exposition metric
// name and its own label block ("" or "{...}").
struct PromSeries {
  PromFamily& family;
  std::string metric;
  std::string_view block;

  // Appends `<metric><suffix>{labels,extra} value`; `extra` is one more
  // `key="value"` pair merged into the series' label block.
  void sample(std::string_view suffix, std::string_view extra,
              const std::string& value) const {
    std::string& out = family.samples;
    out += metric;
    out += suffix;
    if (extra.empty()) {
      out += block;
    } else if (block.empty()) {
      out += '{';
      out += extra;
      out += '}';
    } else {
      out += block.substr(0, block.size() - 1);
      out += ',';
      out += extra;
      out += '}';
    }
    out += ' ';
    out += value;
    out += '\n';
  }
};

}  // namespace

std::string MetricsRegistry::to_prometheus(std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, PromFamily> families;
  const auto series = [&](std::string_view name, std::string_view suffix,
                          const char* type) {
    const auto [base, block] = split_series(name);
    std::string metric = prom_name(prefix, base);
    PromFamily& family = families[metric + std::string(suffix)];
    if (family.type == nullptr) family.type = type;
    return PromSeries{family, std::move(metric), block};
  };
  for (const auto& [name, c] : counters_) {
    series(name, "_total", "counter")
        .sample("_total", {}, std::to_string(c.value()));
  }
  for (const auto& [name, c] : double_counters_) {
    series(name, "_total", "counter")
        .sample("_total", {}, prom_number(c.value()));
  }
  for (const auto& [name, g] : gauges_) {
    series(name, "", "gauge").sample("", {}, prom_number(g.value()));
  }
  for (const auto& [name, h] : histograms_) {
    const PromSeries s = series(name, "", "histogram");
    const auto& bounds = h.bounds();
    const auto counts = h.bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      s.sample("_bucket",
               "le=\"" +
                   (i < bounds.size() ? prom_number(bounds[i]) : "+Inf") +
                   '"',
               std::to_string(cumulative));
    }
    s.sample("_sum", {}, prom_number(h.sum()));
    s.sample("_count", {}, std::to_string(h.count()));
  }
  for (const auto& [name, d] : digests_) {
    const PromSeries s = series(name, "", "summary");
    const TDigest snap = d.snapshot();
    static constexpr std::pair<const char*, double> kQuantiles[] = {
        {"quantile=\"0.5\"", 0.50},  {"quantile=\"0.9\"", 0.90},
        {"quantile=\"0.95\"", 0.95}, {"quantile=\"0.99\"", 0.99},
        {"quantile=\"0.999\"", 0.999}};
    for (const auto& [label, q] : kQuantiles) {
      s.sample("", label, prom_number(snap.quantile(q)));
    }
    s.sample("_sum", {}, prom_number(snap.sum()));
    s.sample("_count", {},
             std::to_string(static_cast<std::uint64_t>(snap.count())));
  }
  std::string out;
  for (const auto& [name, family] : families) {
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += family.type;
    out += '\n';
    out += family.samples;
  }
  return out;
}

}  // namespace lvf2::obs
