#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "obs/manifest.h"
#include "obs/tdigest.h"

namespace lvf2::tools {

namespace {

bool read_file(const std::string& path, std::string& out,
               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  char buf[65536];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok && error) *error = "read error on " + path;
  return ok;
}

/// Identity of one arc row: every field that names the measurement,
/// none that carries its result.
std::string arc_key(const obs::JsonValue& arc) {
  std::string key = arc.string_or("table", "?");
  key += '/';
  key += arc.string_or("cell", "?");
  key += '/';
  key += arc.string_or("arc", "");
  key += '/';
  key += arc.string_or("metric", "");
  key += "[" + std::to_string(static_cast<long>(arc.number_or("load_idx", -1)));
  key += "," + std::to_string(static_cast<long>(arc.number_or("slew_idx", -1)));
  key += ']';
  return key;
}

const obs::JsonValue* find_by_key(const obs::JsonValue& rows,
                                  const std::string& key,
                                  std::string (*key_of)(const obs::JsonValue&)) {
  if (!rows.is_array()) return nullptr;
  for (const obs::JsonValue& row : rows.array) {
    if (key_of(row) == key) return &row;
  }
  return nullptr;
}

std::string endpoint_key(const obs::JsonValue& endpoint) {
  return endpoint.string_or("path", "?");
}

bool within(double ref, double cur, const DiffOptions& o) {
  if (std::isnan(ref) && std::isnan(cur)) return true;
  return std::fabs(cur - ref) <=
         o.atol + o.rtol * std::max(std::fabs(ref), std::fabs(cur));
}

void diff_number(const obs::JsonValue& ref, const obs::JsonValue& cur,
                 std::string_view field, const std::string& where,
                 const DiffOptions& o, DiffResult& out) {
  const obs::JsonValue* r = ref.find(field);
  const obs::JsonValue* c = cur.find(field);
  if (r == nullptr && c == nullptr) return;
  if (r == nullptr || c == nullptr) {
    out.regressions.push_back(where + ": field " + std::string(field) +
                              (r == nullptr ? " appeared" : " disappeared"));
    return;
  }
  // Non-finite values render as JSON null. A null on both sides is
  // agreement (within() treats NaN==NaN the same way); a null on one
  // side is explicit drift, not a silent 0 == 0 comparison of the
  // unset `number` fields.
  const bool r_null = r->type == obs::JsonValue::Type::kNull;
  const bool c_null = c->type == obs::JsonValue::Type::kNull;
  if (r_null && c_null) return;
  if (r_null != c_null) {
    out.regressions.push_back(where + ": " + std::string(field) +
                              (r_null ? " null -> number" : " number -> null"));
    return;
  }
  if (!within(r->number, c->number, o)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s: %s %.9g -> %.9g (beyond %g%%+%g)",
                  where.c_str(), std::string(field).c_str(), r->number,
                  c->number, o.rtol * 100.0, o.atol);
    out.regressions.emplace_back(buf);
  }
}

void diff_string(const obs::JsonValue& ref, const obs::JsonValue& cur,
                 std::string_view field, const std::string& where,
                 DiffResult& out) {
  const std::string r = ref.string_or(field, "");
  const std::string c = cur.string_or(field, "");
  if (r != c) {
    out.regressions.push_back(where + ": " + std::string(field) + " \"" + r +
                              "\" -> \"" + c + "\"");
  }
}

/// Diffs the six numeric QoR fields of one model entry.
void diff_model(const obs::JsonValue& ref, const obs::JsonValue& cur,
                const std::string& where, const DiffOptions& o,
                DiffResult& out) {
  for (const char* field : {"binning", "yield_3sigma", "cdf_rmse", "x_binning",
                            "x_yield_3sigma", "x_cdf_rmse"}) {
    diff_number(ref, cur, field, where, o, out);
  }
}

/// Shared by arcs and endpoints: golden moments + per-model metrics.
void diff_golden_and_models(const obs::JsonValue& ref,
                            const obs::JsonValue& cur,
                            const std::string& where, const DiffOptions& o,
                            DiffResult& out) {
  const obs::JsonValue* rg = ref.find("golden");
  const obs::JsonValue* cg = cur.find("golden");
  if (rg != nullptr && cg != nullptr) {
    for (const char* field :
         {"mean", "stddev", "skewness", "yield_3sigma"}) {
      diff_number(*rg, *cg, field, where + " golden", o, out);
    }
  }
  const obs::JsonValue* rm = ref.find("models");
  const obs::JsonValue* cm = cur.find("models");
  if (rm == nullptr || !rm->is_object()) return;
  for (const auto& [model, ref_model] : rm->object) {
    const obs::JsonValue* cur_model =
        (cm != nullptr) ? cm->find(model) : nullptr;
    if (cur_model == nullptr) {
      out.regressions.push_back(where + ": model " + model + " disappeared");
      continue;
    }
    diff_model(ref_model, *cur_model, where + " " + model, o, out);
  }
}

void diff_arc(const obs::JsonValue& ref, const obs::JsonValue& cur,
              const std::string& where, const DiffOptions& o,
              DiffResult& out) {
  diff_string(ref, cur, "status", where, out);
  const obs::JsonValue* re = ref.find("em");
  const obs::JsonValue* ce = cur.find("em");
  if (re != nullptr && ce != nullptr) {
    diff_string(*re, *ce, "degradation", where + " em", out);
    const obs::JsonValue* rc = re->find("converged");
    const obs::JsonValue* cc = ce->find("converged");
    if (rc != nullptr && cc != nullptr && rc->boolean != cc->boolean) {
      out.regressions.push_back(where + ": em.converged " +
                                (rc->boolean ? "true" : "false") + " -> " +
                                (cc->boolean ? "true" : "false"));
    }
    const double ri = re->number_or("iterations", 0.0);
    const double ci = ce->number_or("iterations", 0.0);
    if (ri != ci) {
      out.notes.push_back(where + ": em.iterations " +
                          std::to_string(static_cast<long>(ri)) + " -> " +
                          std::to_string(static_cast<long>(ci)));
    }
  }
  diff_golden_and_models(ref, cur, where, o, out);
}

void diff_rows(const obs::JsonValue& golden, const obs::JsonValue& current,
               const char* section,
               std::string (*key_of)(const obs::JsonValue&),
               void (*diff_row)(const obs::JsonValue&, const obs::JsonValue&,
                                const std::string&, const DiffOptions&,
                                DiffResult&),
               const DiffOptions& o, DiffResult& out) {
  const obs::JsonValue* ref_rows = golden.find(section);
  const obs::JsonValue* cur_rows = current.find(section);
  static const obs::JsonValue kEmpty{};
  if (ref_rows == nullptr) ref_rows = &kEmpty;
  if (cur_rows == nullptr) cur_rows = &kEmpty;
  if (ref_rows->is_array()) {
    for (const obs::JsonValue& ref_row : ref_rows->array) {
      const std::string key = key_of(ref_row);
      const std::string where = std::string(section) + " " + key;
      const obs::JsonValue* cur_row = find_by_key(*cur_rows, key, key_of);
      if (cur_row == nullptr) {
        out.regressions.push_back(where + ": missing");
        continue;
      }
      diff_row(ref_row, *cur_row, where, o, out);
    }
  }
  if (cur_rows->is_array()) {
    for (const obs::JsonValue& cur_row : cur_rows->array) {
      const std::string key = key_of(cur_row);
      if (find_by_key(*ref_rows, key, key_of) == nullptr) {
        out.notes.push_back(std::string(section) + " " + key +
                            ": new (not in reference)");
      }
    }
  }
}

/// Generic recursive diff for opt-in sections (exec / resource /
/// profile / stages / metrics): numbers use the tolerance test,
/// strings and booleans compare exactly, objects recurse with
/// missing-key regressions, arrays compare elementwise.
void diff_json(const obs::JsonValue& ref, const obs::JsonValue& cur,
               const std::string& where, const DiffOptions& o,
               DiffResult& out) {
  using Type = obs::JsonValue::Type;
  if (ref.type != cur.type) {
    out.regressions.push_back(where + ": type changed");
    return;
  }
  switch (ref.type) {
    case Type::kNumber:
      if (!within(ref.number, cur.number, o)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s: %.9g -> %.9g (beyond %g%%+%g)",
                      where.c_str(), ref.number, cur.number, o.rtol * 100.0,
                      o.atol);
        out.regressions.emplace_back(buf);
      }
      return;
    case Type::kString:
      if (ref.string != cur.string) {
        out.regressions.push_back(where + ": \"" + ref.string + "\" -> \"" +
                                  cur.string + "\"");
      }
      return;
    case Type::kBool:
      if (ref.boolean != cur.boolean) {
        out.regressions.push_back(
            where + ": " + (ref.boolean ? "true" : "false") + " -> " +
            (cur.boolean ? "true" : "false"));
      }
      return;
    case Type::kObject:
      for (const auto& [key, ref_value] : ref.object) {
        const obs::JsonValue* cur_value = cur.find(key);
        if (cur_value == nullptr) {
          out.regressions.push_back(where + "." + key + ": disappeared");
          continue;
        }
        diff_json(ref_value, *cur_value, where + "." + key, o, out);
      }
      for (const auto& [key, cur_value] : cur.object) {
        (void)cur_value;
        if (ref.find(key) == nullptr) {
          out.notes.push_back(where + "." + key + ": new (not in reference)");
        }
      }
      return;
    case Type::kArray: {
      if (ref.array.size() != cur.array.size()) {
        out.regressions.push_back(
            where + ": array size " + std::to_string(ref.array.size()) +
            " -> " + std::to_string(cur.array.size()));
        return;
      }
      for (std::size_t i = 0; i < ref.array.size(); ++i) {
        diff_json(ref.array[i], cur.array[i],
                  where + "[" + std::to_string(i) + "]", o, out);
      }
      return;
    }
    case Type::kNull:
      return;
  }
}

void append_row(std::string& out, const obs::JsonValue& row,
                const std::string& label) {
  char buf[256];
  const obs::JsonValue* g = row.find("golden");
  std::snprintf(buf, sizeof(buf), "%-40s mean=%-12.6g sigma=%-12.6g\n",
                label.c_str(), g ? g->number_or("mean", 0.0) : 0.0,
                g ? g->number_or("stddev", 0.0) : 0.0);
  out += buf;
  const obs::JsonValue* models = row.find("models");
  if (models == nullptr || !models->is_object()) return;
  for (const auto& [model, m] : models->object) {
    std::snprintf(buf, sizeof(buf),
                  "  %-6s bin=%-10.4g yield=%-10.4g rmse=%-10.4g"
                  " x_bin=%-8.3g x_yield=%-8.3g x_rmse=%-8.3g\n",
                  model.c_str(), m.number_or("binning", 0.0),
                  m.number_or("yield_3sigma", 0.0),
                  m.number_or("cdf_rmse", 0.0), m.number_or("x_binning", 1.0),
                  m.number_or("x_yield_3sigma", 1.0),
                  m.number_or("x_cdf_rmse", 1.0));
    out += buf;
  }
}

}  // namespace

std::optional<obs::JsonValue> load_manifest(const std::string& path,
                                            std::string* error) {
  std::string text;
  if (!read_file(path, text, error)) return std::nullopt;
  std::string parse_error;
  std::optional<obs::JsonValue> doc = obs::json_parse(text, &parse_error);
  if (!doc) {
    if (error) *error = path + ": " + parse_error;
    return std::nullopt;
  }
  if (!doc->is_object() || !doc->has("schema_version")) {
    if (error) *error = path + ": not a manifest (no schema_version)";
    return std::nullopt;
  }
  const double version = doc->number_or("schema_version", 0.0);
  if (version != obs::kManifestSchemaVersion) {
    if (error) {
      *error = path + ": unsupported schema_version " +
               std::to_string(static_cast<int>(version));
    }
    return std::nullopt;
  }
  return doc;
}

std::string render_manifest(const obs::JsonValue& manifest) {
  std::string out;
  char buf[256];
  out += "manifest: tool=" + manifest.string_or("tool", "?") +
         " schema_version=" +
         std::to_string(
             static_cast<int>(manifest.number_or("schema_version", 0.0))) +
         "\n";

  if (const obs::JsonValue* config = manifest.find("config");
      config != nullptr && !config->object.empty()) {
    out += "\nconfig:\n";
    for (const auto& [key, value] : config->object) {
      out += "  " + key + " = " + obs::json_write(value) + "\n";
    }
  }

  if (const obs::JsonValue* stages = manifest.find("stages");
      stages != nullptr && !stages->object.empty()) {
    out += "\nstages:\n";
    std::snprintf(buf, sizeof(buf), "  %-24s %10s %12s %12s\n", "stage",
                  "count", "wall_ms", "cpu_ms");
    out += buf;
    for (const auto& [name, s] : stages->object) {
      std::snprintf(buf, sizeof(buf), "  %-24s %10.0f %12.3f %12.3f\n",
                    name.c_str(), s.number_or("count", 0.0),
                    s.number_or("wall_ms", 0.0), s.number_or("cpu_ms", 0.0));
      out += buf;
    }
  }

  // The registry snapshot's scalar instruments; histograms and digests
  // stay in the JSON.
  if (const obs::JsonValue* metrics = manifest.find("metrics")) {
    for (const char* kind : {"counters", "gauges"}) {
      const obs::JsonValue* values = metrics->find(kind);
      if (values == nullptr || values->object.empty()) continue;
      out += std::string("\n") + kind + ":\n";
      for (const auto& [name, value] : values->object) {
        std::snprintf(buf, sizeof(buf), "  %-40s %.9g\n", name.c_str(),
                      value.number);
        out += buf;
      }
    }
  }

  if (const obs::JsonValue* arcs = manifest.find("arcs");
      arcs != nullptr && !arcs->array.empty()) {
    out += "\narcs (" + std::to_string(arcs->array.size()) + "):\n";
    for (const obs::JsonValue& arc : arcs->array) {
      std::string label = arc_key(arc);
      const std::string status = arc.string_or("status", "ok");
      if (status != "ok") label += " [" + status + "]";
      append_row(out, arc, label);
    }
  }

  if (const obs::JsonValue* endpoints = manifest.find("endpoints");
      endpoints != nullptr && !endpoints->array.empty()) {
    out += "\nendpoints (" + std::to_string(endpoints->array.size()) + "):\n";
    for (const obs::JsonValue& e : endpoints->array) {
      const std::string label =
          endpoint_key(e) + " depth=" +
          std::to_string(static_cast<long>(e.number_or("depth", 0.0)));
      append_row(out, e, label);
    }
  }
  return out;
}

obs::JsonValue canonicalize(const obs::JsonValue& manifest) {
  obs::JsonValue out;
  out.type = obs::JsonValue::Type::kObject;
  for (const char* key :
       {"schema_version", "tool", "config", "arcs", "endpoints", "yield_hs"}) {
    if (const obs::JsonValue* v = manifest.find(key)) {
      out.object.emplace_back(key, *v);
    }
  }
  return out;
}

DiffResult diff_manifests(const obs::JsonValue& golden,
                          const obs::JsonValue& current,
                          const DiffOptions& options) {
  DiffResult out;
  const double ref_version = golden.number_or("schema_version", 0.0);
  const double cur_version = current.number_or("schema_version", 0.0);
  if (ref_version != cur_version) {
    out.regressions.push_back(
        "schema_version " + std::to_string(static_cast<int>(ref_version)) +
        " -> " + std::to_string(static_cast<int>(cur_version)));
    return out;
  }
  diff_rows(golden, current, "arcs", arc_key, diff_arc, options, out);
  diff_rows(golden, current, "endpoints", endpoint_key,
            diff_golden_and_models, options, out);
  for (const std::string& section : options.sections) {
    const obs::JsonValue* ref = golden.find(section);
    const obs::JsonValue* cur = current.find(section);
    if (ref == nullptr && cur == nullptr) {
      out.notes.push_back("section " + section + ": absent from both");
      continue;
    }
    if (ref == nullptr || cur == nullptr) {
      out.regressions.push_back("section " + section +
                                (ref == nullptr ? ": appeared"
                                                : ": disappeared"));
      continue;
    }
    diff_json(*ref, *cur, section, options, out);
  }
  return out;
}

DiffResult diff_perf(const obs::JsonValue& baseline,
                     const obs::JsonValue& current,
                     const PerfBudget& budget) {
  DiffResult out;
  const auto check = [&](double ref, double cur, double slack,
                         const std::string& where, const char* unit) {
    const double limit = ref * (1.0 + budget.pct / 100.0) + slack;
    if (cur > limit) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "%s: %.3g -> %.3g %s (budget %.3g = +%g%% +%g)",
                    where.c_str(), ref, cur, unit, limit, budget.pct, slack);
      out.regressions.emplace_back(buf);
    }
  };

  const obs::JsonValue* ref_stages = baseline.find("stages");
  const obs::JsonValue* cur_stages = current.find("stages");
  if (ref_stages != nullptr && ref_stages->is_object()) {
    for (const auto& [name, ref_stage] : ref_stages->object) {
      const obs::JsonValue* cur_stage =
          (cur_stages != nullptr) ? cur_stages->find(name) : nullptr;
      if (cur_stage == nullptr) {
        out.notes.push_back("stage " + name + ": absent from current");
        continue;
      }
      for (const char* field : {"wall_ms", "cpu_ms"}) {
        check(ref_stage.number_or(field, 0.0),
              cur_stage->number_or(field, 0.0), budget.abs_ms,
              "stage " + name + " " + field, "ms");
      }
    }
  }
  if (cur_stages != nullptr && cur_stages->is_object()) {
    for (const auto& [name, cur_stage] : cur_stages->object) {
      (void)cur_stage;
      if (ref_stages == nullptr || ref_stages->find(name) == nullptr) {
        out.notes.push_back("stage " + name + ": new (not in baseline)");
      }
    }
  }

  const obs::JsonValue* ref_res = baseline.find("resource");
  const obs::JsonValue* cur_res = current.find("resource");
  if (ref_res != nullptr && cur_res != nullptr) {
    check(ref_res->number_or("peak_rss_kb", 0.0),
          cur_res->number_or("peak_rss_kb", 0.0), budget.abs_kb,
          "resource peak_rss_kb", "kb");
    const double ref_cpu_ms = (ref_res->number_or("utime_s", 0.0) +
                               ref_res->number_or("stime_s", 0.0)) *
                              1e3;
    const double cur_cpu_ms = (cur_res->number_or("utime_s", 0.0) +
                               cur_res->number_or("stime_s", 0.0)) *
                              1e3;
    check(ref_cpu_ms, cur_cpu_ms, budget.abs_ms, "resource process_cpu_ms",
          "ms");
  } else if (ref_res != nullptr || cur_res != nullptr) {
    out.notes.push_back(std::string("resource section only in ") +
                        (ref_res != nullptr ? "baseline" : "current"));
  }
  return out;
}

std::optional<std::vector<FoldedStack>> parse_folded(std::string_view text,
                                                     std::string* error) {
  std::vector<FoldedStack> stacks;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;
    ++line_no;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    if (line.empty()) continue;
    const std::size_t space = line.find_last_of(" \t");
    bool ok = space != std::string_view::npos && space + 1 < line.size();
    std::uint64_t count = 0;
    if (ok) {
      for (std::size_t i = space + 1; i < line.size(); ++i) {
        const char c = line[i];
        if (c < '0' || c > '9') {
          ok = false;
          break;
        }
        count = count * 10 + static_cast<std::uint64_t>(c - '0');
      }
    }
    if (!ok || count == 0) {
      if (error) {
        *error = "line " + std::to_string(line_no) +
                 ": expected `stack count`, got \"" + std::string(line) +
                 "\"";
      }
      return std::nullopt;
    }
    const std::string stack(line.substr(0, space));
    bool merged = false;
    for (FoldedStack& existing : stacks) {
      if (existing.stack == stack) {
        existing.count += count;
        merged = true;
        break;
      }
    }
    if (!merged) stacks.push_back({stack, count});
  }
  return stacks;
}

std::string render_flame(const std::vector<FoldedStack>& stacks,
                         std::size_t top_n) {
  std::uint64_t total = 0;
  for (const FoldedStack& s : stacks) total += s.count;
  std::string out = "total: " + std::to_string(total) + " samples, " +
                    std::to_string(stacks.size()) + " distinct stacks\n";
  if (total == 0) return out;
  const double pct = 100.0 / static_cast<double>(total);
  char buf[512];

  // Stage rollup: the root frame is the stage tag the profiler
  // recorded ("(untagged)" for samples outside any span).
  std::vector<std::pair<std::string, std::uint64_t>> stages;
  for (const FoldedStack& s : stacks) {
    const std::size_t semi = s.stack.find(';');
    const std::string stage = s.stack.substr(0, semi);
    bool merged = false;
    for (auto& [name, count] : stages) {
      if (name == stage) {
        count += s.count;
        merged = true;
        break;
      }
    }
    if (!merged) stages.emplace_back(stage, s.count);
  }
  std::sort(stages.begin(), stages.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  out += "\nstages:\n";
  for (const auto& [name, count] : stages) {
    std::snprintf(buf, sizeof(buf), "  %8llu (%5.1f%%) %s\n",
                  static_cast<unsigned long long>(count),
                  static_cast<double>(count) * pct, name.c_str());
    out += buf;
  }

  std::vector<const FoldedStack*> order;
  order.reserve(stacks.size());
  for (const FoldedStack& s : stacks) order.push_back(&s);
  std::sort(order.begin(), order.end(), [](const FoldedStack* a,
                                           const FoldedStack* b) {
    if (a->count != b->count) return a->count > b->count;
    return a->stack < b->stack;  // deterministic tie-break
  });
  if (order.size() > top_n) order.resize(top_n);
  out += "\ntop stacks:\n";
  for (const FoldedStack* s : order) {
    std::snprintf(buf, sizeof(buf), "  %8llu (%5.1f%%) %s\n",
                  static_cast<unsigned long long>(s->count),
                  static_cast<double>(s->count) * pct, s->stack.c_str());
    out += buf;
  }
  return out;
}

std::optional<std::string> render_access_log(std::string_view text,
                                             std::string* error) {
  struct OpRollup {
    std::uint64_t total = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t refused = 0;
    std::map<std::string, std::uint64_t> rungs;
    obs::TDigest queue_ms{64.0};
    obs::TDigest exec_ms{64.0};
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
  };
  std::map<std::string, OpRollup> ops;
  std::uint64_t records = 0;
  std::uint64_t malformed = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    const std::optional<obs::JsonValue> doc = obs::json_parse(line);
    if (!doc || !doc->is_object()) {
      ++malformed;
      continue;
    }
    ++records;
    OpRollup& op = ops[doc->string_or("op", "?")];
    ++op.total;
    const std::string mode = doc->string_or("mode", "ok");
    const std::string status = doc->string_or("status", "?");
    if (mode == "refused") {
      ++op.refused;
    } else if (status == "ok") {
      ++op.ok;
      ++op.rungs[doc->string_or("degradation", "none")];
      op.queue_ms.add(doc->number_or("queue_ms", 0.0));
      op.exec_ms.add(doc->number_or("exec_ms", 0.0));
    } else {
      ++op.failed;
    }
    op.bytes_in += static_cast<std::uint64_t>(doc->number_or("bytes_in", 0));
    op.bytes_out +=
        static_cast<std::uint64_t>(doc->number_or("bytes_out", 0));
  }
  if (records == 0) {
    if (error) *error = "no valid access-log records";
    return std::nullopt;
  }
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "access log: %llu record(s), %llu malformed line(s)\n\n",
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(malformed));
  out += buf;
  std::snprintf(buf, sizeof(buf), "%-10s %8s %8s %8s %8s %10s %10s\n", "op",
                "total", "ok", "failed", "refused", "q_p50/p99", "x_p50/p99");
  out += buf;
  for (const auto& [name, op] : ops) {
    const auto q = [](const obs::TDigest& d, double p) {
      return d.count() > 0.0 ? d.quantile(p) : 0.0;
    };
    std::snprintf(buf, sizeof(buf),
                  "%-10s %8llu %8llu %8llu %8llu %4.1f/%-5.1f %4.1f/%-5.1f\n",
                  name.c_str(), static_cast<unsigned long long>(op.total),
                  static_cast<unsigned long long>(op.ok),
                  static_cast<unsigned long long>(op.failed),
                  static_cast<unsigned long long>(op.refused),
                  q(op.queue_ms, 0.5), q(op.queue_ms, 0.99),
                  q(op.exec_ms, 0.5), q(op.exec_ms, 0.99));
    out += buf;
    if (!op.rungs.empty()) {
      out += "           degradation:";
      for (const auto& [rung, count] : op.rungs) {
        std::snprintf(buf, sizeof(buf), " %s=%llu", rung.c_str(),
                      static_cast<unsigned long long>(count));
        out += buf;
      }
      out += '\n';
    }
    std::snprintf(buf, sizeof(buf),
                  "           bytes: in=%llu out=%llu\n",
                  static_cast<unsigned long long>(op.bytes_in),
                  static_cast<unsigned long long>(op.bytes_out));
    out += buf;
  }
  return out;
}

int report_main(int argc, const char* const* argv) {
  const auto usage = [] {
    std::fprintf(
        stderr,
        "usage: lvf2_report show <manifest.json>\n"
        "       lvf2_report canon <manifest.json>\n"
        "       lvf2_report diff <golden.json> <current.json>"
        " [--rtol R] [--atol A] [--sections a,b,...]\n"
        "       lvf2_report perf <baseline.json> <current.json>"
        " [--budget-pct P] [--abs-ms M] [--abs-kb K]\n"
        "       lvf2_report flame <profile.folded> [--top N]\n"
        "       lvf2_report serve <access.log>\n"
        "exit: 0 ok, 1 diff/perf found a regression, 2 usage / IO error\n");
    return 2;
  };
  if (argc < 3) return usage();
  const std::string command = argv[1];
  std::string error;

  if (command == "show" || command == "canon") {
    const std::optional<obs::JsonValue> doc = load_manifest(argv[2], &error);
    if (!doc) {
      std::fprintf(stderr, "lvf2_report: %s\n", error.c_str());
      return 2;
    }
    if (command == "show") {
      std::fputs(render_manifest(*doc).c_str(), stdout);
    } else {
      std::fputs((obs::json_write(canonicalize(*doc)) + "\n").c_str(),
                 stdout);
    }
    return 0;
  }

  if (command == "diff") {
    if (argc < 4) return usage();
    DiffOptions options;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--rtol") == 0 && i + 1 < argc) {
        options.rtol = std::atof(argv[++i]);
      } else if (std::strcmp(argv[i], "--atol") == 0 && i + 1 < argc) {
        options.atol = std::atof(argv[++i]);
      } else if (std::strcmp(argv[i], "--sections") == 0 && i + 1 < argc) {
        std::string_view list = argv[++i];
        while (!list.empty()) {
          const std::size_t comma = list.find(',');
          const std::string_view item = list.substr(0, comma);
          if (!item.empty()) options.sections.emplace_back(item);
          if (comma == std::string_view::npos) break;
          list.remove_prefix(comma + 1);
        }
      } else {
        return usage();
      }
    }
    const std::optional<obs::JsonValue> golden =
        load_manifest(argv[2], &error);
    if (!golden) {
      std::fprintf(stderr, "lvf2_report: %s\n", error.c_str());
      return 2;
    }
    const std::optional<obs::JsonValue> current =
        load_manifest(argv[3], &error);
    if (!current) {
      std::fprintf(stderr, "lvf2_report: %s\n", error.c_str());
      return 2;
    }
    const DiffResult result = diff_manifests(*golden, *current, options);
    for (const std::string& note : result.notes) {
      std::printf("note: %s\n", note.c_str());
    }
    for (const std::string& regression : result.regressions) {
      std::printf("REGRESSION: %s\n", regression.c_str());
    }
    if (!result.ok()) {
      std::printf("lvf2_report: %zu regression(s) vs %s\n",
                  result.regressions.size(), argv[2]);
      return 1;
    }
    std::printf("lvf2_report: QoR matches %s (%zu note(s))\n", argv[2],
                result.notes.size());
    return 0;
  }

  if (command == "perf") {
    if (argc < 4) return usage();
    PerfBudget budget;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--budget-pct") == 0 && i + 1 < argc) {
        budget.pct = std::atof(argv[++i]);
      } else if (std::strcmp(argv[i], "--abs-ms") == 0 && i + 1 < argc) {
        budget.abs_ms = std::atof(argv[++i]);
      } else if (std::strcmp(argv[i], "--abs-kb") == 0 && i + 1 < argc) {
        budget.abs_kb = std::atof(argv[++i]);
      } else {
        return usage();
      }
    }
    const std::optional<obs::JsonValue> baseline =
        load_manifest(argv[2], &error);
    if (!baseline) {
      std::fprintf(stderr, "lvf2_report: %s\n", error.c_str());
      return 2;
    }
    const std::optional<obs::JsonValue> current =
        load_manifest(argv[3], &error);
    if (!current) {
      std::fprintf(stderr, "lvf2_report: %s\n", error.c_str());
      return 2;
    }
    const DiffResult result = diff_perf(*baseline, *current, budget);
    for (const std::string& note : result.notes) {
      std::printf("note: %s\n", note.c_str());
    }
    for (const std::string& regression : result.regressions) {
      std::printf("PERF REGRESSION: %s\n", regression.c_str());
    }
    if (!result.ok()) {
      std::printf("lvf2_report: %zu perf regression(s) vs %s\n",
                  result.regressions.size(), argv[2]);
      return 1;
    }
    std::printf("lvf2_report: perf within budget of %s (%zu note(s))\n",
                argv[2], result.notes.size());
    return 0;
  }

  if (command == "flame") {
    std::size_t top_n = 20;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
        const long n = std::atol(argv[++i]);
        if (n <= 0) return usage();
        top_n = static_cast<std::size_t>(n);
      } else {
        return usage();
      }
    }
    std::string text;
    if (!read_file(argv[2], text, &error)) {
      std::fprintf(stderr, "lvf2_report: %s\n", error.c_str());
      return 2;
    }
    const std::optional<std::vector<FoldedStack>> stacks =
        parse_folded(text, &error);
    if (!stacks) {
      std::fprintf(stderr, "lvf2_report: %s: %s\n", argv[2], error.c_str());
      return 2;
    }
    std::fputs(render_flame(*stacks, top_n).c_str(), stdout);
    return 0;
  }

  if (command == "serve") {
    std::string text;
    if (!read_file(argv[2], text, &error)) {
      std::fprintf(stderr, "lvf2_report: %s\n", error.c_str());
      return 2;
    }
    const std::optional<std::string> summary =
        render_access_log(text, &error);
    if (!summary) {
      std::fprintf(stderr, "lvf2_report: %s: %s\n", argv[2], error.c_str());
      return 2;
    }
    std::fputs(summary->c_str(), stdout);
    return 0;
  }
  return usage();
}

}  // namespace lvf2::tools
