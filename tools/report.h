#pragma once
// Manifest reader/differ behind the lvf2_report CLI (and its tests):
// loads a run manifest written by obs::ManifestRecorder, renders it
// as a human-readable QoR table, canonicalizes it for golden-file
// commits, and diffs two manifests arc-by-arc with configurable
// relative tolerances. scripts/check.sh uses the diff as a tier-1
// QoR regression gate.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace lvf2::tools {

/// Tolerances of a manifest diff. A numeric QoR field regresses when
///   |cur - ref| > atol + rtol * max(|ref|, |cur|)
/// (symmetric, so swapping the operands cannot flip a verdict).
/// `sections` opts additional top-level manifest sections into the
/// diff (e.g. "exec", "resource", "profile", "stages", "metrics") —
/// they carry nondeterministic run telemetry and are skipped by
/// default so the zero-tolerance determinism gates compare QoR only.
struct DiffOptions {
  double rtol = 0.1;
  double atol = 1e-9;
  std::vector<std::string> sections;
};

/// Budget of a perf diff: `current` regresses a stage when
///   cur > ref * (1 + pct/100) + slack
/// where slack is abs_ms for wall/CPU times and abs_kb for peak RSS.
/// The generous defaults absorb shared-runner noise; tighten per gate.
struct PerfBudget {
  double pct = 50.0;      ///< relative headroom, percent
  double abs_ms = 50.0;   ///< absolute slack for time comparisons
  double abs_kb = 51200;  ///< absolute slack for peak RSS (50 MiB)
};

/// One aggregated folded-stack line: `stack` is the semicolon-joined
/// frame list (root first, stage tag at the root), `count` the summed
/// sample count across duplicate lines.
struct FoldedStack {
  std::string stack;
  std::uint64_t count = 0;
};

/// Outcome of a manifest diff. `regressions` fail the gate (non-zero
/// exit); `notes` are informational drift (extra arcs, EM iteration
/// count changes) that never fails by itself.
struct DiffResult {
  std::vector<std::string> regressions;
  std::vector<std::string> notes;
  bool ok() const { return regressions.empty(); }
};

/// Loads and parses a manifest file. Returns nullopt (with a one-line
/// description in `error`) on I/O failure, malformed JSON, or a
/// schema_version this reader does not understand.
std::optional<obs::JsonValue> load_manifest(const std::string& path,
                                            std::string* error = nullptr);

/// Renders a manifest as human-readable tables: config, stage
/// rollups, the metrics counters and gauges, the per-arc QoR table and
/// the endpoint table.
std::string render_manifest(const obs::JsonValue& manifest);

/// Canonical form for committed goldens: schema_version, tool, config
/// and the QoR tables (arcs, endpoints, yield_hs) only — the stages /
/// metrics sections carry
/// per-run timing noise and are dropped. Key order is preserved, so
/// the output is byte-stable across identical-seed reruns.
obs::JsonValue canonicalize(const obs::JsonValue& manifest);

/// Diffs `current` against the `golden` reference arc-by-arc (keyed
/// on table/cell/arc/metric/load_idx/slew_idx) and endpoint-by-
/// endpoint (keyed on path). Missing rows, status / degradation /
/// convergence flips and numeric drift beyond DiffOptions are
/// regressions; extra rows and EM iteration drift are notes.
DiffResult diff_manifests(const obs::JsonValue& golden,
                          const obs::JsonValue& current,
                          const DiffOptions& options = {});

/// Perf-budget diff of two manifests: per-stage wall_ms / cpu_ms from
/// the `stages` rollup, process CPU (utime+stime) and peak RSS from
/// the `resource` section. A value beyond the budget is a regression;
/// stages present on only one side are notes (perf gates care about
/// cost, not coverage — the QoR diff owns presence).
DiffResult diff_perf(const obs::JsonValue& baseline,
                     const obs::JsonValue& current,
                     const PerfBudget& budget = {});

/// Parses flamegraph folded-stack text (`stack count` per line,
/// count = last whitespace-separated token) and aggregates duplicate
/// stacks. Returns nullopt (with a one-line description in `error`)
/// on a malformed line; blank lines are skipped.
std::optional<std::vector<FoldedStack>> parse_folded(
    std::string_view text, std::string* error = nullptr);

/// Renders a folded profile as a per-stage sample rollup (stage = the
/// root frame, i.e. the text before the first ';') followed by the
/// `top_n` hottest distinct stacks with counts and percentages.
std::string render_flame(const std::vector<FoldedStack>& stacks,
                         std::size_t top_n);

/// Summarizes an lvf2d access log (JSONL request traces written under
/// LVF2_ACCESS_LOG) as per-op rollups: request counts split
/// ok/failed/refused, the degradation-rung mix, and queue/exec
/// latency quantiles re-aggregated through a t-digest. Malformed
/// lines are skipped and counted. Returns nullopt (with a one-line
/// description in `error`) only when the text holds no valid record.
std::optional<std::string> render_access_log(std::string_view text,
                                             std::string* error = nullptr);

/// CLI entry point (exposed for tests):
/// `lvf2_report show|canon|diff|perf|flame|serve`. Returns 0 on
/// success, 1 on a diff/perf regression, 2 on usage/IO errors.
int report_main(int argc, const char* const* argv);

}  // namespace lvf2::tools
