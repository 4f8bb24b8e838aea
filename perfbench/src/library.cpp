// Workload `library`: characterizes a fixed subset of the paper's
// cell library through Characterizer::characterize_library (Monte
// Carlo plus LVF and LVF^2 fits for delay and transition per entry),
// then writes it with liberty::build_library / liberty::write_file.
// The characterization user's end product; EM dominates its time.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "cells/characterize.h"
#include "cells/library.h"
#include "core/binning.h"
#include "core/lvf2_model.h"
#include "core/lvf_model.h"
#include "core/metrics.h"
#include "core/yield.h"
#include "exec/pool.h"
#include "liberty/lvf_tables.h"
#include "liberty/parser.h"
#include "liberty/writer.h"
#include "spice/cellsim.h"
#include "stats/descriptive.h"
#include "stats/rng.h"
#include "stats/skew_normal.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace lvf2;

// The subset: one cell per structurally different family, first two
// arcs each, on the 2x2 corner sub-grid of the paper's 8x8 table
// (stride 7: slews 0.0023/0.8715 ns, loads 0.00015/0.8983 pF).
const char* const kCells[] = {"INV_X1",   "NAND2_X1", "NOR3_X1",
                              "XOR2_X1",  "AND4_X2",  "MUX2_X1",
                              "FA_X1",    "HA_X2"};
constexpr std::size_t kArcsPerCell = 2;
constexpr std::size_t kGridStride = 7;
constexpr std::size_t kMcSamples = 5000;  // per distribution

struct Setup {
  cells::StandardCellLibrary library;
  std::unique_ptr<cells::Characterizer> characterizer;
};

Setup make_setup(std::uint64_t seed) {
  const cells::StandardCellLibrary paper = cells::build_paper_library();
  std::vector<cells::Cell> subset;
  for (const char* name : kCells) {
    const cells::Cell* cell = paper.find(name);
    if (cell == nullptr) continue;  // reported by the entry-count check
    cells::Cell copy = *cell;
    if (copy.arcs.size() > kArcsPerCell) copy.arcs.resize(kArcsPerCell);
    subset.push_back(std::move(copy));
  }
  cells::CharacterizeOptions options;
  options.grid = cells::SlewLoadGrid::reduced(kGridStride);
  options.mc_samples = kMcSamples;
  options.seed_base = stats::combine_seed(0xC0FFEE, seed);
  options.fit.seed = stats::combine_seed(options.fit.seed, seed);
  Setup s;
  s.library = cells::StandardCellLibrary(std::move(subset));
  s.characterizer =
      std::make_unique<cells::Characterizer>(spice::ProcessCorner{}, options);
  // Pool warm-up: the shared pool's workers start on first use.
  exec::parallel_for(exec::thread_count(), 1, [](std::size_t) {});
  return s;
}

struct EntryRef {
  std::size_t cell = 0;
  std::size_t arc = 0;
  std::size_t load_idx = 0;
  std::size_t slew_idx = 0;
};

std::vector<EntryRef> entry_refs(const cells::StandardCellLibrary& lib,
                                 const cells::SlewLoadGrid& grid) {
  std::vector<EntryRef> out;
  for (std::size_t c = 0; c < lib.cells().size(); ++c) {
    for (std::size_t a = 0; a < lib.cells()[c].arcs.size(); ++a) {
      for (std::size_t li = 0; li < grid.rows(); ++li) {
        for (std::size_t si = 0; si < grid.cols(); ++si) {
          out.push_back(EntryRef{c, a, li, si});
        }
      }
    }
  }
  return out;
}

const cells::ConditionCharacterization& entry_of(
    const cells::LibraryCharacterization& lc, const EntryRef& e) {
  return lc.cells[e.cell].arcs[e.arc].at(e.load_idx, e.slew_idx);
}

bool finite_moments(const stats::SnMoments& m) {
  return std::isfinite(m.mean) && std::isfinite(m.stddev) &&
         std::isfinite(m.skewness);
}

bool finite_lvf2(const core::Lvf2Parameters& p) {
  return std::isfinite(p.lambda) && finite_moments(p.theta1) &&
         finite_moments(p.theta2);
}

bool entry_ok(const cells::ConditionCharacterization& cc) {
  return cc.status.is_ok() && std::isfinite(cc.nominal_delay_ns) &&
         std::isfinite(cc.nominal_transition_ns) &&
         finite_moments(cc.lvf_delay) && finite_moments(cc.lvf_transition) &&
         finite_lvf2(cc.lvf2_delay) && finite_lvf2(cc.lvf2_transition);
}

bool same_moments(const stats::SnMoments& a, const stats::SnMoments& b) {
  return a.mean == b.mean && a.stddev == b.stddev && a.skewness == b.skewness;
}

bool same_lvf2(const core::Lvf2Parameters& a, const core::Lvf2Parameters& b) {
  return a.lambda == b.lambda && same_moments(a.theta1, b.theta1) &&
         same_moments(a.theta2, b.theta2);
}

bool same_entry(const cells::ConditionCharacterization& a,
                const cells::ConditionCharacterization& b) {
  return same_moments(a.lvf_delay, b.lvf_delay) &&
         same_moments(a.lvf_transition, b.lvf_transition) &&
         same_lvf2(a.lvf2_delay, b.lvf2_delay) &&
         same_lvf2(a.lvf2_transition, b.lvf2_transition);
}

// Error reductions of LVF^2 against LVF on one golden sample set
// (paper Eq. 12, with the metrics' Monte-Carlo resolution floors).
struct Reductions {
  double binning = 0.0;
  double yield = 0.0;
  double cdf_rmse = 0.0;
};

Reductions reductions(const stats::SnMoments& lvf,
                      const core::Lvf2Parameters& lvf2,
                      std::span<const double> golden) {
  const core::LvfModel base = core::LvfModel::from_moments(lvf);
  const core::Lvf2Model model = core::Lvf2Model::from_parameters(lvf2);
  const stats::EmpiricalCdf cdf(golden);
  const std::size_t n = golden.size();
  Reductions r;
  r.binning = core::error_reduction(core::binning_error(base, cdf),
                                    core::binning_error(model, cdf),
                                    core::binning_error_floor(n));
  r.yield = core::error_reduction(core::three_sigma_yield_error(base, cdf),
                                  core::three_sigma_yield_error(model, cdf),
                                  core::yield_error_floor(n));
  r.cdf_rmse = core::error_reduction(core::cdf_rmse(base, cdf),
                                     core::cdf_rmse(model, cdf),
                                     core::cdf_rmse_floor(n));
  return r;
}

struct Accuracy {
  std::vector<double> binning;
  std::vector<double> yield;
  std::vector<double> cdf_rmse;

  void add(const Reductions& r) {
    binning.push_back(r.binning);
    yield.push_back(r.yield);
    cdf_rmse.push_back(r.cdf_rmse);
  }
};

// Accuracy of every characterized entry against its regenerated golden
// samples (the characterizer's Monte Carlo is seeded per entry, so
// golden_samples reproduces exactly the samples the fits saw).
Accuracy assess_library(const Setup& s, const std::vector<EntryRef>& refs,
                        const cells::LibraryCharacterization& lc,
                        Tracer* tracer) {
  Accuracy acc;
  for (const EntryRef& e : refs) {
    const cells::Cell& cell = s.library.cells()[e.cell];
    const cells::ConditionCharacterization& cc = entry_of(lc, e);
    spice::McResult mc;
    {
      Scope span(tracer, "spice.golden", "spice");
      mc = s.characterizer->golden_samples(cell, cell.arcs[e.arc],
                                           e.load_idx, e.slew_idx);
    }
    Scope span(tracer, "core.eval", "core");
    acc.add(reductions(cc.lvf_delay, cc.lvf2_delay, mc.delay_ns));
    acc.add(reductions(cc.lvf_transition, cc.lvf2_transition,
                       mc.transition_ns));
  }
  return acc;
}

double rel_diff(double a, double b, double scale) {
  return std::fabs(a - b) / std::max({std::fabs(a), std::fabs(b), scale});
}

// Reads the written library back and compares lambda and the moments
// of every entry to the characterized values at the writer's
// precision (%.7g; means are stored as shifts from the nominal).
std::size_t liberty_mismatches(const std::string& path, const Setup& s,
                               const std::vector<EntryRef>& refs,
                               const cells::LibraryCharacterization& lc,
                               std::string& first_error) {
  const liberty::Group root = liberty::parse_file(path);
  std::size_t bad = 0;
  const auto flag = [&](const std::string& what) {
    if (bad++ == 0) first_error = what;
  };
  constexpr double kTol = 2e-6;
  for (const EntryRef& e : refs) {
    const cells::Cell& cell = s.library.cells()[e.cell];
    const cells::TimingArc& arc = cell.arcs[e.arc];
    const cells::ConditionCharacterization& cc = entry_of(lc, e);
    const liberty::Group* cell_group = root.find_child("cell", cell.name);
    const liberty::Group* pin =
        cell_group ? cell_group->find_child("pin", arc.output_pin) : nullptr;
    const liberty::Group* timing =
        pin ? liberty::find_timing(*pin, arc.input_pin) : nullptr;
    if (timing == nullptr) {
      flag("no timing group for " + cell.name + " " + arc.label());
      continue;
    }
    const std::string dir = arc.rise_output ? "rise" : "fall";
    const std::pair<std::string, const core::Lvf2Parameters*> quantities[] = {
        {"cell_" + dir, &cc.lvf2_delay},
        {dir + "_transition", &cc.lvf2_transition}};
    for (const auto& [base, want] : quantities) {
      const auto tables = liberty::extract_tables(*timing, base);
      if (!tables) {
        flag("missing table " + base + " of " + cell.name);
        continue;
      }
      // Liberty index_1 is the slew, index_2 the load.
      const core::Lvf2Parameters got =
          tables->parameters_at(e.slew_idx, e.load_idx);
      const double scale = std::fabs(tables->nominal.at(e.slew_idx,
                                                        e.load_idx));
      bool ok = std::fabs(got.lambda - want->lambda) <= kTol &&
                rel_diff(got.theta1.mean, want->theta1.mean, scale) <= kTol &&
                rel_diff(got.theta1.stddev, want->theta1.stddev, 0.0) <= kTol &&
                std::fabs(got.theta1.skewness - want->theta1.skewness) <=
                    kTol * std::max(1.0, std::fabs(want->theta1.skewness));
      if (ok && want->lambda > 0.0) {
        ok = rel_diff(got.theta2.mean, want->theta2.mean, scale) <= kTol &&
             rel_diff(got.theta2.stddev, want->theta2.stddev, 0.0) <= kTol;
      }
      if (!ok) {
        flag("liberty round trip differs for " + cell.name + " " + base);
      }
    }
  }
  return bad;
}

// Serial replay of what characterize_entry does for one entry, with a
// span around every public call (Monte Carlo, LVF moment fit, LVF^2
// EM fits). Returns the replayed entry for comparison.
struct ReplayStats {
  std::vector<core::EmReport> reports;
  std::size_t samples = 0;
};

cells::ConditionCharacterization replay_entry(const Setup& s,
                                              const EntryRef& e,
                                              Tracer* tracer,
                                              ReplayStats& stats) {
  const cells::Cell& cell = s.library.cells()[e.cell];
  const cells::TimingArc& arc = cell.arcs[e.arc];
  const cells::CharacterizeOptions& options = s.characterizer->options();
  Scope entry_span(tracer, "cells.entry", "cells");
  cells::ConditionCharacterization cc;
  cc.condition = spice::ArcCondition{options.grid.slews_ns[e.slew_idx],
                                     options.grid.loads_pf[e.load_idx]};
  spice::McResult mc;
  {
    Scope span(tracer, "spice.mc", "spice");
    const spice::StageTimes nominal = spice::nominal_stage_times(
        arc.stage, cc.condition, s.characterizer->corner());
    cc.nominal_delay_ns = nominal.delay_ns;
    cc.nominal_transition_ns = nominal.transition_ns;
    mc = s.characterizer->golden_samples(cell, arc, e.load_idx, e.slew_idx);
  }
  stats.samples += mc.delay_ns.size();
  core::FitOptions fit = options.fit;
  fit.seed = stats::combine_seed(fit.seed, e.load_idx * 17 + e.slew_idx);
  {
    Scope span(tracer, "core.fit.lvf", "core");
    if (auto sn = stats::SkewNormal::fit_moments(mc.delay_ns)) {
      cc.lvf_delay = sn->to_moments();
    }
    if (auto sn = stats::SkewNormal::fit_moments(mc.transition_ns)) {
      cc.lvf_transition = sn->to_moments();
    }
  }
  const std::pair<const std::vector<double>*, core::Lvf2Parameters*> fits[] = {
      {&mc.delay_ns, &cc.lvf2_delay}, {&mc.transition_ns, &cc.lvf2_transition}};
  for (const auto& [samples, out] : fits) {
    core::EmReport report;
    Scope span(tracer, "core.fit.lvf2", "core");
    if (auto m = core::Lvf2Model::fit(*samples, fit, &report)) {
      *out = m->parameters();
    }
    stats.reports.push_back(report);
  }
  return cc;
}

// One untimed-mode round: the whole subset through the pool, then the
// Liberty output.
cells::LibraryCharacterization characterize_and_write(
    const Setup& s, const std::string& lib_path) {
  cells::LibraryCharacterization lc =
      s.characterizer->characterize_library(s.library);
  liberty::write_file(liberty::build_library(lc), lib_path);
  return lc;
}

void check_entries(RunResult& result, const std::vector<EntryRef>& refs,
                   const cells::LibraryCharacterization& lc,
                   std::size_t rounds) {
  std::size_t bad = 0;
  for (const EntryRef& e : refs) bad += entry_ok(entry_of(lc, e)) ? 0 : 1;
  result.attempted += refs.size() * rounds;
  result.failed += bad * rounds;
  if (bad > 0) {
    result.fail_check(std::to_string(bad) +
                      " entries not ok or with non-finite parameters");
  }
}

}  // namespace

RunResult run_library(const Options& options) {
  RunResult result;
  Setup s;
  if (options.setup_probe) {
    result.add("setup_s", time_setup_s([&] { s = make_setup(options.seed); }),
               "s");
    return result;
  }
  s = make_setup(options.seed);
  const std::vector<EntryRef> refs =
      entry_refs(s.library, s.characterizer->options().grid);
  const std::size_t expected =
      std::size(kCells) * kArcsPerCell *
      s.characterizer->options().grid.rows() *
      s.characterizer->options().grid.cols();
  if (refs.size() != expected) {
    result.fail_check("subset has " + std::to_string(refs.size()) +
                      " entries, expected " + std::to_string(expected));
  }
  const std::string lib_path = options.work_dir + "/library.lib";
  char line[160];
  std::snprintf(line, sizeof(line),
                "library: %zu cells, %zu entries, %zu MC samples per "
                "distribution, %zu threads",
                s.library.size(), refs.size(), kMcSamples,
                exec::thread_count());
  result.note(line);

  if (!options.trace) {
    cells::LibraryCharacterization first;
    cells::LibraryCharacterization last;
    const std::vector<double> rounds = timed_rounds(options.seconds, 2, [&] {
      last = characterize_and_write(s, lib_path);
      if (first.cells.empty()) first = last;
    });
    check_entries(result, refs, last, rounds.size());
    for (const EntryRef& e : refs) {
      if (!same_entry(entry_of(first, e), entry_of(last, e))) {
        result.fail_check("repeated rounds characterized an entry differently");
        ++result.failed;
        break;
      }
    }
    std::string error;
    if (const std::size_t bad =
            liberty_mismatches(lib_path, s, refs, last, error)) {
      result.failed += bad;
      result.fail_check(error);
    }
    const Accuracy acc = assess_library(s, refs, last, nullptr);
    EndToEnd e2e;
    e2e.setup_s = options.setup_s;
    e2e.ops_per_s = static_cast<double>(refs.size()) * 1000.0 / median(rounds);
    e2e.op_latency_ms = rounds;
    e2e.lvf2_binning_x = geomean(acc.binning);
    e2e.lvf2_cdf_rmse_x = geomean(acc.cdf_rmse);
    result.note(accuracy_note("binning_x", acc.binning));
    result.note(accuracy_note("cdf_rmse_x", acc.cdf_rmse));
    std::snprintf(line, sizeof(line),
                  "library: %zu rounds, LVF2 3-sigma yield reduction %.4fx "
                  "(geometric mean)",
                  rounds.size(), geomean(acc.yield));
    result.note(line);
    add_end_to_end(result, e2e);
    return result;
  }

  // Traced run: one untraced parallel round as the reference, then the
  // same entries replayed serially with spans.
  PerLayer pl;
  const double threads = static_cast<double>(exec::thread_count());
  const double cpu0 = process_cpu_s();
  const Clock::time_point p0 = Clock::now();
  const cells::LibraryCharacterization parallel =
      s.characterizer->characterize_library(s.library);
  const double parallel_ms = ms_since(p0);
  const double parallel_cpu_s = process_cpu_s() - cpu0;
  check_entries(result, refs, parallel, 1);

  const std::size_t budget = exec::thread_count();
  exec::set_thread_count(1);
  const Clock::time_point origin = Clock::now();
  Tracer tracer(origin);
  ReplayStats stats;
  cells::LibraryCharacterization replayed = parallel;
  for (const EntryRef& e : refs) {
    cells::ArcCharacterization& table = replayed.cells[e.cell].arcs[e.arc];
    table.entries[e.load_idx * table.grid.cols() + e.slew_idx] =
        replay_entry(s, e, &tracer, stats);
  }
  {
    Scope span(&tracer, "liberty.write", "liberty");
    liberty::write_file(liberty::build_library(replayed), lib_path);
  }
  std::string liberty_error;
  std::size_t liberty_bad = 0;
  {
    Scope span(&tracer, "liberty.parse", "liberty");
    liberty_bad = liberty_mismatches(lib_path, s, refs, replayed, liberty_error);
  }
  const Accuracy acc = assess_library(s, refs, replayed, &tracer);
  const double traced_ms = ms_since(origin);
  exec::set_thread_count(budget);

  result.attempted += refs.size();
  for (const EntryRef& e : refs) {
    if (!same_entry(entry_of(parallel, e), entry_of(replayed, e))) {
      result.fail_check("serial replay differs from characterize_library");
      ++result.failed;
      break;
    }
  }
  if (liberty_bad > 0) {
    result.failed += liberty_bad;
    result.fail_check(liberty_error);
  }

  set_durations(pl, "core.fit.lvf2", span_durations(tracer, "core.fit.lvf2"));
  pl.set("core.fit.lvf.total_ms", span_total_ms(tracer, "core.fit.lvf"));
  set_em_work(pl, "fit", stats.reports);
  set_em_health(pl, stats.reports);
  pl.set("core.eval_ms", span_total_ms(tracer, "core.eval"));
  pl.set("core.lvf2_yield_x", geomean(acc.yield));
  const std::vector<double> mc = span_durations(tracer, "spice.mc");
  pl.set("spice.mc_ms", mean(mc) * static_cast<double>(mc.size()));
  pl.set("spice.mc_calls", static_cast<double>(mc.size()));
  pl.set("spice.samples", static_cast<double>(stats.samples));
  const std::vector<double> entries = span_durations(tracer, "cells.entry");
  pl.set("cells.entries", static_cast<double>(entries.size()));
  pl.set("cells.entry_p50_ms", median(entries));
  pl.set("cells.entry_tail_ms", tail_of(entries).value);
  pl.set("liberty.write_ms", span_total_ms(tracer, "liberty.write"));
  pl.set("liberty.parse_ms", span_total_ms(tracer, "liberty.parse"));
  std::error_code ec;
  pl.set("liberty.bytes",
         static_cast<double>(std::filesystem::file_size(lib_path, ec)));
  set_layer_times(pl, {&tracer}, traced_ms, 1.0);
  // The parallel round's work is the entries alone.
  set_exec_times(pl, parallel_ms, parallel_cpu_s, threads,
                 span_total_ms(tracer, "cells.entry"));
  result.note("library: traced serial replay " + std::to_string(traced_ms) +
              " ms, parallel round " + std::to_string(parallel_ms) + " ms");
  if (!write_trace_file(options.work_dir + "/library.trace.json", {&tracer})) {
    result.note("could not write the span file");
  }
  pl.emit(result);
  return result;
}

}  // namespace perfbench
