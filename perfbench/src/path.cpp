// Workload `path`: ssta::assess_path on both Fig. 5 critical paths
// (the carry adder and the H-tree). Per stage it fits the four model
// families to raw Monte-Carlo samples, then propagates each family
// with ssta_sum and refits it to every convolved grid (refit_model).
// The same EM layer as `library`, but dominated by weighted grid
// refits; the only heavy user of ssta_sum.

#include <array>
#include <cmath>
#include <cstdio>
#include <memory>

#include "circuits/adder.h"
#include "circuits/htree.h"
#include "core/binning.h"
#include "core/em.h"
#include "core/lvf2_model.h"
#include "core/metrics.h"
#include "core/model_factory.h"
#include "core/norm2_model.h"
#include "exec/pool.h"
#include "spice/cellsim.h"
#include "ssta/path_analysis.h"
#include "stats/descriptive.h"
#include "stats/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace lvf2;

constexpr std::size_t kSamplesPerStage = 4000;
// Model and propagation grid resolution and the likelihood bins of the
// raw-sample fits (defaults: 2048, 2048/4096 and 512). EM cost scales
// with them; at these sizes a round takes a few seconds, so one run
// averages several reseeded rounds.
constexpr std::size_t kGridPoints = 256;

struct Setup {
  std::vector<ssta::TimingPath> paths;
  spice::ProcessCorner corner;
  std::vector<ssta::PathAssessmentOptions> options;  ///< one per path
};

Setup make_setup(std::uint64_t seed) {
  Setup s;
  s.paths.push_back(circuits::build_adder_critical_path({}, s.corner));
  s.paths.push_back(circuits::build_htree_path({}, s.corner));
  for (std::size_t p = 0; p < s.paths.size(); ++p) {
    ssta::PathAssessmentOptions o;
    o.mc.samples = kSamplesPerStage;
    o.model_grid_points = kGridPoints;
    o.ssta.grid_points = kGridPoints;
    o.ssta.max_conv_points = 2 * kGridPoints;
    o.fit.likelihood_bins = kGridPoints;
    o.mc.seed = stats::combine_seed(seed, p + 1);
    o.fit.seed = stats::combine_seed(o.fit.seed, seed);
    s.options.push_back(o);
  }
  exec::parallel_for(exec::thread_count(), 1, [](std::size_t) {});
  return s;
}

std::size_t total_stages(const Setup& s) {
  std::size_t n = 0;
  for (const ssta::TimingPath& p : s.paths) n += p.depth();
  return n;
}

// Output checks of one assessment: vectors as long as the path, every
// reduction finite, and the golden skewness shrinking along the path
// (the CLT, paper Section 3.4). Returns the number of failed stage x
// family operations.
std::size_t check_assessment(RunResult& result, const ssta::TimingPath& path,
                             const ssta::PathAssessment& a,
                             std::size_t samples) {
  const std::size_t depth = path.depth();
  if (a.binning_reduction.size() != depth ||
      a.cdf_rmse_reduction.size() != depth ||
      a.golden_skewness.size() != depth || a.fo4_position.size() != depth) {
    result.fail_check(path.name + ": output length differs from path depth");
    return depth * 4;
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    for (std::size_t k = 0; k < 4; ++k) {
      if (!std::isfinite(a.binning_reduction[i][k]) ||
          !std::isfinite(a.cdf_rmse_reduction[i][k])) {
        ++bad;
      }
    }
  }
  if (bad > 0) result.fail_check(path.name + ": non-finite reductions");
  // The CLT check: the path-end skewness sits below the largest one
  // along the path by more than twice the standard error of a sample
  // skewness (sqrt(6/n)); the first stage alone can be nearly
  // symmetric (the adder's is ~0.15), so it is not the reference.
  double peak = 0.0;
  for (const double g : a.golden_skewness) peak = std::max(peak, std::fabs(g));
  const double se = std::sqrt(6.0 / static_cast<double>(samples));
  if (!(std::fabs(a.golden_skewness.back()) + 2.0 * se < peak)) {
    result.fail_check(path.name + ": golden skewness does not decay (peak " +
                      std::to_string(peak) + ", end " +
                      std::to_string(a.golden_skewness.back()) + ")");
    ++bad;
  }
  return bad;
}

// What the timed and traced passes both feed back: per-stage LVF^2
// (index 0, all_model_kinds order) reductions over both paths.
struct PathAccuracy {
  std::vector<double> binning;
  std::vector<double> cdf_rmse;
  std::vector<double> yield;
};

void collect(PathAccuracy& acc, const ssta::PathAssessment& a) {
  for (const auto& row : a.binning_reduction) acc.binning.push_back(row[0]);
  for (const auto& row : a.cdf_rmse_reduction) acc.cdf_rmse.push_back(row[0]);
}

// ---- serial replay of assess_path with spans -----------------------------

struct ReplayStats {
  std::vector<core::EmReport> fit_reports;
  std::vector<core::EmReport> refit_reports;
  std::size_t sum_calls = 0;
  std::size_t samples = 0;
};

const char* family_name(core::ModelKind kind) {
  switch (kind) {
    case core::ModelKind::kLvf2:
      return "lvf2";
    case core::ModelKind::kNorm2:
      return "norm2";
    case core::ModelKind::kLesn:
      return "lesn";
    default:
      return "lvf";
  }
}

// fit_model, with the EM report of the mixtures made visible.
std::unique_ptr<core::TimingModel> fit_family(core::ModelKind kind,
                                              std::span<const double> x,
                                              const core::FitOptions& fit,
                                              ReplayStats& stats) {
  core::EmReport report;
  std::unique_ptr<core::TimingModel> model;
  if (kind == core::ModelKind::kLvf2) {
    if (auto m = core::Lvf2Model::fit(x, fit, &report)) {
      model = std::make_unique<core::Lvf2Model>(std::move(*m));
    }
  } else if (kind == core::ModelKind::kNorm2) {
    if (auto m = core::Norm2Model::fit(x, fit, &report)) {
      model = std::make_unique<core::Norm2Model>(std::move(*m));
    }
  } else {
    return core::fit_model(kind, x, fit);
  }
  stats.fit_reports.push_back(report);
  return model;
}

// refit_model, with the mixtures going through fit_weighted so the
// EmReport is visible (refit_model's own guard on the grid kept).
std::unique_ptr<core::TimingModel> refit_family(core::ModelKind kind,
                                                const stats::GridPdf& pdf,
                                                const core::FitOptions& fit,
                                                ReplayStats& stats) {
  const bool mixture =
      kind == core::ModelKind::kLvf2 || kind == core::ModelKind::kNorm2;
  if (!mixture || pdf.empty() || !(pdf.stddev() > 0.0)) {
    return core::refit_model(kind, pdf, fit);
  }
  core::EmReport report;
  std::unique_ptr<core::TimingModel> model;
  const core::WeightedData data = core::make_weighted_data(pdf);
  if (kind == core::ModelKind::kLvf2) {
    if (auto m = core::Lvf2Model::fit_weighted(data, fit, &report)) {
      model = std::make_unique<core::Lvf2Model>(std::move(*m));
    }
  } else if (auto m = core::Norm2Model::fit_weighted(data, fit, &report)) {
    model = std::make_unique<core::Norm2Model>(std::move(*m));
  }
  stats.refit_reports.push_back(report);
  return model;
}

ssta::PathAssessment replay_path(const ssta::TimingPath& path,
                                 const spice::ProcessCorner& corner,
                                 const ssta::PathAssessmentOptions& options,
                                 Tracer* tracer, ReplayStats& stats,
                                 PathAccuracy& acc) {
  ssta::PathAssessment out;
  const std::size_t depth = path.depth();
  ssta::PathMcResult golden;
  {
    Scope span(tracer, "ssta.path_mc", "ssta");
    golden = ssta::run_path_monte_carlo(path, corner, options.mc);
  }
  stats.samples += depth * options.mc.samples;
  {
    Scope span(tracer, "spice.nominal", "spice");
    const double fo4 = ssta::fo4_delay_ns(corner);
    double nominal_sum = 0.0;
    for (const ssta::PathStage& stage : path.stages) {
      const spice::StageTimes t = spice::nominal_stage_times(
          stage.arc().stage, stage.condition, corner);
      nominal_sum += t.delay_ns + stage.wire_delay_ns;
      out.nominal_cumulative_ns.push_back(nominal_sum);
      out.fo4_position.push_back(fo4 > 0.0 ? nominal_sum / fo4 : 0.0);
    }
  }

  const auto kinds = core::all_model_kinds();
  std::array<std::vector<stats::GridPdf>, 4> stage_pdfs;
  for (std::size_t i = 0; i < depth; ++i) {
    core::FitOptions fit = options.fit;
    fit.seed = stats::combine_seed(fit.seed, i + 1);
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      std::unique_ptr<core::TimingModel> model;
      {
        Scope span(tracer, std::string("core.fit.") + family_name(kinds[k]),
                   "core");
        model = fit_family(kinds[k], golden.stage_delays[i], fit, stats);
      }
      Scope span(tracer, "ssta.to_grid", "ssta");
      if (!model) {
        const stats::Moments m = stats::compute_moments(golden.stage_delays[i]);
        stage_pdfs[k].push_back(stats::GridPdf::from_function(
            [&](double) { return 1.0; }, m.mean - 1e-6, m.mean + 1e-6,
            options.model_grid_points));
        continue;
      }
      stage_pdfs[k].push_back(model->to_grid(options.model_grid_points, 8.0));
    }
  }

  std::array<std::vector<stats::GridPdf>, 4> cumulative;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    stats::GridPdf carried = stage_pdfs[k].front();
    cumulative[k].push_back(carried);
    for (std::size_t i = 1; i < depth; ++i) {
      stats::GridPdf conv;
      {
        Scope span(tracer, "ssta.sum", "ssta");
        conv = ssta::ssta_sum(carried, stage_pdfs[k][i], options.ssta);
      }
      ++stats.sum_calls;
      core::FitOptions fit = options.fit;
      fit.seed = stats::combine_seed(fit.seed, 1000 + i);
      std::unique_ptr<core::TimingModel> refit;
      {
        Scope span(tracer,
                   std::string("core.refit.") + family_name(kinds[k]), "core");
        refit = refit_family(kinds[k], conv, fit, stats);
      }
      Scope span(tracer, "ssta.to_grid", "ssta");
      carried = refit ? refit->to_grid(options.model_grid_points, 8.0) : conv;
      cumulative[k].push_back(carried);
    }
  }

  Scope eval_span(tracer, "core.eval", "core");
  out.binning_reduction.resize(depth);
  out.cdf_rmse_reduction.resize(depth);
  out.golden_skewness.resize(depth);
  const std::size_t lvf = kinds.size() - 1;
  const std::size_t n = options.mc.samples;
  for (std::size_t i = 0; i < depth; ++i) {
    const stats::EmpiricalCdf golden_cdf(golden.cumulative[i]);
    const stats::Moments gm = stats::compute_moments(golden.cumulative[i]);
    out.golden_skewness[i] = gm.skewness;
    const std::vector<double> boundaries =
        core::sigma_bin_boundaries(gm.mean, gm.stddev);
    const std::vector<double> golden_bins =
        core::bin_probabilities(golden_cdf, boundaries);
    const double t3 = gm.mean + 3.0 * gm.stddev;
    std::array<double, 4> bin_err{};
    std::array<double, 4> rmse_err{};
    std::array<double, 4> yield_err{};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const stats::GridPdf& dist = cumulative[k][i];
      const auto cdf = [&dist](double x) { return dist.cdf(x); };
      bin_err[k] = core::binning_error(core::bin_probabilities(cdf, boundaries),
                                       golden_bins);
      rmse_err[k] = core::cdf_rmse(cdf, golden_cdf);
      yield_err[k] = std::fabs(dist.cdf(t3) - golden_cdf(t3));
    }
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      out.binning_reduction[i][k] = core::error_reduction(
          bin_err[lvf], bin_err[k], core::binning_error_floor(n));
      out.cdf_rmse_reduction[i][k] = core::error_reduction(
          rmse_err[lvf], rmse_err[k], core::cdf_rmse_floor(n));
    }
    acc.yield.push_back(core::error_reduction(
        yield_err[lvf], yield_err[0], core::yield_error_floor(n)));
  }
  return out;
}

}  // namespace

RunResult run_path(const Options& options) {
  RunResult result;
  Setup s;
  if (options.setup_probe) {
    result.add("setup_s", time_setup_s([&] { s = make_setup(options.seed); }),
               "s");
    return result;
  }
  s = make_setup(options.seed);
  const std::size_t stages = total_stages(s);
  char line[200];
  std::snprintf(line, sizeof(line),
                "path: %s %zu stages + %s %zu stages, %zu MC samples per "
                "stage, %zu threads",
                s.paths[0].name.c_str(), s.paths[0].depth(),
                s.paths[1].name.c_str(), s.paths[1].depth(), kSamplesPerStage,
                exec::thread_count());
  result.note(line);

  // Round r > 0 reseeds the Monte Carlo and the fits, so a run averages
  // the EM work of several sample sets instead of repeating one.
  const auto assess_all = [&](std::uint64_t round) {
    std::vector<ssta::PathAssessment> out;
    for (std::size_t p = 0; p < s.paths.size(); ++p) {
      ssta::PathAssessmentOptions o = s.options[p];
      if (round > 0) {
        o.mc.seed = stats::combine_seed(o.mc.seed, round);
        o.fit.seed = stats::combine_seed(o.fit.seed, round);
      }
      out.push_back(ssta::assess_path(s.paths[p], s.corner, o));
    }
    return out;
  };
  const auto check_all = [&](const std::vector<ssta::PathAssessment>& a,
                             std::size_t rounds) {
    for (std::size_t p = 0; p < s.paths.size(); ++p) {
      result.attempted += s.paths[p].depth() * 4 * rounds;
      result.failed +=
          check_assessment(result, s.paths[p], a[p], kSamplesPerStage) *
          rounds;
    }
  };

  if (!options.trace) {
    std::vector<ssta::PathAssessment> first;
    std::uint64_t round = 0;
    const std::vector<double> rounds = timed_rounds(options.seconds, 2, [&] {
      const std::vector<ssta::PathAssessment> a = assess_all(round++);
      check_all(a, 1);
      if (first.empty()) first = a;
    });
    // Accuracy of round 0: a function of the seed alone.
    PathAccuracy acc;
    for (const ssta::PathAssessment& a : first) collect(acc, a);
    double total_ms = 0.0;
    for (const double ms : rounds) total_ms += ms;
    EndToEnd e2e;
    e2e.setup_s = options.setup_s;
    e2e.ops_per_s = static_cast<double>(stages * rounds.size()) * 1000.0 /
                    total_ms;
    e2e.op_latency_ms = rounds;
    e2e.lvf2_binning_x = geomean(acc.binning);
    e2e.lvf2_cdf_rmse_x = geomean(acc.cdf_rmse);
    result.note(accuracy_note("binning_x", acc.binning));
    result.note(accuracy_note("cdf_rmse_x", acc.cdf_rmse));
    std::snprintf(line, sizeof(line),
                  "path: %zu rounds; LVF2 binning reduction at the first "
                  "stage %.3fx (adder) / %.3fx (htree)",
                  rounds.size(), first[0].binning_reduction.front()[0],
                  first[1].binning_reduction.front()[0]);
    result.note(line);
    add_end_to_end(result, e2e);
    return result;
  }

  // Traced run: the untraced assess_path round (pool fan-out inside the
  // golden path Monte Carlo), then a serial replay with spans.
  PerLayer pl;
  const double threads = static_cast<double>(exec::thread_count());
  const double cpu0 = process_cpu_s();
  const Clock::time_point p0 = Clock::now();
  const std::vector<ssta::PathAssessment> parallel = assess_all(0);
  const double parallel_ms = ms_since(p0);
  const double parallel_cpu_s = process_cpu_s() - cpu0;
  check_all(parallel, 1);

  const std::size_t budget = exec::thread_count();
  exec::set_thread_count(1);
  const Clock::time_point origin = Clock::now();
  Tracer tracer(origin);
  ReplayStats stats;
  PathAccuracy acc;
  std::vector<ssta::PathAssessment> traced;
  for (std::size_t p = 0; p < s.paths.size(); ++p) {
    traced.push_back(replay_path(s.paths[p], s.corner, s.options[p], &tracer,
                                 stats, acc));
  }
  const double traced_ms = ms_since(origin);
  exec::set_thread_count(budget);

  for (std::size_t p = 0; p < s.paths.size(); ++p) {
    result.attempted += s.paths[p].depth() * 4;
    if (parallel[p].binning_reduction != traced[p].binning_reduction ||
        parallel[p].cdf_rmse_reduction != traced[p].cdf_rmse_reduction ||
        parallel[p].golden_skewness != traced[p].golden_skewness) {
      result.fail_check(s.paths[p].name +
                        ": serial replay differs from assess_path");
      result.failed += s.paths[p].depth() * 4;
    }
  }

  for (const std::string stage : {"fit", "refit"}) {
    for (const char* family : {"lvf2", "norm2"}) {
      const std::string name = "core." + stage + "." + family;
      set_durations(pl, name, span_durations(tracer, name));
    }
    for (const char* family : {"lesn", "lvf"}) {
      const std::string name = "core." + stage + "." + family;
      pl.set(name + ".total_ms", span_total_ms(tracer, name));
    }
  }
  set_em_work(pl, "fit", stats.fit_reports);
  set_em_work(pl, "refit", stats.refit_reports);
  std::vector<core::EmReport> all = stats.fit_reports;
  all.insert(all.end(), stats.refit_reports.begin(), stats.refit_reports.end());
  set_em_health(pl, all);
  pl.set("core.eval_ms", span_total_ms(tracer, "core.eval"));
  pl.set("core.lvf2_yield_x", geomean(acc.yield));
  pl.set("spice.samples", static_cast<double>(stats.samples));
  pl.set("ssta.path_mc_ms", span_total_ms(tracer, "ssta.path_mc"));
  pl.set("ssta.sum_ms", span_total_ms(tracer, "ssta.sum"));
  pl.set("ssta.sum_calls", static_cast<double>(stats.sum_calls));
  pl.set("ssta.to_grid_ms", span_total_ms(tracer, "ssta.to_grid"));
  set_layer_times(pl, {&tracer}, traced_ms, 1.0);
  set_exec_times(pl, parallel_ms, parallel_cpu_s, threads, traced_ms);
  result.note("path: traced serial replay " + std::to_string(traced_ms) +
              " ms, assess_path round " + std::to_string(parallel_ms) + " ms");
  if (!write_trace_file(options.work_dir + "/path.trace.json", {&tracer})) {
    result.note("could not write the span file");
  }
  pl.emit(result);
  return result;
}

}  // namespace perfbench
