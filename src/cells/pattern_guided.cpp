#include "cells/pattern_guided.h"

#include <cmath>

#include "core/norm2_model.h"
#include "obs/obs.h"
#include "stats/rng.h"

namespace lvf2::cells {

double estimate_mixture_strength(std::span<const double> samples,
                                 const core::FitOptions& fit) {
  // Per-sample log-likelihood advantage of a two-Gaussian mixture
  // over a single skew-normal. Any unimodal (even skewed) data is
  // matched by the skew-normal, so the advantage sits near 0; genuine
  // mixtures gain O(0.01..1) nats per sample. The advantage is scaled
  // by the fitted mixing balance 4 lambda (1 - lambda): a regime
  // mixture puts real weight on both mechanisms, while a converged
  // EM also finds a minority component of a few percent on the tail
  // of any heavy-tailed unimodal set, which is shape, not a second
  // regime (the factor is 1 at lambda = 1/2, ~0.3 at lambda = 0.08).
  const auto norm2 = core::Norm2Model::fit(samples, fit);
  const auto sn = stats::SkewNormal::fit_moments(samples);
  if (!norm2 || !sn) return 0.0;
  double ll2 = 0.0, ll1 = 0.0;
  for (double x : samples) {
    ll2 += std::log(std::max(norm2->pdf(x), 1e-300));
    ll1 += sn->log_pdf(x);
  }
  const double n = static_cast<double>(samples.size());
  const double balance = 4.0 * norm2->lambda() * (1.0 - norm2->lambda());
  return std::max(0.0, balance * (ll2 - ll1) / std::max(n, 1.0));
}

PatternGuidedResult pattern_guided_characterize_arc(
    const Cell& cell, const TimingArc& arc,
    const spice::ProcessCorner& corner,
    const PatternGuidedOptions& options) {
  obs::TraceSpan arc_span("pattern_guided.arc", [&] {
    return obs::ArgsBuilder()
        .add("cell", cell.name)
        .add("arc", arc.label())
        .str();
  });
  static obs::Counter& entries_counter =
      obs::counter("pattern_guided.entries");
  static obs::Counter& full_counter =
      obs::counter("pattern_guided.full_fits");
  static obs::Counter& screened_counter =
      obs::counter("pattern_guided.screened_out");

  PatternGuidedResult result;
  result.grid = options.grid;
  result.entries.reserve(options.grid.rows() * options.grid.cols());

  core::FitOptions pilot_fit = options.fit;
  pilot_fit.likelihood_bins = 128;
  pilot_fit.em_max_iterations = 30;

  for (std::size_t li = 0; li < options.grid.rows(); ++li) {
    for (std::size_t si = 0; si < options.grid.cols(); ++si) {
      obs::TraceSpan entry_span("pattern_guided.entry", [&] {
        return obs::ArgsBuilder()
            .add("load_idx", li)
            .add("slew_idx", si)
            .str();
      });
      entries_counter.add(1);

      PatternGuidedEntry entry;
      entry.condition = spice::ArcCondition{options.grid.slews_ns[si],
                                            options.grid.loads_pf[li]};
      const std::uint64_t seed = stats::combine_seed(
          options.seed_base,
          stats::hash_name(cell.name + "/" + arc.label()) + li * 131 + si);

      // Pilot screening.
      spice::McConfig pilot_cfg;
      pilot_cfg.samples = options.pilot_samples;
      pilot_cfg.seed = seed;
      const spice::McResult pilot = spice::run_monte_carlo(
          arc.stage, entry.condition, corner, pilot_cfg);
      entry.pilot_strength =
          estimate_mixture_strength(pilot.delay_ns, pilot_fit);

      core::FitOptions fit = options.fit;
      fit.seed = stats::combine_seed(fit.seed, li * 17 + si);
      if (entry.pilot_strength >= options.strength_threshold) {
        // Full-budget golden run + LVF^2 EM.
        spice::McConfig full_cfg;
        full_cfg.samples = options.full_samples;
        full_cfg.seed = seed + 1;
        const spice::McResult full = spice::run_monte_carlo(
            arc.stage, entry.condition, corner, full_cfg);
        if (auto model = core::Lvf2Model::fit(full.delay_ns, fit)) {
          entry.delay_params = model->parameters();
        }
        entry.full_fit = true;
        entry.samples_used = options.pilot_samples + options.full_samples;
        ++result.full_fits;
        full_counter.add(1);
      } else {
        // Screened out: plain LVF from the pilot samples (lambda = 0).
        if (auto sn = stats::SkewNormal::fit_moments(pilot.delay_ns)) {
          entry.delay_params.lambda = 0.0;
          entry.delay_params.theta1 = sn->to_moments();
          entry.delay_params.theta2 = entry.delay_params.theta1;
        }
        entry.samples_used = options.pilot_samples;
        ++result.screened_out;
        screened_counter.add(1);
      }
      result.samples_spent += entry.samples_used;
      result.samples_full_run +=
          options.pilot_samples + options.full_samples;
      result.entries.push_back(std::move(entry));
    }
  }
  return result;
}

}  // namespace lvf2::cells
