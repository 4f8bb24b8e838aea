#pragma once
// Accuracy-pattern-guided characterization — the speedup the paper's
// conclusion anticipates: "assuming such an accuracy pattern can
// provide significant insight to speed up the statistical
// characterization that includes MC simulations across multiple
// slew-load pairs."
//
// The multi-Gaussian phenomenon concentrates on the confrontation
// diagonal of the slew/load table (paper Fig. 4). This engine runs a
// cheap pilot Monte-Carlo per table entry, estimates the mixture
// strength from a fast two-Gaussian fit, and spends the full sample
// budget + LVF^2 EM only on entries above a strength threshold; the
// rest are characterized as plain LVF (lambda = 0) from the pilot-
// extended samples.

#include <vector>

#include "cells/characterize.h"

namespace lvf2::cells {

/// Options of a pattern-guided run.
struct PatternGuidedOptions {
  SlewLoadGrid grid = SlewLoadGrid::paper_grid();
  std::size_t pilot_samples = 800;    ///< cheap screening budget
  std::size_t full_samples = 10000;   ///< budget for flagged entries
  /// Mixture-strength cut: the pilot's per-sample log-likelihood
  /// advantage of a two-Gaussian mixture over a single skew-normal
  /// (nats/sample). Entries below it keep plain LVF. 1.5e-3
  /// separates the confrontation band from the unimodal corners at
  /// the default 800-sample pilot.
  double strength_threshold = 1.5e-3;
  core::FitOptions fit;
  std::uint64_t seed_base = 0xC0FFEE;
};

/// Outcome of one table entry.
struct PatternGuidedEntry {
  spice::ArcCondition condition;
  double pilot_strength = 0.0;
  bool full_fit = false;             ///< got the full-budget LVF^2 EM
  std::size_t samples_used = 0;
  core::Lvf2Parameters delay_params; ///< lambda = 0 when screened out
};

/// Result of one arc.
struct PatternGuidedResult {
  SlewLoadGrid grid;
  std::vector<PatternGuidedEntry> entries;  ///< row-major load x slew
  std::size_t full_fits = 0;
  std::size_t screened_out = 0;
  std::size_t samples_spent = 0;
  std::size_t samples_full_run = 0;  ///< what a full run would cost

  const PatternGuidedEntry& at(std::size_t load_idx,
                               std::size_t slew_idx) const {
    return entries[load_idx * grid.cols() + slew_idx];
  }
  /// Fraction of the full-run sample budget actually spent.
  double budget_fraction() const {
    return (samples_full_run > 0)
               ? static_cast<double>(samples_spent) /
                     static_cast<double>(samples_full_run)
               : 0.0;
  }
};

/// Mixture-strength estimate of a sample set: the per-sample
/// log-likelihood advantage (nats) of a two-Gaussian mixture over a
/// single skew-normal, scaled by the mixing balance 4 lambda
/// (1 - lambda) — ~0 for unimodal data (even skewed or heavy-tailed),
/// clearly positive for genuine mixtures.
double estimate_mixture_strength(std::span<const double> samples,
                                 const core::FitOptions& fit = {});

/// Runs pattern-guided characterization of one arc's delay tables.
PatternGuidedResult pattern_guided_characterize_arc(
    const Cell& cell, const TimingArc& arc,
    const spice::ProcessCorner& corner, const PatternGuidedOptions& options);

}  // namespace lvf2::cells
