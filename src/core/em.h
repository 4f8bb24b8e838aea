#pragma once
// Shared infrastructure of the mixture EM driver (core/mixture.h):
// the binned-likelihood data compression and the EM iteration report.

#include <cstddef>
#include <span>
#include <vector>

#include "core/timing_model.h"

namespace lvf2::core {

/// Weighted observation set. For raw fits, weights are all 1; for
/// binned-likelihood fits, x are bin centers and w are occupancies.
/// Binning is an O(n) compression that leaves the likelihood surface
/// unchanged at the bin resolution — see DESIGN.md decision 1.
struct WeightedData {
  std::vector<double> x;
  std::vector<double> w;
  double total_weight = 0.0;

  std::size_t size() const { return x.size(); }
};

/// Compresses `samples` per `options.likelihood_bins` (0 keeps raw
/// samples with unit weights). Bins with zero occupancy are dropped.
WeightedData make_weighted_data(std::span<const double> samples,
                                const FitOptions& options);

/// Weighted data from a tabulated density: grid points weighted by
/// density * step. Used to refit a model family to a propagated
/// (convolved) distribution in block-based SSTA.
WeightedData make_weighted_data(const stats::GridPdf& pdf);

/// How far down the graceful-degradation chain a fit had to walk:
///   validated samples -> mixture EM -> single component ->
///   moment-matched normal / point mass.
/// Every downgrade is also counted under a robust.downgrade.* metric.
enum class FitDegradation : int {
  kNone = 0,       ///< full K-component mixture fit
  kSingleSn,       ///< fell back to one moment-matched component of
                   ///< the family (for LVF^2 the lambda = 0 single
                   ///< skew-normal, paper Eq. 10)
  kMomentNormal,   ///< moment-matched normal / point mass (last rung)
  kRejected,       ///< nothing fittable at all (fit returned nullopt)
};

/// Stable short name ("none", "single_sn", "moment_normal",
/// "rejected") — used for counter names and logs.
const char* to_string(FitDegradation degradation);

/// Convergence report of an EM run.
struct EmReport {
  std::size_t iterations = 0;
  double log_likelihood = 0.0;
  bool converged = false;
  bool collapsed = false;   ///< a component degenerated; fit fell back
  bool oscillated = false;  ///< log-likelihood decreased repeatedly
                            ///< (numerical pathology; treated as collapse)
  std::size_t dropped_samples = 0;  ///< non-finite samples removed
  std::size_t clipped_samples = 0;  ///< outlier samples dropped
  FitDegradation degradation = FitDegradation::kNone;
};

}  // namespace lvf2::core
