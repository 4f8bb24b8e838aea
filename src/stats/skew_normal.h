#pragma once
// Azzalini skew-normal (SN) distribution — the statistical core of the
// Liberty Variation Format (LVF). LVF stores the moment vector
// theta = (mu, sigma, gamma); a bijection g maps it to the direct SN
// parameters Theta = (xi, omega, alpha) (paper Eq. 2), and the density
// is
//   f_SN(x | Theta) = 2/omega * phi((x-xi)/omega) * Phi(alpha (x-xi)/omega)
// (paper Eq. 3). The CDF uses Owen's T:
//   F_SN(z) = Phi(z) - 2 T(z, alpha).

#include <optional>

#include "stats/descriptive.h"
#include "stats/optimize.h"
#include "stats/rng.h"

namespace lvf2::stats {

/// Maximum attainable |skewness| of a skew-normal (delta -> 1 limit),
/// approximately 0.99527. The moment bijection clamps requested
/// skewness slightly inside this bound.
double skew_normal_max_skewness();

/// Moment triple used by LVF look-up tables.
struct SnMoments {
  double mean = 0.0;
  double stddev = 1.0;
  double skewness = 0.0;
};

/// Direct-parameter skew-normal distribution.
class SkewNormal {
 public:
  /// Standard normal by default (alpha = 0).
  SkewNormal() = default;

  /// Direct parameters: location `xi`, scale `omega` > 0, shape `alpha`.
  SkewNormal(double xi, double omega, double alpha);

  /// The bijection g: theta -> Theta (paper Eq. 2). Skewness is
  /// clamped into the attainable open interval (non-finite skewness
  /// reads as 0). A degenerate spread (stddev <= 0 or non-finite)
  /// degrades to a point mass at `mean` — counted under
  /// robust.stats.point_mass — so the EM degradation chain can keep
  /// going on near-constant sample sets. A non-finite mean still
  /// throws: that is a caller bug, not recoverable data.
  static SkewNormal from_moments(const SnMoments& m);
  static SkewNormal from_moments(double mean, double stddev, double skewness);

  /// Inverse bijection g^-1: Theta -> theta.
  SnMoments to_moments() const;

  double xi() const { return xi_; }
  double omega() const { return omega_; }
  double alpha() const { return alpha_; }
  /// delta = alpha / sqrt(1 + alpha^2).
  double delta() const;

  double pdf(double x) const;
  double log_pdf(double x) const;
  double cdf(double x) const;
  /// Batch overloads through the dispatch-selected kernels (simd.h);
  /// out.size() must be >= x.size(). In-place (out == x) is allowed.
  void pdf(std::span<const double> x, std::span<double> out) const;
  void log_pdf(std::span<const double> x, std::span<double> out) const;
  void cdf(std::span<const double> x, std::span<double> out) const;
  /// Inverse CDF by bracketed bisection + Newton polish.
  double quantile(double p) const;
  /// Sampling via the convolution representation
  /// Z = delta |U0| + sqrt(1-delta^2) U1 with U0, U1 iid N(0,1).
  double sample(Rng& rng) const;

  double mean() const;
  double stddev() const;
  double variance() const;
  double skewness() const;
  /// Fourth standardized moment (normal == 3).
  double kurtosis() const;

  /// Weighted maximum-likelihood fit (the skew-normal EM M-step):
  /// maximizes sum_i w_i log f(x_i) over (xi, log omega, alpha) with
  /// Nelder-Mead, warm-started from `initial` when provided, else from
  /// the weighted method of moments. EM callers pass a shrinking
  /// `options.initial_step` as successive M-steps move less, so a
  /// warm-started refinement converges in a fraction of the
  /// cold-start budget. The returned fit is never worse (in weighted
  /// NLL) than `initial`: the start point is a simplex vertex. Returns
  /// nullopt when the data or weights are degenerate.
  static std::optional<SkewNormal> fit_weighted_mle(
      std::span<const double> samples, std::span<const double> weights,
      const SkewNormal* initial, const NelderMeadOptions& options);

  /// Method-of-moments fit from (possibly weighted) samples.
  static std::optional<SkewNormal> fit_moments(
      std::span<const double> samples, std::span<const double> weights = {});

 private:
  double xi_ = 0.0;
  double omega_ = 1.0;
  double alpha_ = 0.0;
};

}  // namespace lvf2::stats
