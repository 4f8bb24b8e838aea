#pragma once
// The one mixture model of the repository: K weighted components of
// one family,
//
//   f(x) = sum_k w_k f(x | theta_k),   sum_k w_k = 1,
//
// where the family is the skew-normal (paper Eq. 3; LVF^2 is K = 2,
// paper Eq. 4, and LVF^k the Section 3.3 extension) or the normal,
// carried as the alpha == 0 member of the same family (Norm^2, paper
// ref. [10]). All three are fitted by one EM driver (paper Section
// 3.2): sample validation and outlier dropping, k-means / width-split /
// tail-split starts with a staged burst, the warm-started Nelder-Mead
// M-step (closed form for the normal family), canonical component
// order, moment pinning, a single-component likelihood guard and the
// graceful-degradation chain (DESIGN.md decisions 7, 8, 14 and 23).
//
// Lvf2Model, Norm2Model and LvfKModel are named facades over this
// class (core/lvf2_model.h, core/norm2_model.h, core/lvfk_model.h).

#include <optional>
#include <vector>

#include "core/em.h"
#include "core/timing_model.h"
#include "stats/skew_normal.h"

namespace lvf2::core {

/// K-component mixture of one family.
class Mixture : public TimingModel {
 public:
  /// One weighted component; normal-family components have alpha 0.
  struct Component {
    double weight = 1.0;
    stats::SkewNormal sn;
  };

  /// Takes the components exactly as given: no renormalization, no
  /// re-ordering (Liberty order round-trips). `kind` labels the model
  /// and selects the family: kNorm2 is normal, kLvf2 / kLvfK are
  /// skew-normal. Throws std::invalid_argument for another kind, no
  /// components, or a weight outside [0, 1].
  Mixture(ModelKind kind, std::vector<Component> components);

  /// Components with weights scaled to sum to 1 and sorted by
  /// ascending mean. Throws for a negative weight or zero total.
  static Mixture normalized(ModelKind kind, std::vector<Component> components);

  /// EM fit of `k` components of the family `kind` names. Non-finite
  /// samples and absurd outliers are dropped first; if EM
  /// cannot hold a mixture the fit falls back to a single component
  /// (weight 1, the other K - 1 slots weight 0: paper Eq. 10 for
  /// K = 2), then to a moment-matched point mass for constant data.
  /// Only an empty sample set (or k == 0) returns nullopt.
  /// `report->degradation` and the robust.downgrade.* counters record
  /// which rung was used.
  static std::optional<Mixture> fit(std::span<const double> samples,
                                    ModelKind kind, std::size_t k,
                                    const FitOptions& options = {},
                                    EmReport* report = nullptr);

  /// The same fit on weighted observations (binned samples, or a
  /// tabulated density from block-based SSTA propagation).
  static std::optional<Mixture> fit_weighted(const WeightedData& data,
                                             ModelKind kind, std::size_t k,
                                             const FitOptions& options = {},
                                             EmReport* report = nullptr);

  const std::vector<Component>& components() const { return components_; }
  std::size_t component_count() const { return components_.size(); }

  /// Weighted log-likelihood of a data set under this model
  /// (paper Eq. 5 with weights).
  double log_likelihood(const WeightedData& data) const;

  /// Bayesian information criterion for model-order selection:
  /// -2 logL + p ln(n), p = 4K - 1 (skew-normal) or 3K - 1 (normal).
  double bic(const WeightedData& data) const;

  ModelKind kind() const override { return kind_; }
  double pdf(double x) const override;
  double log_pdf(double x) const;
  double cdf(double x) const override;
  void pdf_batch(std::span<const double> x,
                 std::span<double> out) const override;
  void cdf_batch(std::span<const double> x,
                 std::span<double> out) const override;
  double quantile(double p) const override;
  double mean() const override;
  double stddev() const override;
  double skewness() const;
  /// Draws the last component when u < w_K, else the one before when
  /// u - w_K < w_{K-1}, and so on: for K = 2 component 2 exactly when
  /// u < lambda.
  double sample(stats::Rng& rng) const override;

 protected:
  /// Rewraps a fitted Mixture as a facade type (which befriends
  /// Mixture for its private Facade(Mixture) constructor).
  template <typename Facade>
  static std::optional<Facade> as(std::optional<Mixture> m) {
    if (!m) return std::nullopt;
    return Facade(std::move(*m));
  }

 private:
  // out[i] = sum_c w_c eval(component c)(x[i]), in component order.
  template <typename Eval>
  void weighted_batch(std::span<const double> x, std::span<double> out,
                      Eval eval) const;

  ModelKind kind_;
  std::vector<Component> components_;
};

}  // namespace lvf2::core
