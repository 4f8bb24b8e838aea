#pragma once
// Norm^2 baseline (paper ref. [10], Takahashi et al. DAC'09): a
// two-component Gaussian mixture
//   f(x) = (1 - lambda) N(x | mu1, sigma1) + lambda N(x | mu2, sigma2)
// Unlike LVF^2 it ignores the skewness of the components. This is a
// named facade: the model is a core::Mixture of K = 2 normal-family
// components, fitted by Mixture's EM driver with its closed-form
// M-step (core/mixture.h).

#include <optional>

#include "core/mixture.h"
#include "stats/normal.h"

namespace lvf2::core {

/// Two-component Gaussian mixture model.
class Norm2Model final : public Mixture {
 public:
  /// Direct construction; `lambda` in [0,1] weights `second`.
  Norm2Model(double lambda, const stats::Normal& first,
             const stats::Normal& second)
      : Mixture(ModelKind::kNorm2,
                {{1.0 - lambda, stats::SkewNormal(first.mean(),
                                                  first.stddev(), 0.0)},
                 {lambda, stats::SkewNormal(second.mean(), second.stddev(),
                                            0.0)}}) {}

  /// Mixture::fit with K = 2 normal components.
  static std::optional<Norm2Model> fit(std::span<const double> samples,
                                       const FitOptions& options = {},
                                       EmReport* report = nullptr) {
    return as<Norm2Model>(
        Mixture::fit(samples, ModelKind::kNorm2, 2, options, report));
  }

  /// Mixture::fit_weighted with K = 2 normal components (e.g. a
  /// tabulated density from block-based SSTA propagation).
  static std::optional<Norm2Model> fit_weighted(const WeightedData& data,
                                                const FitOptions& options = {},
                                                EmReport* report = nullptr) {
    return as<Norm2Model>(
        Mixture::fit_weighted(data, ModelKind::kNorm2, 2, options, report));
  }

  double lambda() const { return components()[1].weight; }
  stats::Normal component1() const { return normal_of(components()[0].sn); }
  stats::Normal component2() const { return normal_of(components()[1].sn); }

 private:
  friend class Mixture;
  explicit Norm2Model(Mixture m) : Mixture(std::move(m)) {}
  static stats::Normal normal_of(const stats::SkewNormal& sn) {
    return stats::Normal(sn.xi(), sn.omega());
  }
};

}  // namespace lvf2::core
