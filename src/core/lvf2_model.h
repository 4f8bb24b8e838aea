#pragma once
// LVF^2 — the paper's contribution (Section 3): a two-component
// weighted skew-normal mixture
//
//   f_LVF2(x | lambda, theta1, theta2) =
//       (1 - lambda) f_LVF(x | theta1) + lambda f_LVF(x | theta2)
//
// (paper Eq. 4), fitted by EM (Section 3.2). This is a named facade:
// the model is a core::Mixture of K = 2 skew-normals, and the fit is
// Mixture's EM driver (core/mixture.h).
//
// Backward compatibility (Section 3.3 / Eq. 10): lambda == 0 makes
// LVF^2 collapse to the plain LVF skew-normal, and `from_lvf`
// constructs exactly that.

#include <optional>

#include "core/mixture.h"

namespace lvf2::core {

/// Full LVF^2 parameter set in moment space, as stored in a Liberty
/// library: theta_i = (mean, stddev, skewness), plus the weight.
struct Lvf2Parameters {
  double lambda = 0.0;           ///< weight of the second component
  stats::SnMoments theta1;       ///< first skew-normal (LVF-compatible)
  stats::SnMoments theta2;       ///< second skew-normal
};

/// Two-component skew-normal mixture model.
class Lvf2Model final : public Mixture {
 public:
  /// Direct construction; `lambda` in [0,1] weights `second`.
  Lvf2Model(double lambda, const stats::SkewNormal& first,
            const stats::SkewNormal& second)
      : Mixture(ModelKind::kLvf2, {{1.0 - lambda, first}, {lambda, second}}) {}

  /// Backward compatibility (Eq. 10): an LVF^2 with lambda = 0 whose
  /// first component is the given LVF skew-normal.
  static Lvf2Model from_lvf(const stats::SkewNormal& lvf) {
    return Lvf2Model(0.0, lvf, lvf);
  }

  /// Construction from Liberty moment-space parameters.
  static Lvf2Model from_parameters(const Lvf2Parameters& p) {
    return Lvf2Model(p.lambda, stats::SkewNormal::from_moments(p.theta1),
                     stats::SkewNormal::from_moments(p.theta2));
  }

  /// Mixture::fit with K = 2 skew-normal components (see there for the
  /// degradation chain; only an empty sample set returns nullopt).
  static std::optional<Lvf2Model> fit(std::span<const double> samples,
                                      const FitOptions& options = {},
                                      EmReport* report = nullptr) {
    return as<Lvf2Model>(
        Mixture::fit(samples, ModelKind::kLvf2, 2, options, report));
  }

  /// Mixture::fit_weighted with K = 2 skew-normal components (e.g. the
  /// family refit at each timing-graph node of block-based SSTA).
  static std::optional<Lvf2Model> fit_weighted(const WeightedData& data,
                                               const FitOptions& options = {},
                                               EmReport* report = nullptr) {
    return as<Lvf2Model>(
        Mixture::fit_weighted(data, ModelKind::kLvf2, 2, options, report));
  }

  double lambda() const { return components()[1].weight; }
  const stats::SkewNormal& component1() const { return components()[0].sn; }
  const stats::SkewNormal& component2() const { return components()[1].sn; }

  /// Moment-space parameters for Liberty export.
  Lvf2Parameters parameters() const {
    return Lvf2Parameters{lambda(), component1().to_moments(),
                          component2().to_moments()};
  }

  /// True when the model is an LVF-compatible single skew-normal.
  bool is_pure_lvf() const { return lambda() == 0.0; }

 private:
  friend class Mixture;
  explicit Lvf2Model(Mixture m) : Mixture(std::move(m)) {}
};

}  // namespace lvf2::core
