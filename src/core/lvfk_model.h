#pragma once
// LVF^k — the K-component generalization of LVF^2. Paper Section 3.3:
// "Although LVF^2 assumes only two Gaussian components, one can
// easily extend the library to support more components by following
// similar attribute naming conventions." This is a named facade: the
// model is a core::Mixture of K skew-normals with K chosen by the
// caller, fitted by the same EM driver as LVF^2 (core/mixture.h).
// K = 1 degenerates to LVF and K = 2 reproduces Lvf2Model::fit.

#include <optional>
#include <vector>

#include "core/mixture.h"

namespace lvf2::core {

/// K-component skew-normal mixture.
class LvfKModel final : public Mixture {
 public:
  /// Direct construction; weights are normalized to sum to 1 and
  /// components are sorted by ascending mean. Requires >= 1 component
  /// and positive total weight.
  explicit LvfKModel(std::vector<Component> components)
      : Mixture(normalized(ModelKind::kLvfK, std::move(components))) {}

  /// Mixture::fit with `k` skew-normal components.
  static std::optional<LvfKModel> fit(std::span<const double> samples,
                                      std::size_t k,
                                      const FitOptions& options = {},
                                      EmReport* report = nullptr) {
    return as<LvfKModel>(
        Mixture::fit(samples, ModelKind::kLvfK, k, options, report));
  }

  /// Mixture::fit_weighted with `k` skew-normal components.
  static std::optional<LvfKModel> fit_weighted(const WeightedData& data,
                                               std::size_t k,
                                               const FitOptions& options = {},
                                               EmReport* report = nullptr) {
    return as<LvfKModel>(
        Mixture::fit_weighted(data, ModelKind::kLvfK, k, options, report));
  }

 private:
  friend class Mixture;
  explicit LvfKModel(Mixture m) : Mixture(std::move(m)) {}
};

}  // namespace lvf2::core
