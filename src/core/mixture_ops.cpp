#include "core/mixture_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lvf2::core {

namespace {

// Third central moment of a skew-normal.
double third_moment(const stats::SkewNormal& sn) {
  const double var = sn.variance();
  return sn.skewness() * var * std::sqrt(var);
}

}  // namespace

stats::SkewNormal convolve_skew_normals(const stats::SkewNormal& x,
                                        const stats::SkewNormal& y) {
  // Cumulants (= central moments through order 3) are additive for
  // independent sums.
  const double var = x.variance() + y.variance();
  const double sd = std::sqrt(std::max(var, 1e-300));
  const double m3 = third_moment(x) + third_moment(y);
  return stats::SkewNormal::from_moments(x.mean() + y.mean(), sd,
                                         m3 / (var * sd));
}

stats::SkewNormal merge_skew_normals(double w1, const stats::SkewNormal& a,
                                     double w2, const stats::SkewNormal& b) {
  const double total = w1 + w2;
  const double p = (total > 0.0) ? w1 / total : 0.5;
  const Mixture pair(ModelKind::kLvfK, {{p, a}, {1.0 - p, b}});
  return stats::SkewNormal::from_moments(pair.mean(), pair.stddev(),
                                         pair.skewness());
}

Mixture reduce_mixture(const Mixture& model, std::size_t max_components) {
  std::vector<Mixture::Component> comps;
  for (const Mixture::Component& c : model.components()) {
    if (c.weight > 0.0) comps.push_back(c);
  }
  if (max_components == 0) max_components = 1;
  while (comps.size() > max_components) {
    // Find the pair with the smallest moment-space distance,
    // weighted so that merging light components is preferred.
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0, bj = 1;
    const double scale = std::max(model.stddev(), 1e-300);
    for (std::size_t i = 0; i < comps.size(); ++i) {
      for (std::size_t j = i + 1; j < comps.size(); ++j) {
        const double dmu =
            (comps[i].sn.mean() - comps[j].sn.mean()) / scale;
        const double dsd =
            (comps[i].sn.stddev() - comps[j].sn.stddev()) / scale;
        const double w = comps[i].weight * comps[j].weight /
                         (comps[i].weight + comps[j].weight);
        const double cost = w * (dmu * dmu + dsd * dsd);
        if (cost < best) {
          best = cost;
          bi = i;
          bj = j;
        }
      }
    }
    Mixture::Component merged;
    merged.weight = comps[bi].weight + comps[bj].weight;
    merged.sn = merge_skew_normals(comps[bi].weight, comps[bi].sn,
                                   comps[bj].weight, comps[bj].sn);
    comps.erase(comps.begin() + static_cast<std::ptrdiff_t>(bj));
    comps[bi] = merged;
  }
  return Mixture::normalized(ModelKind::kLvfK, std::move(comps));
}

Mixture convolve_mixtures(const Mixture& x, const Mixture& y,
                          std::size_t max_components) {
  std::vector<Mixture::Component> comps;
  comps.reserve(x.components().size() * y.components().size());
  for (const auto& a : x.components()) {
    for (const auto& b : y.components()) {
      comps.push_back(
          {a.weight * b.weight, convolve_skew_normals(a.sn, b.sn)});
    }
  }
  return reduce_mixture(Mixture::normalized(ModelKind::kLvfK, std::move(comps)),
                        max_components);
}

}  // namespace lvf2::core
