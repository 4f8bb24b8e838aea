#include "core/mixture.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/cancel.h"
#include "obs/obs.h"
#include "robust/faults.h"
#include "simd/simd.h"
#include "stats/descriptive.h"
#include "stats/kmeans.h"
#include "stats/optimize.h"
#include "stats/special_functions.h"

namespace lvf2::core {

namespace {

using Component = Mixture::Component;
using Buffers = std::vector<std::vector<double>>;

// Component family: skew-normal (xi, omega, alpha), or Gaussian carried
// as the alpha == 0 skew-normal.
enum class ComponentFamily { kSkewNormal, kNormal };

ComponentFamily family_of(ModelKind kind) {
  return (kind == ModelKind::kNorm2) ? ComponentFamily::kNormal
                                     : ComponentFamily::kSkewNormal;
}

// A component of the family from its first three moments; the normal
// family drops the skewness (alpha == 0, xi = mean, omega = stddev).
stats::SkewNormal make_component(ComponentFamily family, double mean,
                                 double stddev, double skewness) {
  return stats::SkewNormal::from_moments(
      mean, stddev, (family == ComponentFamily::kNormal) ? 0.0 : skewness);
}

// Batch log-density of one component.
void log_density(ComponentFamily family, const stats::SkewNormal& sn,
                 std::span<const double> x, std::span<double> out) {
  if (family == ComponentFamily::kNormal) {
    simd::normal_mu_sigma_log_pdf(sn.xi(), sn.omega(), x, out);
  } else {
    sn.log_pdf(x, out);
  }
}

// E-step combine (paper Eq. 6): lse[i] = log sum_c exp(lw[c] + lp[c][i])
// and, for c >= 1, resp[c][i] = posterior of component c (component 0
// takes the remainder). Two components run through the batch kernel;
// otherwise the K-way log-sum-exp stays scalar-sequential per sample.
void combine(std::span<const double> lw, const Buffers& lp, Buffers& resp,
             std::span<double> lse) {
  const std::size_t k = lw.size();
  if (k == 2) {
    simd::em_responsibilities(lw[0], lw[1], lp[0], lp[1], resp[1], lse);
    return;
  }
  for (std::size_t i = 0; i < lse.size(); ++i) {
    double s = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < k; ++c) {
      s = stats::log_sum_exp(s, lw[c] + lp[c][i]);
    }
    lse[i] = s;
    for (std::size_t c = 1; c < k; ++c) {
      resp[c][i] = std::exp(lw[c] + lp[c][i] - s);
    }
  }
}

// Component 0 carries the remainder 1 - sum of the others, so a K = 2
// weight pair is exactly (1 - lambda, lambda).
void set_remainder(std::vector<Component>& comps) {
  double rest = 0.0;
  for (std::size_t c = 1; c < comps.size(); ++c) rest += comps[c].weight;
  comps[0].weight = 1.0 - rest;
}

// Fewest observations an EM fit of k components runs on.
std::size_t min_points(std::size_t k) {
  return std::max<std::size_t>(8, 4 * k);
}

// The single-component rung: weight 1 on `sn`, the other k - 1 slots
// weight 0 (for K = 2 the lambda = 0 LVF of paper Eq. 10).
Mixture single(ModelKind kind, std::size_t k, const stats::SkewNormal& sn) {
  std::vector<Component> comps(k, {0.0, sn});
  set_remainder(comps);
  return Mixture(kind, std::move(comps));
}

// K-means partition + method of moments per group (paper Section
// 3.2) — the location-split initialization.
std::optional<std::vector<Component>> kmeans_init(
    const WeightedData& data, const stats::Moments& global, std::size_t k,
    ComponentFamily family, std::uint64_t seed) {
  stats::Rng rng(seed);
  const stats::KMeansResult km = stats::kmeans_1d(data.x, k, rng, {}, data.w);
  if (km.centers.size() != k) return std::nullopt;
  const std::size_t n = data.size();
  Buffers cluster_w(k, std::vector<double>(n, 0.0));
  std::vector<double> wsum(k, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = km.assignment[i];
    cluster_w[c][i] = data.w[i];
    wsum[c] += data.w[i];
  }
  double total = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    if (wsum[c] <= 0.0) return std::nullopt;
    total += wsum[c];
  }
  std::vector<Component> comps(k);
  for (std::size_t c = 0; c < k; ++c) {
    const auto mom = stats::compute_weighted_moments(data.x, cluster_w[c]);
    const bool spread = mom.stddev > 1e-6 * global.stddev;
    comps[c] = {wsum[c] / total,
                make_component(family, mom.mean,
                               spread ? mom.stddev : 0.05 * global.stddev,
                               spread ? mom.skewness : 0.0)};
  }
  set_remainder(comps);
  return comps;
}

// Same-center width-split initialization: every component at the
// global mean, spreads from 0.55 to 1.45 global sigmas. Location-based
// k-means cannot separate scale mixtures (the paper's "Kurtosis"
// scenario, Fig. 3(e)); this start lets EM find them.
std::vector<Component> width_split_init(const stats::Moments& global,
                                        std::size_t k,
                                        ComponentFamily family) {
  std::vector<Component> comps(k);
  for (std::size_t c = 0; c < k; ++c) {
    const double t = static_cast<double>(c) / static_cast<double>(k - 1);
    comps[c] = {1.0 / static_cast<double>(k),
                make_component(family, global.mean,
                               ((1.0 - t) * 0.55 + t * 1.45) * global.stddev,
                               (c == 0) ? 0.0 : global.skewness)};
  }
  set_remainder(comps);
  return comps;
}

// Tail-split initialization: the bulk vs the upper `tail_fraction` of
// the weight, split evenly over components 1..K-1. Helps low-weight
// minority modes riding on a dominant component (the paper's "Minor
// Saddle" scenario, Fig. 3(d)) where k-means balances cluster sizes
// too aggressively.
std::optional<std::vector<Component>> tail_split_init(
    const WeightedData& data, const stats::Moments& global, std::size_t k,
    ComponentFamily family, double tail_fraction) {
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return data.x[a] < data.x[b];
  });
  const double slice = tail_fraction / static_cast<double>(k - 1);
  std::vector<double> cuts(k - 1);
  for (std::size_t j = 0; j + 1 < k; ++j) {
    cuts[j] = (1.0 - tail_fraction + slice * static_cast<double>(j)) *
              data.total_weight;
  }
  Buffers group_w(k, std::vector<double>(data.size(), 0.0));
  double acc = 0.0;
  for (std::size_t i : order) {
    std::size_t g = 0;
    while (g + 1 < k && acc >= cuts[g]) ++g;
    group_w[g][i] = data.w[i];
    acc += data.w[i];
  }
  std::vector<Component> comps(k);
  for (std::size_t c = 0; c < k; ++c) {
    const auto mom = stats::compute_weighted_moments(data.x, group_w[c]);
    if (!(mom.stddev > 1e-9 * global.stddev)) return std::nullopt;
    comps[c] = {slice,
                make_component(family, mom.mean, mom.stddev, mom.skewness)};
  }
  set_remainder(comps);
  return comps;
}

struct EmRun {
  std::vector<Component> comps;
  EmReport report;
  bool valid = false;
};

// The EM iteration loop (paper Eq. 6-9) from a given initialization.
EmRun run_em(const WeightedData& data, std::vector<Component> init,
             ComponentFamily family, double sigma_floor,
             const FitOptions& options) {
  const std::size_t n = data.size();
  const std::size_t k = init.size();
  EmRun run;
  run.comps = std::move(init);

  Buffers lp(k, std::vector<double>(n));    // component log-densities
  Buffers resp(k, std::vector<double>(n));  // c >= 1: responsibility,
                                            // then M-step weight
  std::vector<double> lse(n), w0(n), lw(k);
  double prev_ll = -std::numeric_limits<double>::infinity();
  std::size_t ll_decreases = 0;
  constexpr double kWeightFloor = 1e-6;

  // M-step Nelder-Mead schedule. As EM converges the M-step optimum
  // barely moves between iterations, so each component's simplex
  // starts at a step proportional to how far its previous M-step
  // actually travelled (in the optimizer's (xi, log omega, alpha)
  // coordinates) instead of the 0.25 cold-start extent. Combined with
  // the loosened stopping tolerances — the outer EM tolerance is 1e-8
  // relative, so refining each inner step to 1e-9 absolute is wasted
  // work — a warm-started refinement converges in a fraction of the
  // evaluation budget. EM monotonicity is preserved regardless of the
  // schedule: the start point is a simplex vertex, so the M-step
  // result is never worse than the previous parameters.
  stats::NelderMeadOptions mstep;
  mstep.max_evaluations = options.mstep_evaluations;
  mstep.x_tolerance = 1e-7;
  mstep.f_tolerance = 1e-9;
  std::vector<double> step(k, 0.25);
  const auto nm_coords = [](const stats::SkewNormal& c) {
    return std::array<double, 3>{c.xi(), std::log(c.omega()), c.alpha()};
  };
  const auto rel_move = [](const std::array<double, 3>& a,
                           const std::array<double, 3>& b) {
    double m = 0.0;
    for (int d = 0; d < 3; ++d) {
      m = std::max(m, std::fabs(a[d] - b[d]) /
                          std::max(std::fabs(b[d]), 1e-3));
    }
    return m;
  };
  for (std::size_t iter = 0; iter < options.em_max_iterations; ++iter) {
    // Deadline checkpoint (lvf2d): at most one more EM iteration runs
    // after a request's budget expires.
    core::checkpoint();
    run.report.iterations = iter + 1;

    if (robust::fire(robust::Fault::kEmCollapse)) {
      run.report.collapsed = true;
      return run;
    }

    // E-step (Eq. 6): posterior responsibility of each component.
    // Component log-densities and the posterior combine run through
    // the batch kernels; the weighted log-likelihood reduction stays
    // scalar-sequential so it sums the same terms in the same order
    // as a per-sample loop.
    for (std::size_t c = 0; c < k; ++c) {
      lw[c] = std::log(std::max(run.comps[c].weight, 1e-300));
      log_density(family, run.comps[c].sn, data.x, lp[c]);
    }
    combine(lw, lp, resp, lse);
    double ll = 0.0;
    for (std::size_t i = 0; i < n; ++i) ll += data.w[i] * lse[i];
    if (robust::fire(robust::Fault::kEmOscillate)) {
      ll += ((iter % 2 == 0) ? -0.5 : 0.5) * (std::fabs(ll) + 1.0);
    }
    run.report.log_likelihood = ll;
    obs::trace_counter("em.loglik", ll);

    // EM raises the binned likelihood monotonically up to M-step
    // optimizer noise; a *large* repeated decrease means the surface
    // has gone numerically pathological (unbounded-likelihood spikes,
    // oscillation). Bail to the fallback chain instead of looping.
    if (std::isfinite(prev_ll) &&
        ll < prev_ll - 0.01 * (std::fabs(prev_ll) + 1.0)) {
      if (++ll_decreases >= 3) {
        static obs::Counter& oscillations =
            obs::counter("robust.em.oscillation_detected");
        oscillations.add(1);
        run.report.oscillated = true;
        run.report.collapsed = true;
        return run;
      }
    }
    if (!std::isfinite(ll)) {
      run.report.collapsed = true;
      return run;
    }

    // M-step (Eq. 9): weights closed-form; component c >= 1 observes
    // w * resp_c, component 0 the remainder.
    std::copy(data.w.begin(), data.w.end(), w0.begin());
    double rest = 0.0;
    bool collapsed = false;
    for (std::size_t c = 1; c < k; ++c) {
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        resp[c][i] *= data.w[i];
        w0[i] -= resp[c][i];
        sum += resp[c][i];
      }
      run.comps[c].weight = sum / data.total_weight;
      rest += run.comps[c].weight;
      collapsed = collapsed || run.comps[c].weight < kWeightFloor;
    }
    for (double& w : w0) w = std::max(w, 0.0);
    set_remainder(run.comps);
    if (collapsed || rest > 1.0 - kWeightFloor) {
      run.report.collapsed = true;
      return run;
    }
    for (std::size_t c = 0; c < k; ++c) {
      const std::span<const double> wc = (c == 0) ? w0 : resp[c];
      std::optional<stats::SkewNormal> next;
      if (family == ComponentFamily::kNormal) {
        // Closed form: weighted mean and standard deviation.
        const auto mom = stats::compute_weighted_moments(data.x, wc);
        if (mom.count > 0 && std::isfinite(mom.mean)) {
          next = stats::SkewNormal(mom.mean, std::max(mom.stddev, sigma_floor),
                                   0.0);
        }
      } else {
        mstep.initial_step = step[c];
        next = stats::SkewNormal::fit_weighted_mle(data.x, wc,
                                                   &run.comps[c].sn, mstep);
      }
      if (!next) {
        run.report.collapsed = true;
        return run;
      }
      step[c] = std::clamp(
          8.0 * rel_move(nm_coords(*next), nm_coords(run.comps[c].sn)), 0.002,
          0.25);
      run.comps[c].sn = *next;
    }

    if (std::isfinite(prev_ll) &&
        std::fabs(ll - prev_ll) <=
            options.em_tolerance * (std::fabs(prev_ll) + 1.0) &&
        !robust::fire(robust::Fault::kEmExhaust)) {
      run.report.converged = true;
      break;
    }
    prev_ll = ll;
  }
  run.valid = true;
  return run;
}

// Folds one finished fit into the process metrics registry. All
// instruments are created on the first fit so a metrics dump always
// carries the full em.* set, zeros included.
void record_em_metrics(const EmReport& report) {
  static obs::Counter& fits = obs::counter("em.fits");
  static obs::Counter& iterations = obs::counter("em.iterations");
  static obs::Counter& nonconverged = obs::counter("em.nonconverged");
  static obs::Counter& collapsed = obs::counter("em.collapsed");
  static obs::Histogram& iter_hist = obs::histogram(
      "em.iterations.per_fit", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
  fits.add(1);
  iterations.add(report.iterations);
  if (!report.converged) {
    nonconverged.add(1);
    // Accepting a non-converged fit is itself a (mild) downgrade; the
    // counter is created lazily so clean traces stay unchanged.
    obs::counter("robust.downgrade.em_nonconverged").add(1);
  }
  if (report.collapsed) collapsed.add(1);
  iter_hist.observe(static_cast<double>(report.iterations));
}

// Tags a report with the rung of the degradation chain it landed on
// and counts it. Counters are created lazily: a run that never
// degrades registers no robust.downgrade.* instruments.
void record_downgrade(EmReport& rep, FitDegradation degradation) {
  rep.degradation = degradation;
  obs::counter(std::string("robust.downgrade.") + to_string(degradation))
      .add(1);
}

// Rungs below EM for data too small or too narrow to fit: a single
// component by moments, a point mass, or rejection.
std::optional<Mixture> degrade(const stats::Moments& global, bool empty,
                               ModelKind kind, std::size_t k, EmReport& rep) {
  if (empty || !std::isfinite(global.mean)) {
    record_downgrade(rep, FitDegradation::kRejected);
    return std::nullopt;
  }
  if (global.stddev > 0.0 && std::isfinite(global.stddev)) {
    record_downgrade(rep, FitDegradation::kSingleSn);
    return single(kind, k,
                  make_component(family_of(kind), global.mean, global.stddev,
                                 global.skewness));
  }
  record_downgrade(rep, FitDegradation::kMomentNormal);
  return single(kind, k,
                stats::SkewNormal::from_moments(global.mean, 0.0, 0.0));
}

}  // namespace

Mixture::Mixture(ModelKind kind, std::vector<Component> components)
    : kind_(kind), components_(std::move(components)) {
  if (kind != ModelKind::kLvf2 && kind != ModelKind::kNorm2 &&
      kind != ModelKind::kLvfK) {
    throw std::invalid_argument("Mixture: not a mixture model kind");
  }
  if (components_.empty()) {
    throw std::invalid_argument("Mixture: need at least one component");
  }
  for (const Component& c : components_) {
    if (!(c.weight >= 0.0 && c.weight <= 1.0)) {
      throw std::invalid_argument("Mixture: weight must be in [0,1]");
    }
  }
}

Mixture Mixture::normalized(ModelKind kind,
                            std::vector<Component> components) {
  double total = 0.0;
  for (const Component& c : components) {
    if (!(c.weight >= 0.0)) {
      throw std::invalid_argument("Mixture: negative component weight");
    }
    total += c.weight;
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument("Mixture: zero total weight");
  }
  for (Component& c : components) c.weight /= total;
  std::sort(components.begin(), components.end(),
            [](const Component& a, const Component& b) {
              return a.sn.mean() < b.sn.mean();
            });
  return Mixture(kind, std::move(components));
}

double Mixture::pdf(double x) const {
  double sum = 0.0;
  for (const Component& c : components_) sum += c.weight * c.sn.pdf(x);
  return sum;
}

double Mixture::log_pdf(double x) const {
  double lse = -std::numeric_limits<double>::infinity();
  for (const Component& c : components_) {
    if (c.weight <= 0.0) continue;
    lse = stats::log_sum_exp(lse, std::log(c.weight) + c.sn.log_pdf(x));
  }
  return lse;
}

double Mixture::cdf(double x) const {
  double sum = 0.0;
  for (const Component& c : components_) sum += c.weight * c.sn.cdf(x);
  return sum;
}

void Mixture::pdf_batch(std::span<const double> x,
                        std::span<double> out) const {
  weighted_batch(x, out, [](const stats::SkewNormal& sn, auto in, auto o) {
    sn.pdf(in, o);
  });
}

void Mixture::cdf_batch(std::span<const double> x,
                        std::span<double> out) const {
  weighted_batch(x, out, [](const stats::SkewNormal& sn, auto in, auto o) {
    sn.cdf(in, o);
  });
}

template <typename Eval>
void Mixture::weighted_batch(std::span<const double> x, std::span<double> out,
                             Eval eval) const {
  // Accumulate in component order so the sums match pdf() / cdf()
  // bitwise on the scalar tier.
  const std::size_t n = x.size();
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n), 0.0);
  std::vector<double> buf(n);
  for (const Component& c : components_) {
    eval(c.sn, x, std::span<double>(buf));
    for (std::size_t i = 0; i < n; ++i) out[i] += c.weight * buf[i];
  }
}

double Mixture::quantile(double p) const {
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const Component& c : components_) {
    lo = std::min(lo, c.sn.quantile(1e-12));
    hi = std::max(hi, c.sn.quantile(1.0 - 1e-12));
  }
  const auto f = [&](double x) { return cdf(x) - p; };
  return stats::bisect_root(f, lo, hi, 1e-13 * std::max(stddev(), 1e-30)).x;
}

double Mixture::mean() const {
  double m = 0.0;
  for (const Component& c : components_) m += c.weight * c.sn.mean();
  return m;
}

double Mixture::stddev() const {
  const double mu = mean();
  double var = 0.0;
  for (const Component& c : components_) {
    const double d = c.sn.mean() - mu;
    var += c.weight * (c.sn.variance() + d * d);
  }
  return std::sqrt(var);
}

double Mixture::skewness() const {
  // Third central moment of a mixture from component central moments:
  //   m3 = sum_k w_k (m3_k + 3 d_k var_k + d_k^3),  d_k = mu_k - mu.
  const double mu = mean();
  double m2 = 0.0, m3 = 0.0;
  for (const Component& c : components_) {
    const double d = c.sn.mean() - mu;
    const double var = c.sn.variance();
    const double sk3 = c.sn.skewness() * var * c.sn.stddev();
    m2 += c.weight * (var + d * d);
    m3 += c.weight * (sk3 + 3.0 * d * var + d * d * d);
  }
  return (m2 > 0.0) ? m3 / (m2 * std::sqrt(m2)) : 0.0;
}

double Mixture::sample(stats::Rng& rng) const {
  double u = rng.uniform();
  for (std::size_t c = components_.size() - 1; c > 0; --c) {
    if (u < components_[c].weight) return components_[c].sn.sample(rng);
    u -= components_[c].weight;
  }
  return components_.front().sn.sample(rng);
}

double Mixture::log_likelihood(const WeightedData& data) const {
  // Batch each positive-weight component's log-density once, then
  // combine per sample in component order.
  const std::size_t n = data.size();
  std::vector<double> lw;
  Buffers lp;
  for (const Component& c : components_) {
    if (c.weight <= 0.0) continue;
    lw.push_back(std::log(c.weight));
    lp.emplace_back(n);
    log_density(family_of(kind_), c.sn, data.x, lp.back());
  }
  Buffers resp(lw.size(), std::vector<double>(n));
  std::vector<double> lse(n);
  combine(lw, lp, resp, lse);
  double ll = 0.0;
  for (std::size_t i = 0; i < n; ++i) ll += data.w[i] * lse[i];
  return ll;
}

double Mixture::bic(const WeightedData& data) const {
  const double per_component =
      (family_of(kind_) == ComponentFamily::kNormal) ? 3.0 : 4.0;
  const double p =
      per_component * static_cast<double>(components_.size()) - 1.0;
  return -2.0 * log_likelihood(data) +
         p * std::log(std::max(data.total_weight, 1.0));
}

std::optional<Mixture> Mixture::fit(std::span<const double> samples,
                                    ModelKind kind, std::size_t k,
                                    const FitOptions& options,
                                    EmReport* report) {
  EmReport scratch;
  EmReport& rep = (report != nullptr) ? *report : scratch;
  rep = EmReport{};

  // Rung 0 of the degradation chain: validate the sample set. Clean
  // data — the overwhelmingly common case — passes through without a
  // copy, so the fit is bit-identical to an unguarded one.
  const auto finite = [](double x) { return std::isfinite(x); };
  const auto nonfinite = static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [&](double x) { return !finite(x); }));
  std::vector<double> cleaned;
  std::span<const double> use = samples;
  if (nonfinite > 0) {
    cleaned.reserve(samples.size() - nonfinite);
    std::copy_if(samples.begin(), samples.end(), std::back_inserter(cleaned),
                 finite);
    obs::counter("robust.samples.nonfinite_dropped").add(nonfinite);
    use = cleaned;
  }

  // Drop absurd outliers beyond quantile fences 50 IQRs out: clean
  // Monte-Carlo data never reaches them (~67 sigma for a normal), a
  // poisoned spike always does. A spike kept in the data, even one
  // clamped to the fence, would stretch the binned-likelihood grid
  // over the empty gap and starve every honest sample of bins.
  std::size_t clipped = 0;
  if (use.size() >= 8) {
    std::vector<double> sorted(use.begin(), use.end());
    const std::size_t q1i = sorted.size() / 4;
    const std::size_t q3i = (3 * sorted.size()) / 4;
    std::nth_element(sorted.begin(), sorted.begin() + q1i, sorted.end());
    const double q1 = sorted[q1i];
    std::nth_element(sorted.begin(), sorted.begin() + q3i, sorted.end());
    const double q3 = sorted[q3i];
    const double iqr = q3 - q1;
    const double fence_lo = q1 - 50.0 * iqr;
    const double fence_hi = q3 + 50.0 * iqr;
    const auto outside = [&](double x) { return x < fence_lo || x > fence_hi; };
    if (iqr > 0.0 && std::any_of(use.begin(), use.end(), outside)) {
      std::vector<double> kept;
      kept.reserve(use.size());
      std::copy_if(use.begin(), use.end(), std::back_inserter(kept),
                   [&](double x) { return !outside(x); });
      clipped = use.size() - kept.size();
      cleaned = std::move(kept);
      obs::counter("robust.samples.outlier_clipped").add(clipped);
      use = cleaned;
    }
  }

  const stats::Moments global = stats::compute_moments(use);
  std::optional<Mixture> result;
  if (global.count >= min_points(k) && global.stddev > 0.0) {
    result = fit_weighted(make_weighted_data(use, options), kind, k, options,
                          &rep);
  } else if (k > 0) {
    // Degenerate data: walk the rest of the chain instead of failing.
    result = degrade(global, global.count == 0, kind, k, rep);
  }
  // fit_weighted reset the report; restore sanitization accounting.
  rep.dropped_samples = nonfinite;
  rep.clipped_samples = clipped;
  return result;
}

std::optional<Mixture> Mixture::fit_weighted(const WeightedData& data,
                                             ModelKind kind, std::size_t k,
                                             const FitOptions& options,
                                             EmReport* report) {
  obs::TraceSpan span("em.fit", [&] {
    return obs::ArgsBuilder().add("points", data.size()).str();
  });
  EmReport scratch;
  EmReport& rep = (report != nullptr) ? *report : scratch;
  rep = EmReport{};
  if (k == 0) return std::nullopt;
  const ComponentFamily family = family_of(kind);

  const stats::Moments global =
      stats::compute_weighted_moments(data.x, data.w);
  if (data.size() < min_points(k) || !(global.stddev > 0.0)) {
    // Degenerate weighted data (e.g. a refit of a collapsed propagated
    // PDF): walk the degradation chain instead of failing outright.
    return degrade(global, data.size() == 0, kind, k, rep);
  }

  const auto fallback = make_component(family, global.mean, global.stddev,
                                       global.skewness);
  if (k == 1) {
    // One component is the plain moment fit (LVF for the skew-normal).
    rep.iterations = 1;
    rep.converged = true;
    return single(kind, 1, fallback);
  }

  // Multi-start EM: the k-means location split, the same-center width
  // split and the bulk/tail split; the best final likelihood wins.
  std::vector<std::vector<Component>> inits;
  if (auto km = kmeans_init(data, global, k, family, options.seed)) {
    inits.push_back(std::move(*km));
  }
  inits.push_back(width_split_init(global, k, family));
  if (auto tail = tail_split_init(data, global, k, family, 0.15)) {
    inits.push_back(std::move(*tail));
  }
  static obs::Counter& em_restarts = obs::counter("em.restarts");
  em_restarts.add(inits.size());

  // Staged multi-start: a short EM burst per initialization, then the
  // remaining iteration budget on the best burst only. EM raises the
  // likelihood monotonically, so the post-burst ranking is a sound
  // pruning heuristic at ~1/3 the cost of full multi-start.
  const double sigma_floor = 1e-5 * global.stddev;
  const std::size_t burst_iters =
      std::min<std::size_t>(8, options.em_max_iterations);
  FitOptions burst_options = options;
  burst_options.em_max_iterations = burst_iters;
  std::optional<EmRun> best;
  for (std::vector<Component>& init : inits) {
    EmRun run =
        run_em(data, std::move(init), family, sigma_floor, burst_options);
    if (!run.valid) continue;
    if (!best || run.report.log_likelihood > best->report.log_likelihood) {
      best = std::move(run);
    }
  }
  if (best && !best->report.converged &&
      options.em_max_iterations > burst_iters) {
    FitOptions rest_options = options;
    rest_options.em_max_iterations = options.em_max_iterations - burst_iters;
    EmRun final_run =
        run_em(data, best->comps, family, sigma_floor, rest_options);
    if (final_run.valid) {
      final_run.report.iterations += burst_iters;
      best = std::move(final_run);
    }
  }

  // Canonical order: ascending component means, so LVF-style consumers
  // that read only component 1 see the dominant early mode. Then the
  // affine moment correction pins the mixture mean / sigma to the
  // sample moments: MLE leaves O(eps) first-moment mismatches that
  // accumulate coherently under SSTA convolution (they would
  // eventually dominate the CLT-washed shape advantage); moment
  // pinning is also what production characterization flows do.
  std::optional<Mixture> model;
  if (best) {
    rep = best->report;
    std::vector<Component> comps = std::move(best->comps);
    std::stable_sort(comps.begin(), comps.end(),
                     [](const Component& a, const Component& b) {
                       return a.sn.mean() < b.sn.mean();
                     });
    set_remainder(comps);
    model.emplace(kind, comps);
    const double m_fit = model->mean();
    const double s_fit = model->stddev();
    if (s_fit > 0.0 && std::isfinite(m_fit)) {
      const double b = global.stddev / s_fit;
      const double a = global.mean - b * m_fit;
      for (Component& c : comps) {
        c.sn = stats::SkewNormal(a + b * c.sn.xi(), b * c.sn.omega(),
                                 c.sn.alpha());
      }
      model.emplace(kind, std::move(comps));
    }
  }

  // No EM run survived, or EM landed below the single-component
  // likelihood (rare, e.g. truly unimodal Gaussian-like data): keep
  // the plain moment fit.
  Mixture one = single(kind, k, fallback);
  if (!model || one.log_likelihood(data) > model->log_likelihood(data)) {
    rep.collapsed = true;
    record_downgrade(rep, FitDegradation::kSingleSn);
    model = std::move(one);
  }
  record_em_metrics(rep);
  return model;
}

}  // namespace lvf2::core
