// Tests of the four timing models behind the common TimingModel
// interface: construction, fitting, distribution-function sanity,
// LVF^2 EM recovery and backward compatibility (paper Eq. 10).

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/lesn_model.h"
#include "core/lvf2_model.h"
#include "core/lvf_model.h"
#include "core/lvfk_model.h"
#include "core/model_factory.h"
#include "core/norm2_model.h"
#include "obs/metrics.h"
#include "robust/faults.h"
#include "stats/descriptive.h"

#include "test_util.h"

namespace lvf2::core {
namespace {

std::vector<double> sn_mixture_samples(double lambda,
                                       const stats::SkewNormal& c1,
                                       const stats::SkewNormal& c2,
                                       std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = (rng.uniform() < lambda) ? c2.sample(rng) : c1.sample(rng);
  }
  return xs;
}

TEST(ModelKind, NamesAndOrder) {
  EXPECT_EQ(to_string(ModelKind::kLvf), "LVF");
  EXPECT_EQ(to_string(ModelKind::kLvf2), "LVF2");
  EXPECT_EQ(to_string(ModelKind::kNorm2), "Norm2");
  EXPECT_EQ(to_string(ModelKind::kLesn), "LESN");
  const auto kinds = all_model_kinds();
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(kinds.front(), ModelKind::kLvf2);
  EXPECT_EQ(kinds.back(), ModelKind::kLvf);
}

TEST(LvfModel, FitMatchesSampleMoments) {
  stats::Rng rng(test::test_seed(1));
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.normal(0.1, 0.01);
  const auto m = LvfModel::fit(xs);
  ASSERT_TRUE(m.has_value());
  const stats::Moments sm = stats::compute_moments(xs);
  EXPECT_NEAR(m->mean(), sm.mean, 1e-10);
  EXPECT_NEAR(m->stddev(), sm.stddev, 1e-10);
  EXPECT_EQ(m->kind(), ModelKind::kLvf);
}

TEST(LvfModel, FromMomentsRoundTrip) {
  const LvfModel m = LvfModel::from_moments({0.5, 0.05, 0.3});
  const stats::SnMoments back = m.moments();
  EXPECT_NEAR(back.mean, 0.5, 1e-10);
  EXPECT_NEAR(back.stddev, 0.05, 1e-10);
  EXPECT_NEAR(back.skewness, 0.3, 1e-7);
}

TEST(Norm2Model, RecoversTwoGaussians) {
  stats::Rng rng(test::test_seed(2));
  std::vector<double> xs;
  for (int i = 0; i < 14000; ++i) xs.push_back(rng.normal(0.0, 1.0));
  for (int i = 0; i < 6000; ++i) xs.push_back(rng.normal(6.0, 0.5));
  EmReport report;
  const auto m = Norm2Model::fit(xs, {}, &report);
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(m->lambda(), 0.3, 0.02);
  EXPECT_NEAR(m->component1().mean(), 0.0, 0.1);
  EXPECT_NEAR(m->component2().mean(), 6.0, 0.1);
  EXPECT_NEAR(m->component1().stddev(), 1.0, 0.05);
  EXPECT_NEAR(m->component2().stddev(), 0.5, 0.05);
  EXPECT_FALSE(report.collapsed);
  EXPECT_GT(report.iterations, 0u);
}

TEST(Norm2Model, ComponentsCanonicallyOrdered) {
  stats::Rng rng(test::test_seed(3));
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.normal(10.0, 0.3));
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.normal(-10.0, 0.3));
  const auto m = Norm2Model::fit(xs);
  ASSERT_TRUE(m.has_value());
  EXPECT_LT(m->component1().mean(), m->component2().mean());
}

TEST(Norm2Model, MixtureMomentFormulas) {
  const Norm2Model m(0.25, stats::Normal(0.0, 1.0),
                     stats::Normal(4.0, 2.0));
  EXPECT_DOUBLE_EQ(m.mean(), 1.0);
  // var = E[var] + var[means] = (0.75*1 + 0.25*4) + (0.75*1 + 0.25*9).
  EXPECT_NEAR(m.stddev() * m.stddev(), 1.75 + 3.0, 1e-12);
}

TEST(Norm2Model, CdfQuantileRoundTrip) {
  const Norm2Model m(0.4, stats::Normal(0.0, 1.0),
                     stats::Normal(5.0, 0.5));
  for (double p : {0.01, 0.3, 0.5, 0.7, 0.99}) {
    EXPECT_NEAR(m.cdf(m.quantile(p)), p, 1e-9) << p;
  }
}

TEST(Norm2Model, UnimodalDataFallsBackGracefully) {
  stats::Rng rng(test::test_seed(4));
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(1.0, 0.1);
  const auto m = Norm2Model::fit(xs);
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(m->mean(), 1.0, 0.01);
  EXPECT_NEAR(m->stddev(), 0.1, 0.01);
}

TEST(Norm2Model, RejectsInvalidLambda) {
  EXPECT_THROW(Norm2Model(-0.1, stats::Normal(), stats::Normal()),
               std::invalid_argument);
  EXPECT_THROW(Norm2Model(1.1, stats::Normal(), stats::Normal()),
               std::invalid_argument);
}

TEST(LesnModel, FitsPositiveSkewedData) {
  stats::Rng rng(test::test_seed(5));
  std::vector<double> xs(30000);
  for (auto& x : xs) x = 0.05 + 0.02 * std::exp(0.5 * rng.normal());
  const auto m = LesnModel::fit(xs);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->kind(), ModelKind::kLesn);
  const stats::Moments sm = stats::compute_moments(xs);
  EXPECT_NEAR(m->mean(), sm.mean, 0.02 * sm.mean);
  EXPECT_NEAR(m->stddev(), sm.stddev, 0.1 * sm.stddev);
}

TEST(LesnModel, FallsBackOnDataWithNegativeValues) {
  stats::Rng rng(test::test_seed(6));
  std::vector<double> xs(10000);
  for (auto& x : xs) x = rng.normal(0.0, 1.0);  // spans negatives
  const auto m = LesnModel::fit(xs);
  ASSERT_TRUE(m.has_value());
  EXPECT_FALSE(m->is_lesn());
  EXPECT_EQ(m->lesn(), nullptr);
  EXPECT_NEAR(m->mean(), 0.0, 0.05);
}

TEST(Lvf2Model, BackwardCompatibilityEquation10) {
  // An LVF^2 with lambda = 0 is exactly the LVF skew-normal.
  const stats::SkewNormal lvf = stats::SkewNormal::from_moments(0.1, 0.01, 0.4);
  const Lvf2Model m = Lvf2Model::from_lvf(lvf);
  EXPECT_TRUE(m.is_pure_lvf());
  for (double x : {0.07, 0.09, 0.1, 0.11, 0.13}) {
    EXPECT_DOUBLE_EQ(m.pdf(x), lvf.pdf(x)) << x;
    EXPECT_DOUBLE_EQ(m.cdf(x), lvf.cdf(x)) << x;
  }
  EXPECT_DOUBLE_EQ(m.mean(), lvf.mean());
  EXPECT_DOUBLE_EQ(m.stddev(), lvf.stddev());
}

TEST(Lvf2Model, ParametersRoundTrip) {
  Lvf2Parameters p;
  p.lambda = 0.35;
  p.theta1 = {0.10, 0.010, 0.2};
  p.theta2 = {0.14, 0.015, -0.3};
  const Lvf2Model m = Lvf2Model::from_parameters(p);
  const Lvf2Parameters back = m.parameters();
  EXPECT_NEAR(back.lambda, 0.35, 1e-12);
  EXPECT_NEAR(back.theta1.mean, 0.10, 1e-10);
  EXPECT_NEAR(back.theta2.stddev, 0.015, 1e-10);
  EXPECT_NEAR(back.theta2.skewness, -0.3, 1e-6);
}

TEST(Lvf2Model, MixtureMomentsConsistentWithSampling) {
  const Lvf2Model m(0.3, stats::SkewNormal::from_moments(1.0, 0.1, 0.5),
                    stats::SkewNormal::from_moments(1.5, 0.2, -0.5));
  stats::Rng rng(test::test_seed(7));
  std::vector<double> xs(300000);
  for (auto& x : xs) x = m.sample(rng);
  const stats::Moments sm = stats::compute_moments(xs);
  EXPECT_NEAR(sm.mean, m.mean(), 0.005);
  EXPECT_NEAR(sm.stddev, m.stddev(), 0.005);
  EXPECT_NEAR(sm.skewness, m.skewness(), 0.03);
}

TEST(Lvf2Model, EmRecoversBimodalMixture) {
  const auto c1 = stats::SkewNormal::from_moments(1.0, 0.05, 0.3);
  const auto c2 = stats::SkewNormal::from_moments(1.25, 0.06, -0.2);
  const std::vector<double> xs = sn_mixture_samples(0.35, c1, c2, 30000, 8);
  EmReport report;
  const auto m = Lvf2Model::fit(xs, {}, &report);
  ASSERT_TRUE(m.has_value());
  EXPECT_FALSE(report.collapsed);
  EXPECT_NEAR(m->lambda(), 0.35, 0.08);
  EXPECT_NEAR(m->component1().mean(), 1.0, 0.03);
  EXPECT_NEAR(m->component2().mean(), 1.25, 0.03);
  // Distribution-level agreement (parameters may trade off slightly).
  const stats::EmpiricalCdf golden(xs);
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double x = golden.quantile(q);
    EXPECT_NEAR(m->cdf(x), q, 0.02) << q;
  }
}

TEST(Lvf2Model, EmOnUnimodalDataStaysAccurate) {
  const auto truth = stats::SkewNormal::from_moments(2.0, 0.2, 0.5);
  stats::Rng rng(test::test_seed(9));
  std::vector<double> xs(20000);
  for (auto& x : xs) x = truth.sample(rng);
  const auto m = Lvf2Model::fit(xs);
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(m->mean(), 2.0, 0.02);
  EXPECT_NEAR(m->stddev(), 0.2, 0.02);
  const stats::EmpiricalCdf golden(xs);
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(m->cdf(golden.quantile(q)), q, 0.02) << q;
  }
}

TEST(Lvf2Model, ComponentsCanonicallyOrderedByMean) {
  const auto c1 = stats::SkewNormal::from_moments(3.0, 0.1, 0.0);
  const auto c2 = stats::SkewNormal::from_moments(1.0, 0.1, 0.0);
  const std::vector<double> xs = sn_mixture_samples(0.7, c1, c2, 20000, 10);
  const auto m = Lvf2Model::fit(xs);
  ASSERT_TRUE(m.has_value());
  EXPECT_LT(m->component1().mean(), m->component2().mean());
}

TEST(Lvf2Model, CdfQuantileRoundTrip) {
  const Lvf2Model m(0.5, stats::SkewNormal::from_moments(0.0, 1.0, 0.8),
                    stats::SkewNormal::from_moments(5.0, 0.5, -0.8));
  for (double p : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_NEAR(m.cdf(m.quantile(p)), p, 1e-9) << p;
  }
}

TEST(Lvf2Model, LogPdfMatchesPdf) {
  const Lvf2Model m(0.4, stats::SkewNormal::from_moments(0.0, 1.0, 0.3),
                    stats::SkewNormal::from_moments(2.0, 0.7, 0.0));
  for (double x : {-2.0, 0.0, 1.0, 3.0}) {
    EXPECT_NEAR(m.log_pdf(x), std::log(m.pdf(x)), 1e-10) << x;
  }
}

// Every mixture family runs the same EM driver, so every one walks the
// same degradation chain: LVF^2, Norm^2 and LVF^k with K = 3.
struct MixtureFamily {
  const char* name;
  std::size_t k;
  std::optional<Mixture> (*fit)(std::span<const double>, const FitOptions&,
                                EmReport*);
};

template <typename Facade>
std::optional<Mixture> as_mixture(std::optional<Facade> m) {
  if (!m) return std::nullopt;
  return Mixture(std::move(*m));
}

const MixtureFamily kMixtureFamilies[] = {
    {"LVF2", 2,
     [](std::span<const double> xs, const FitOptions& o, EmReport* r) {
       return as_mixture(Lvf2Model::fit(xs, o, r));
     }},
    {"Norm2", 2,
     [](std::span<const double> xs, const FitOptions& o, EmReport* r) {
       return as_mixture(Norm2Model::fit(xs, o, r));
     }},
    {"LVFk3", 3,
     [](std::span<const double> xs, const FitOptions& o, EmReport* r) {
       return as_mixture(LvfKModel::fit(xs, 3, o, r));
     }},
};

TEST(Lvf2Model, DegenerateDataWalksDegradationChain) {
  const std::vector<double> constant(100, 5.0);
  const std::vector<double> few{1.0, 2.0, 3.0, 4.0};
  const auto c1 = stats::SkewNormal::from_moments(1.0, 0.05, 0.0);
  const auto c2 = stats::SkewNormal::from_moments(1.5, 0.05, 0.0);
  const std::vector<double> bimodal = sn_mixture_samples(0.5, c1, c2, 4000, 22);
  obs::Counter& single_sn = obs::counter("robust.downgrade.single_sn");
  for (const MixtureFamily& family : kMixtureFamilies) {
    SCOPED_TRACE(family.name);
    // Empty input: nothing fittable, the chain ends at rejection.
    EmReport rep;
    EXPECT_FALSE(family.fit({}, {}, &rep).has_value());
    EXPECT_EQ(rep.degradation, FitDegradation::kRejected);

    // Constant data: last usable rung — a moment-matched point mass.
    const auto m = family.fit(constant, {}, &rep);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(rep.degradation, FitDegradation::kMomentNormal);
    EXPECT_NEAR(m->mean(), 5.0, 1e-6);
    EXPECT_LT(m->stddev(), 1e-7);
    EXPECT_NEAR(m->cdf(5.0 + 1e-6), 1.0, 1e-9);

    // A handful of spread-out samples: too few for EM, one component
    // by method of moments (lambda = 0 for K = 2, paper Eq. 10).
    const auto f = family.fit(few, {}, &rep);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(rep.degradation, FitDegradation::kSingleSn);
    ASSERT_EQ(f->component_count(), family.k);
    EXPECT_DOUBLE_EQ(f->components()[0].weight, 1.0);
    for (std::size_t c = 1; c < family.k; ++c) {
      EXPECT_DOUBLE_EQ(f->components()[c].weight, 0.0);
    }
    EXPECT_NEAR(f->mean(), 2.5, 1e-9);

    // EM collapse on fittable data falls back to one component, and
    // the report and the robust.downgrade.* counter say so.
    ASSERT_TRUE(
        robust::FaultInjector::instance().configure("em.collapse").is_ok());
    const std::uint64_t before = single_sn.value();
    const auto collapsed = family.fit(bimodal, {}, &rep);
    robust::FaultInjector::instance().clear();
    ASSERT_TRUE(collapsed.has_value());
    EXPECT_TRUE(rep.collapsed);
    EXPECT_EQ(rep.degradation, FitDegradation::kSingleSn);
    EXPECT_EQ(single_sn.value(), before + 1);
    EXPECT_DOUBLE_EQ(collapsed->components()[0].weight, 1.0);
    EXPECT_NEAR(collapsed->mean(), 1.25, 0.05);
  }
}

TEST(Lvf2Model, FitSanitizesPoisonedSamples) {
  // A clean bimodal set with injected NaN/Inf and one absurd spike
  // must still fit, and the report must account for the repairs.
  const auto c1 = stats::SkewNormal::from_moments(1.0, 0.05, 0.0);
  const auto c2 = stats::SkewNormal::from_moments(1.5, 0.05, 0.0);
  std::vector<double> xs = sn_mixture_samples(0.5, c1, c2, 20000, 21);
  xs[10] = std::numeric_limits<double>::quiet_NaN();
  xs[500] = std::numeric_limits<double>::infinity();
  xs[900] = -std::numeric_limits<double>::infinity();
  xs[1234] = 1e9;  // absurd outlier spike
  for (const MixtureFamily& family : kMixtureFamilies) {
    SCOPED_TRACE(family.name);
    EmReport rep;
    const auto m = family.fit(xs, {}, &rep);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(rep.dropped_samples, 3u);
    EXPECT_GE(rep.clipped_samples, 1u);
    EXPECT_TRUE(std::isfinite(m->mean()));
    EXPECT_NEAR(m->mean(), 1.25, 0.1);
    EXPECT_LT(m->stddev(), 1.0);
  }
}

TEST(ModelFactory, FitsAllKinds) {
  stats::Rng rng(test::test_seed(11));
  std::vector<double> xs(20000);
  for (auto& x : xs) x = 0.1 + 0.01 * std::fabs(rng.normal()) +
                         0.005 * rng.normal();
  for (ModelKind kind : all_model_kinds()) {
    const auto m = fit_model(kind, xs);
    ASSERT_NE(m, nullptr) << to_string(kind);
    EXPECT_EQ(m->kind(), kind);
    // Basic distribution-function sanity for every model.
    EXPECT_LE(m->cdf(m->mean() - 10.0 * m->stddev()), 0.01);
    EXPECT_GE(m->cdf(m->mean() + 10.0 * m->stddev()), 0.99);
    EXPECT_GT(m->pdf(m->mean()), 0.0);
  }
  const auto all = fit_all_models(xs);
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_NE(all[i], nullptr);
    EXPECT_EQ(all[i]->kind(), all_model_kinds()[i]);
  }
}

TEST(TimingModel, ToGridMatchesAnalyticCdf) {
  const Lvf2Model m(0.3, stats::SkewNormal::from_moments(1.0, 0.1, 0.4),
                    stats::SkewNormal::from_moments(1.4, 0.12, 0.0));
  const stats::GridPdf g = m.to_grid(2048);
  for (double x : {0.8, 1.0, 1.2, 1.4, 1.6}) {
    EXPECT_NEAR(g.cdf(x), m.cdf(x), 2e-3) << x;
  }
  EXPECT_NEAR(g.mean(), m.mean(), 1e-3);
}

}  // namespace
}  // namespace lvf2::core
