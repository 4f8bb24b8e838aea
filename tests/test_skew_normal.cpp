// Tests of the skew-normal distribution — the statistical core of
// LVF: density normalization, CDF via Owen's T, the moment bijection
// g (paper Eq. 2), sampling, and the weighted MLE used by the LVF^2
// M-step.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "stats/descriptive.h"
#include "stats/skew_normal.h"
#include "stats/special_functions.h"

#include "test_util.h"

namespace lvf2::stats {
namespace {

double integrate_pdf(const SkewNormal& sn, double lo, double hi, int n) {
  const double step = (hi - lo) / n;
  double sum = 0.5 * (sn.pdf(lo) + sn.pdf(hi));
  for (int i = 1; i < n; ++i) sum += sn.pdf(lo + step * i);
  return sum * step;
}

class SkewNormalAlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(SkewNormalAlphaSweep, PdfIntegratesToOne) {
  const SkewNormal sn(0.0, 1.0, GetParam());
  EXPECT_NEAR(integrate_pdf(sn, -12.0, 12.0, 20000), 1.0, 1e-10);
}

TEST_P(SkewNormalAlphaSweep, CdfMatchesNumericIntegral) {
  const SkewNormal sn(0.0, 1.0, GetParam());
  for (double x : {-2.0, -0.5, 0.0, 0.5, 2.0}) {
    // Tolerance is set by the trapezoid reference integral, whose
    // error grows with |alpha| (sharper density curvature).
    EXPECT_NEAR(sn.cdf(x), integrate_pdf(sn, -12.0, x, 20000), 5e-7)
        << "alpha=" << GetParam() << " x=" << x;
  }
}

TEST_P(SkewNormalAlphaSweep, AnalyticMomentsMatchQuadrature) {
  const SkewNormal sn(0.3, 1.7, GetParam());
  const int n = 40000;
  const double lo = sn.mean() - 14.0 * sn.omega();
  const double hi = sn.mean() + 14.0 * sn.omega();
  const double step = (hi - lo) / n;
  double m1 = 0.0, m2 = 0.0, m3 = 0.0;
  for (int i = 0; i <= n; ++i) {
    const double x = lo + step * i;
    const double w = (i == 0 || i == n) ? 0.5 : 1.0;
    m1 += w * x * sn.pdf(x);
  }
  m1 *= step;
  for (int i = 0; i <= n; ++i) {
    const double x = lo + step * i;
    const double w = (i == 0 || i == n) ? 0.5 : 1.0;
    const double d = x - m1;
    m2 += w * d * d * sn.pdf(x);
    m3 += w * d * d * d * sn.pdf(x);
  }
  m2 *= step;
  m3 *= step;
  EXPECT_NEAR(sn.mean(), m1, 1e-8);
  EXPECT_NEAR(sn.variance(), m2, 1e-8);
  EXPECT_NEAR(sn.skewness(), m3 / (m2 * std::sqrt(m2)), 1e-6);
}

TEST_P(SkewNormalAlphaSweep, QuantileInvertsCdf) {
  const SkewNormal sn(-1.0, 0.5, GetParam());
  for (double p : {0.001, 0.05, 0.5, 0.95, 0.999}) {
    EXPECT_NEAR(sn.cdf(sn.quantile(p)), p, 1e-9)
        << "alpha=" << GetParam() << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaGrid, SkewNormalAlphaSweep,
                         ::testing::Values(-8.0, -3.0, -1.0, -0.2, 0.0, 0.2,
                                           1.0, 3.0, 8.0));

TEST(SkewNormal, AlphaZeroIsNormal) {
  const SkewNormal sn(2.0, 3.0, 0.0);
  EXPECT_DOUBLE_EQ(sn.mean(), 2.0);
  EXPECT_DOUBLE_EQ(sn.stddev(), 3.0);
  EXPECT_DOUBLE_EQ(sn.skewness(), 0.0);
  EXPECT_NEAR(sn.pdf(2.0), normal_pdf(0.0) / 3.0, 1e-15);
  EXPECT_NEAR(sn.cdf(2.0), 0.5, 1e-12);
}

class MomentBijection : public ::testing::TestWithParam<
                            std::tuple<double, double, double>> {};

TEST_P(MomentBijection, RoundTripsThroughDirectParameters) {
  const auto [mean, sd, skew] = GetParam();
  const SkewNormal sn = SkewNormal::from_moments(mean, sd, skew);
  const SnMoments back = sn.to_moments();
  EXPECT_NEAR(back.mean, mean, 1e-9 * std::max(1.0, std::fabs(mean)));
  EXPECT_NEAR(back.stddev, sd, 1e-9 * sd);
  EXPECT_NEAR(back.skewness, skew, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    MomentGrid, MomentBijection,
    ::testing::Combine(::testing::Values(-5.0, 0.0, 0.13, 100.0),
                       ::testing::Values(0.01, 1.0, 12.0),
                       ::testing::Values(-0.9, -0.4, 0.0, 0.4, 0.9)));

TEST(SkewNormal, SkewnessClampedAtFeasibleBound) {
  const double max_skew = skew_normal_max_skewness();
  EXPECT_GT(max_skew, 0.99);
  EXPECT_LT(max_skew, 1.0);
  const SkewNormal sn = SkewNormal::from_moments(0.0, 1.0, 5.0);
  EXPECT_LE(sn.skewness(), max_skew);
  EXPECT_GT(sn.skewness(), 0.9);
  const SkewNormal sn_neg = SkewNormal::from_moments(0.0, 1.0, -5.0);
  EXPECT_LT(sn_neg.skewness(), -0.9);
}

TEST(SkewNormal, RejectsInvalidParameters) {
  EXPECT_THROW(SkewNormal(0.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(SkewNormal(0.0, -2.0, 1.0), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SkewNormal::from_moments(nan, 1.0, 0.0),
               std::invalid_argument);
}

TEST(SkewNormal, DegenerateSpreadDegradesToPointMass) {
  // stddev <= 0 (a near-constant sample set on the EM fallback path)
  // must not throw: it degrades to a point mass at the mean.
  for (double bad_sd : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    const SkewNormal sn = SkewNormal::from_moments(5.0, bad_sd, 0.3);
    EXPECT_NEAR(sn.mean(), 5.0, 1e-6);
    EXPECT_GT(sn.stddev(), 0.0);
    EXPECT_LT(sn.stddev(), 1e-7);
    EXPECT_NEAR(sn.cdf(5.0 + 1e-6), 1.0, 1e-9);
    EXPECT_NEAR(sn.cdf(5.0 - 1e-6), 0.0, 1e-9);
  }
  // Non-finite skewness reads as symmetric rather than throwing.
  const SkewNormal sn = SkewNormal::from_moments(
      1.0, 0.5, std::numeric_limits<double>::infinity());
  EXPECT_NEAR(sn.stddev(), 0.5, 1e-12);
}

TEST(SkewNormal, SamplingMatchesAnalyticMoments) {
  const SkewNormal sn = SkewNormal::from_moments(3.0, 0.8, 0.6);
  Rng rng(test::test_seed(9));
  std::vector<double> xs(200000);
  for (auto& x : xs) x = sn.sample(rng);
  const Moments m = compute_moments(xs);
  EXPECT_NEAR(m.mean, 3.0, 0.01);
  EXPECT_NEAR(m.stddev, 0.8, 0.01);
  EXPECT_NEAR(m.skewness, 0.6, 0.03);
}

TEST(SkewNormal, KurtosisAboveNormalForSkewed) {
  EXPECT_NEAR(SkewNormal(0.0, 1.0, 0.0).kurtosis(), 3.0, 1e-12);
  EXPECT_GT(SkewNormal(0.0, 1.0, 4.0).kurtosis(), 3.0);
}

TEST(SkewNormal, LogPdfConsistentDeepIntoTail) {
  const SkewNormal sn(0.0, 1.0, 3.0);
  for (double x : {-1.0, 0.0, 2.0}) {
    EXPECT_NEAR(sn.log_pdf(x), std::log(sn.pdf(x)), 1e-10);
  }
  // Left tail of a right-skewed SN underflows pdf; log_pdf must stay
  // finite and decreasing.
  EXPECT_TRUE(std::isfinite(sn.log_pdf(-20.0)));
  EXPECT_LT(sn.log_pdf(-25.0), sn.log_pdf(-20.0));
}

TEST(SkewNormal, FitMomentsRecoversDistribution) {
  const SkewNormal truth = SkewNormal::from_moments(1.0, 0.2, -0.5);
  Rng rng(test::test_seed(11));
  std::vector<double> xs(100000);
  for (auto& x : xs) x = truth.sample(rng);
  const auto fitted = SkewNormal::fit_moments(xs);
  ASSERT_TRUE(fitted.has_value());
  EXPECT_NEAR(fitted->mean(), 1.0, 0.01);
  EXPECT_NEAR(fitted->stddev(), 0.2, 0.005);
  EXPECT_NEAR(fitted->skewness(), -0.5, 0.05);
}

TEST(SkewNormal, FitMomentsDegenerateReturnsNull) {
  EXPECT_FALSE(SkewNormal::fit_moments({}).has_value());
  const std::vector<double> constant(10, 1.0);
  EXPECT_FALSE(SkewNormal::fit_moments(constant).has_value());
}

TEST(SkewNormal, WeightedMleImprovesOnMoments) {
  const SkewNormal truth(0.0, 1.0, 5.0);
  Rng rng(test::test_seed(13));
  std::vector<double> xs(20000), ws(20000, 1.0);
  for (auto& x : xs) x = truth.sample(rng);
  const auto mle = SkewNormal::fit_weighted_mle(
      xs, ws, nullptr, {.max_evaluations = 2000, .initial_step = 0.25});
  ASSERT_TRUE(mle.has_value());
  // MLE should land close to the true direct parameters even though
  // the skewness is near the moment-method clamp.
  EXPECT_NEAR(mle->xi(), 0.0, 0.05);
  EXPECT_NEAR(mle->omega(), 1.0, 0.05);
  EXPECT_GT(mle->alpha(), 2.5);
}

TEST(SkewNormal, WeightedMleRespectsWeights) {
  // Zero-weighting the right blob must fit only the left one.
  Rng rng(test::test_seed(17));
  std::vector<double> xs, ws;
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(rng.normal(0.0, 1.0));
    ws.push_back(1.0);
  }
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(rng.normal(50.0, 1.0));
    ws.push_back(0.0);
  }
  const auto fit = SkewNormal::fit_weighted_mle(
      xs, ws, nullptr, {.max_evaluations = 1000, .initial_step = 0.25});
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->mean(), 0.0, 0.1);
  EXPECT_NEAR(fit->stddev(), 1.0, 0.1);
}

TEST(SkewNormal, DeltaBetweenMinusOneAndOne) {
  EXPECT_NEAR(SkewNormal(0.0, 1.0, 1e9).delta(), 1.0, 1e-9);
  EXPECT_NEAR(SkewNormal(0.0, 1.0, -1e9).delta(), -1.0, 1e-9);
  EXPECT_DOUBLE_EQ(SkewNormal(0.0, 1.0, 0.0).delta(), 0.0);
}

}  // namespace
}  // namespace lvf2::stats
