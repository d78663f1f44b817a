#include "baselines/bo/gaussian_process.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace esg::baselines::bo {
namespace {

TEST(Cholesky, FactorsKnownMatrix) {
  // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]].
  const std::vector<double> a = {4.0, 2.0, 2.0, 3.0};
  const auto l = cholesky(a, 2);
  EXPECT_NEAR(l[0], 2.0, 1e-12);
  EXPECT_NEAR(l[1], 0.0, 1e-12);
  EXPECT_NEAR(l[2], 1.0, 1e-12);
  EXPECT_NEAR(l[3], std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, RejectsNonSpd) {
  const std::vector<double> a = {1.0, 2.0, 2.0, 1.0};  // indefinite
  EXPECT_THROW(cholesky(a, 2), std::invalid_argument);
}

TEST(Cholesky, RejectsBadDimensions) {
  EXPECT_THROW(cholesky({1.0, 2.0}, 2), std::invalid_argument);
}

TEST(CholeskySolve, SolvesLinearSystem) {
  // A x = b with A = [[4, 2], [2, 3]], b = [10, 8] -> x = [1.75, 1.5].
  const auto l = cholesky({4.0, 2.0, 2.0, 3.0}, 2);
  const auto x = cholesky_solve(l, 2, {10.0, 8.0});
  EXPECT_NEAR(x[0], 1.75, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(GaussianProcess, InterpolatesTrainingPoints) {
  GaussianProcess gp(GpHyperparams{0.5, 1.0, 1e-6});
  const std::vector<std::vector<double>> x = {{0.0}, {0.5}, {1.0}};
  const std::vector<double> y = {1.0, 2.0, 0.5};
  gp.fit(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto p = gp.predict(x[i]);
    EXPECT_NEAR(p.mean, y[i], 1e-2);
  }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData) {
  GaussianProcess gp(GpHyperparams{0.2, 1.0, 1e-4});
  gp.fit({{0.0}, {0.1}}, {1.0, 1.1});
  const auto near = gp.predict({0.05});
  const auto far = gp.predict({0.9});
  EXPECT_LT(near.variance, far.variance);
}

TEST(GaussianProcess, PredictBeforeFitThrows) {
  GaussianProcess gp;
  EXPECT_THROW((void)gp.predict({0.0}), std::logic_error);
  EXPECT_FALSE(gp.fitted());
}

TEST(GaussianProcess, FitRejectsMismatchedData) {
  GaussianProcess gp;
  EXPECT_THROW(gp.fit({{0.0}}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(gp.fit({}, {}), std::invalid_argument);
}

TEST(GaussianProcess, ConstantTargetsHandled) {
  GaussianProcess gp;
  gp.fit({{0.0}, {1.0}}, {3.0, 3.0});
  EXPECT_NEAR(gp.predict({0.5}).mean, 3.0, 0.5);
}

TEST(ExpectedImprovement, ZeroWhereNoImprovementPossible) {
  GaussianProcess gp(GpHyperparams{0.3, 1.0, 1e-6});
  gp.fit({{0.0}, {1.0}}, {0.0, 10.0});
  // At the known bad point, EI against best 0.0 should be tiny; near the
  // known good point it is small too (little uncertainty), but in between
  // uncertainty creates positive EI.
  const double ei_mid = gp.expected_improvement({0.5}, 0.0);
  EXPECT_GE(ei_mid, 0.0);
  const double ei_bad = gp.expected_improvement({1.0}, 0.0);
  EXPECT_LT(ei_bad, ei_mid + 1e-9);
}

TEST(ExpectedImprovement, PrefersPromisingRegions) {
  GaussianProcess gp(GpHyperparams{0.15, 1.0, 1e-4});
  // y decreases towards x=1: the minimum lies beyond the data.
  gp.fit({{0.0}, {0.25}, {0.5}}, {3.0, 2.0, 1.0});
  const double best = 1.0;
  EXPECT_GT(gp.expected_improvement({0.75}, best),
            gp.expected_improvement({0.0}, best));
}

using Points = std::vector<std::vector<double>>;

/// `count` points in [0, 1]^9, the encoding of a 3-stage Aquatope candidate.
Points random_points(RngStream& rng, std::size_t count) {
  Points points(count, std::vector<double>(9));
  for (auto& p : points) {
    for (double& v : p) v = rng.uniform(0.0, 1.0);
  }
  return points;
}

std::vector<double> random_targets(RngStream& rng, std::size_t count) {
  std::vector<double> y(count);
  for (double& v : y) v = rng.uniform(0.0, 3.0);
  return y;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// predict() of `gp` and of a GP fitted afresh on (x, y) agree bit for bit.
void expect_matches_fresh_fit(const GaussianProcess& gp, const Points& x,
                              const std::vector<double>& y,
                              const Points& queries) {
  GaussianProcess fresh;
  fresh.fit(x, y);
  for (const auto& q : queries) {
    const auto a = gp.predict(q);
    const auto b = fresh.predict(q);
    EXPECT_EQ(bits(a.mean), bits(b.mean));
    EXPECT_EQ(bits(a.variance), bits(b.variance));
  }
}

TEST(GaussianProcess, ExtendingFitMatchesAFreshFit) {
  RngStream rng = RngFactory(3).stream("gp-extend");
  const Points x = random_points(rng, 60);
  const std::vector<double> y = random_targets(rng, 60);
  const Points queries = random_points(rng, 16);
  GaussianProcess gp;
  // The first fit, then extensions by one, several and many points.
  for (const std::size_t n : {20u, 21u, 26u, 60u}) {
    const Points xn(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(n));
    const std::vector<double> yn(y.begin(),
                                 y.begin() + static_cast<std::ptrdiff_t>(n));
    gp.fit(xn, yn);
    expect_matches_fresh_fit(gp, xn, yn, queries);
  }
}

TEST(GaussianProcess, RefitOnOtherInputsMatchesAFreshFit) {
  RngStream rng = RngFactory(4).stream("gp-refit");
  const Points queries = random_points(rng, 16);
  GaussianProcess gp;
  Points x = random_points(rng, 30);
  std::vector<double> y = random_targets(rng, 30);
  gp.fit(x, y);

  // Longer, but the first point differs.
  Points other = random_points(rng, 35);
  std::vector<double> other_y = random_targets(rng, 35);
  gp.fit(other, other_y);
  expect_matches_fresh_fit(gp, other, other_y, queries);

  // The same inputs but one, with new targets.
  other[17][4] += 0.25;
  other_y = random_targets(rng, 35);
  gp.fit(other, other_y);
  expect_matches_fresh_fit(gp, other, other_y, queries);

  // A prefix of the previous inputs.
  other.resize(12);
  other_y.resize(12);
  gp.fit(other, other_y);
  expect_matches_fresh_fit(gp, other, other_y, queries);
}

TEST(ExpectedImprovement, PoolScoringMatchesPerPointBits) {
  RngStream rng = RngFactory(5).stream("gp-pool");
  const Points x = random_points(rng, 50);
  const std::vector<double> y = random_targets(rng, 50);
  GaussianProcess gp;
  gp.fit(x, y);
  const double best = 1.5;
  EXPECT_TRUE(gp.expected_improvements({}, best).empty());
  for (const std::size_t size : {1u, 7u, 9u, 128u}) {
    // Every other point lies close to a training point, where the solves'
    // last bits reach the predictive variance; the last is a training point.
    Points pool = random_points(rng, size);
    for (std::size_t c = 0; c < size; c += 2) {
      pool[c] = x[rng.below(x.size())];
      for (double& v : pool[c]) v += rng.uniform(-0.05, 0.05);
    }
    pool.back() = x[size % x.size()];
    const std::vector<double> ei = gp.expected_improvements(pool, best);
    ASSERT_EQ(ei.size(), size);
    for (std::size_t c = 0; c < size; ++c) {
      EXPECT_EQ(bits(ei[c]), bits(gp.expected_improvement(pool[c], best)))
          << "pool of " << size << ", point " << c;
    }
  }
}

TEST(ExpectedImprovement, PoolScoringBeforeFitThrows) {
  const GaussianProcess gp;
  EXPECT_THROW((void)gp.expected_improvements({{0.0}}, 0.0), std::logic_error);
}

}  // namespace
}  // namespace esg::baselines::bo
