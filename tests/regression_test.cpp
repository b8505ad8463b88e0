#include "src/util/regression.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/util/rng.h"

namespace cvr {
namespace {

TEST(SlidingLinearRegressor, RecoversExactLine) {
  SlidingLinearRegressor reg(10);
  for (int i = 0; i < 10; ++i) reg.add(i, 2.0 * i + 1.0);
  EXPECT_NEAR(reg.slope(), 2.0, 1e-9);
  EXPECT_NEAR(reg.intercept(), 1.0, 1e-9);
  EXPECT_NEAR(reg.predict(20.0), 41.0, 1e-9);
}

TEST(SlidingLinearRegressor, EmptyPredictsZero) {
  SlidingLinearRegressor reg(5);
  EXPECT_DOUBLE_EQ(reg.predict(3.0), 0.0);
  EXPECT_FALSE(reg.ready());
}

TEST(SlidingLinearRegressor, SinglePointIsPersistence) {
  SlidingLinearRegressor reg(5);
  reg.add(0.0, 7.0);
  EXPECT_DOUBLE_EQ(reg.predict(100.0), 7.0);
}

TEST(SlidingLinearRegressor, WindowForgetsOldRegime) {
  SlidingLinearRegressor reg(5);
  // Old regime: slope 0 at level 0.
  for (int i = 0; i < 50; ++i) reg.add(i, 0.0);
  // New regime: slope 1; the window only sees the last 5 points.
  for (int i = 50; i < 55; ++i) reg.add(i, static_cast<double>(i));
  EXPECT_NEAR(reg.slope(), 1.0, 1e-9);
  EXPECT_NEAR(reg.predict(60.0), 60.0, 1e-9);
}

TEST(SlidingLinearRegressor, ConstantSignalHasZeroSlope) {
  SlidingLinearRegressor reg(8);
  for (int i = 0; i < 20; ++i) reg.add(i, 5.5);
  EXPECT_NEAR(reg.slope(), 0.0, 1e-9);
  EXPECT_NEAR(reg.predict(1000.0), 5.5, 1e-9);
}

TEST(SlidingLinearRegressor, DegenerateIdenticalXs) {
  SlidingLinearRegressor reg(5);
  reg.add(1.0, 2.0);
  reg.add(1.0, 4.0);
  // Vertical data: slope defined as 0, prediction = mean.
  EXPECT_DOUBLE_EQ(reg.slope(), 0.0);
  EXPECT_NEAR(reg.predict(1.0), 3.0, 1e-9);
}

TEST(SlidingLinearRegressor, NoisyLineRecoveredApproximately) {
  Rng rng(3);
  SlidingLinearRegressor reg(200);
  for (int i = 0; i < 200; ++i) {
    reg.add(i, 3.0 * i - 7.0 + rng.normal(0.0, 0.5));
  }
  EXPECT_NEAR(reg.slope(), 3.0, 0.05);
  EXPECT_NEAR(reg.intercept(), -7.0, 2.0);
}

TEST(SlidingLinearRegressor, ZeroWindowClampedToOne) {
  SlidingLinearRegressor reg(0);
  reg.add(0.0, 1.0);
  reg.add(1.0, 2.0);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(PolynomialRegressor, RecoversQuadratic) {
  PolynomialRegressor reg(2, 100);
  for (int i = -5; i <= 5; ++i) {
    const double x = i;
    reg.add(x, 2.0 * x * x - 3.0 * x + 1.0);
  }
  EXPECT_TRUE(reg.ready());
  EXPECT_NEAR(reg.predict(10.0), 171.0, 1e-6);
  const auto coeffs = reg.coefficients();
  ASSERT_EQ(coeffs.size(), 3u);
  EXPECT_NEAR(coeffs[0], 1.0, 1e-6);
  EXPECT_NEAR(coeffs[1], -3.0, 1e-6);
  EXPECT_NEAR(coeffs[2], 2.0, 1e-6);
}

TEST(PolynomialRegressor, UnderdeterminedFallsBackToMean) {
  PolynomialRegressor reg(2, 100);
  reg.add(1.0, 4.0);
  reg.add(2.0, 6.0);
  EXPECT_FALSE(reg.ready());
  EXPECT_NEAR(reg.predict(50.0), 5.0, 1e-9);
}

TEST(PolynomialRegressor, EmptyPredictsZero) {
  PolynomialRegressor reg(2, 10);
  EXPECT_DOUBLE_EQ(reg.predict(1.0), 0.0);
}

TEST(PolynomialRegressor, HistoryBoundForgetsOldData) {
  PolynomialRegressor reg(1, 10);
  for (int i = 0; i < 100; ++i) reg.add(i, 0.0);
  for (int i = 100; i < 110; ++i) reg.add(i, static_cast<double>(i));
  EXPECT_EQ(reg.size(), 10u);
  EXPECT_NEAR(reg.predict(120.0), 120.0, 1e-6);
}

TEST(PolynomialRegressor, DegreeZeroIsMean) {
  PolynomialRegressor reg(0, 100);
  reg.add(0.0, 2.0);
  reg.add(1.0, 4.0);
  reg.add(2.0, 6.0);
  EXPECT_NEAR(reg.predict(123.0), 4.0, 1e-9);
}

TEST(PolynomialRegressor, DegreeAboveMaxThrows) {
  EXPECT_THROW(PolynomialRegressor(PolynomialRegressor::kMaxDegree + 1, 10),
               std::invalid_argument);
  EXPECT_NO_THROW(PolynomialRegressor(PolynomialRegressor::kMaxDegree, 10));
}

// Naive reference: the deque-backed fit with a freshly built Vandermonde
// row per sample and the full (not mirrored) V^T V. The ring-buffer
// regressor must agree with it bit for bit.
class NaivePolynomialRegressor {
 public:
  NaivePolynomialRegressor(int degree, std::size_t max_history)
      : degree_(degree), max_history_(max_history) {}

  void add(double x, double y) {
    xs_.push_back(x);
    ys_.push_back(y);
    if (xs_.size() > max_history_) {
      xs_.pop_front();
      ys_.pop_front();
    }
  }

  std::vector<double> coefficients() const {
    if (xs_.size() < static_cast<std::size_t>(degree_) + 1) return {};
    const std::size_t dim = static_cast<std::size_t>(degree_) + 1;
    std::vector<double> ata(dim * dim, 0.0);
    std::vector<double> aty(dim, 0.0);
    for (std::size_t k = 0; k < xs_.size(); ++k) {
      double powers_i = 1.0;
      std::vector<double> pows(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        pows[i] = powers_i;
        powers_i *= xs_[k];
      }
      for (std::size_t i = 0; i < dim; ++i) {
        aty[i] += pows[i] * ys_[k];
        for (std::size_t j = 0; j < dim; ++j) {
          ata[i * dim + j] += pows[i] * pows[j];
        }
      }
    }
    if (!solve_linear_system(ata.data(), aty.data(), dim)) return {};
    return aty;
  }

  double predict(double x) const {
    const std::vector<double> coeffs = coefficients();
    if (coeffs.empty()) {
      if (ys_.empty()) return 0.0;
      double total = 0.0;
      for (double y : ys_) total += y;
      return total / static_cast<double>(ys_.size());
    }
    double result = 0.0;
    double power = 1.0;
    for (double c : coeffs) {
      result += c * power;
      power *= x;
    }
    return result;
  }

 private:
  int degree_;
  std::size_t max_history_;
  std::deque<double> xs_, ys_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct OracleCase {
  int degree;
  std::size_t history;
};

class PolyOracle : public ::testing::TestWithParam<OracleCase> {};

// Seeded delay-like streams that wrap the window several times: after
// every add, predict() and coefficients() match the naive fit exactly.
TEST_P(PolyOracle, BitIdenticalToNaiveFit) {
  const auto [degree, history] = GetParam();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed * 7919 + static_cast<std::uint64_t>(degree) * 31 + history);
    PolynomialRegressor reg(degree, history);
    NaivePolynomialRegressor naive(degree, history);
    const std::size_t samples = 3 * history + 5;
    for (std::size_t k = 0; k < samples; ++k) {
      const double rate = rng.uniform(0.0, 120.0);
      const double delay =
          5.0 + 0.02 * rate + 0.004 * rate * rate + rng.normal(0.0, 2.0);
      reg.add(rate, delay);
      naive.add(rate, delay);
      const std::vector<double> got = reg.coefficients();
      const std::vector<double> want = naive.coefficients();
      ASSERT_EQ(got.size(), want.size()) << "sample " << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(bits(got[i]), bits(want[i]))
            << "seed " << seed << " sample " << k << " coeff " << i;
      }
      for (double x : {0.0, 17.5, 64.0, rate}) {
        ASSERT_EQ(bits(reg.predict(x)), bits(naive.predict(x)))
            << "seed " << seed << " sample " << k << " x " << x;
      }
    }
    EXPECT_EQ(reg.size(), history);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DegreesAndHistories, PolyOracle,
    ::testing::Values(OracleCase{0, 1}, OracleCase{1, 1}, OracleCase{2, 1},
                      OracleCase{3, 1}, OracleCase{0, 8}, OracleCase{1, 8},
                      OracleCase{2, 8}, OracleCase{3, 8}, OracleCase{0, 256},
                      OracleCase{1, 256}, OracleCase{2, 256},
                      OracleCase{3, 256}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return "deg" + std::to_string(info.param.degree) + "_hist" +
             std::to_string(info.param.history);
    });

// Underdetermined and singular windows take the mean fallback; it sums
// the window oldest to newest exactly like the naive deque.
TEST(PolynomialRegressor, MeanFallbackBitIdenticalToNaive) {
  Rng rng(404);
  PolynomialRegressor reg(3, 8);
  NaivePolynomialRegressor naive(3, 8);
  for (int k = 0; k < 40; ++k) {
    // One repeated x makes V^T V singular once the window is full.
    const double y = rng.uniform(-10.0, 10.0);
    reg.add(2.5, y);
    naive.add(2.5, y);
    EXPECT_TRUE(reg.coefficients().empty());
    ASSERT_EQ(bits(reg.predict(1.0)), bits(naive.predict(1.0))) << k;
  }
}

TEST(SolveLinearSystem, TwoByTwo) {
  std::vector<double> a = {2.0, 1.0, 1.0, 3.0};
  std::vector<double> b = {5.0, 10.0};
  ASSERT_TRUE(solve_linear_system(a.data(), b.data(), 2));
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(SolveLinearSystem, SingularReturnsFalse) {
  std::vector<double> a = {1.0, 2.0, 2.0, 4.0};
  std::vector<double> b = {1.0, 2.0};
  EXPECT_FALSE(solve_linear_system(a.data(), b.data(), 2));
}

TEST(SolveLinearSystem, NeedsPivoting) {
  // Leading zero forces a row swap.
  std::vector<double> a = {0.0, 1.0, 1.0, 0.0};
  std::vector<double> b = {2.0, 3.0};
  ASSERT_TRUE(solve_linear_system(a.data(), b.data(), 2));
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

// Property: a degree-d regressor interpolates any polynomial of degree
// <= d exactly when given >= d+1 distinct points.
class PolyExactness : public ::testing::TestWithParam<int> {};

TEST_P(PolyExactness, InterpolatesOwnDegree) {
  const int degree = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(degree));
  std::vector<double> coeffs;
  for (int i = 0; i <= degree; ++i) coeffs.push_back(rng.uniform(-2.0, 2.0));
  PolynomialRegressor reg(degree, 64);
  for (int i = 0; i <= degree + 5; ++i) {
    const double x = i * 0.7 - 2.0;
    double y = 0.0, p = 1.0;
    for (double c : coeffs) {
      y += c * p;
      p *= x;
    }
    reg.add(x, y);
  }
  for (double x : {-3.0, 0.0, 4.2}) {
    double y = 0.0, p = 1.0;
    for (double c : coeffs) {
      y += c * p;
      p *= x;
    }
    EXPECT_NEAR(reg.predict(x), y, 1e-5) << "degree " << degree;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, PolyExactness, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace cvr
