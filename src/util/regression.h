// Least-squares regression utilities.
//
// * SlidingLinearRegressor — per-axis 6-DoF motion prediction
//   (Section V: "We use linear regression to predict the virtual position
//   and head orientation in each axis independently").
// * PolynomialRegressor — delay-vs-rate prediction on the client
//   (Section V: "we use polynomial regression to predict the delay instead
//   of linear regression" because d_n(r) is non-linear).
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

namespace cvr {

/// Ordinary least squares y = intercept + slope * x over a sliding window
/// of the most recent `window` observations. O(1) update via running sums.
class SlidingLinearRegressor {
 public:
  explicit SlidingLinearRegressor(std::size_t window);

  void add(double x, double y);

  std::size_t size() const { return points_.size(); }
  bool ready() const { return points_.size() >= 2; }

  double slope() const;
  double intercept() const;

  /// Predicts y at x. With fewer than 2 points, returns the last y seen
  /// (or 0 when empty) — a persistence forecast.
  double predict(double x) const;

 private:
  std::size_t window_;
  std::deque<std::pair<double, double>> points_;
  double sx_ = 0.0, sy_ = 0.0, sxx_ = 0.0, sxy_ = 0.0;
};

/// Polynomial least squares of fixed degree, fit on demand from a bounded
/// history. Solves the normal equations by Gaussian elimination with
/// partial pivoting; degrees used in this library are small (<= 3).
///
/// The history is a ring buffer of `max_history` samples, allocated on
/// the first add(); adding and refitting never allocate after that. A
/// refit sums over the window oldest to newest (docs/performance.md, "The
/// per-user server path"), so its result depends only on the window's
/// contents and order, never on how many samples passed through it.
class PolynomialRegressor {
 public:
  /// Highest supported degree: the refit keeps its normal equations in
  /// fixed-size stack arrays.
  static constexpr int kMaxDegree = 7;

  /// Throws std::invalid_argument when degree > kMaxDegree; a negative
  /// degree clamps to 0 and a zero history to 1.
  PolynomialRegressor(int degree, std::size_t max_history);

  void add(double x, double y);

  bool ready() const;

  /// Fits (if dirty) and evaluates the polynomial at x. Falls back to the
  /// mean of observed y (or 0 when empty) while underdetermined.
  double predict(double x);

  /// Coefficients c0..cd of the current fit (fits first if dirty).
  std::vector<double> coefficients();

  std::size_t size() const { return count_; }

 private:
  struct Sample {
    double x;
    double y;
  };

  void fit();

  int degree_;
  std::size_t max_history_;
  /// Ring of max_history_ slots once the first sample arrives; the
  /// oldest sample sits at head_.
  std::vector<Sample> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  double coeffs_[kMaxDegree + 1] = {};
  bool fitted_ = false;
  bool dirty_ = true;
};

/// Solves the dense linear system a * x = b in place (Gaussian elimination,
/// partial pivoting). `a` is row-major n x n. Returns false if singular.
bool solve_linear_system(double* a, double* b, std::size_t n);

}  // namespace cvr
