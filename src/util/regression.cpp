#include "src/util/regression.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace cvr {

SlidingLinearRegressor::SlidingLinearRegressor(std::size_t window)
    : window_(window == 0 ? 1 : window) {}

void SlidingLinearRegressor::add(double x, double y) {
  points_.emplace_back(x, y);
  sx_ += x;
  sy_ += y;
  sxx_ += x * x;
  sxy_ += x * y;
  if (points_.size() > window_) {
    auto [ox, oy] = points_.front();
    points_.pop_front();
    sx_ -= ox;
    sy_ -= oy;
    sxx_ -= ox * ox;
    sxy_ -= ox * oy;
  }
}

double SlidingLinearRegressor::slope() const {
  const double n = static_cast<double>(points_.size());
  const double denom = n * sxx_ - sx_ * sx_;
  if (std::abs(denom) < 1e-12) return 0.0;
  return (n * sxy_ - sx_ * sy_) / denom;
}

double SlidingLinearRegressor::intercept() const {
  if (points_.empty()) return 0.0;
  const double n = static_cast<double>(points_.size());
  return (sy_ - slope() * sx_) / n;
}

double SlidingLinearRegressor::predict(double x) const {
  if (points_.empty()) return 0.0;
  if (points_.size() == 1) return points_.back().second;
  return intercept() + slope() * x;
}

PolynomialRegressor::PolynomialRegressor(int degree, std::size_t max_history)
    : degree_(degree < 0 ? 0 : degree),
      max_history_(max_history == 0 ? 1 : max_history) {
  if (degree_ > kMaxDegree) {
    throw std::invalid_argument("PolynomialRegressor: degree above kMaxDegree");
  }
}

void PolynomialRegressor::add(double x, double y) {
  if (ring_.empty()) ring_.resize(max_history_);
  if (count_ < max_history_) {
    std::size_t slot = head_ + count_;
    if (slot >= max_history_) slot -= max_history_;
    ring_[slot] = {x, y};
    ++count_;
  } else {
    // Full: the newest sample overwrites the oldest.
    ring_[head_] = {x, y};
    if (++head_ == max_history_) head_ = 0;
  }
  dirty_ = true;
}

bool PolynomialRegressor::ready() const {
  return count_ >= static_cast<std::size_t>(degree_) + 1;
}

void PolynomialRegressor::fit() {
  if (!dirty_) return;
  dirty_ = false;
  fitted_ = false;
  if (!ready()) return;
  const std::size_t dim = static_cast<std::size_t>(degree_) + 1;
  // Normal equations: (V^T V) c = V^T y with Vandermonde V. Each entry is
  // summed oldest to newest, one fresh sum per fit: running sums updated
  // on add/evict would round differently and change every prediction.
  // V^T V is symmetric and pows[i]*pows[j] == pows[j]*pows[i] exactly,
  // so filling the upper triangle and mirroring it is bit-identical.
  constexpr std::size_t kMaxDim = kMaxDegree + 1;
  double ata[kMaxDim * kMaxDim] = {};
  double aty[kMaxDim] = {};
  double pows[kMaxDim];
  std::size_t slot = head_;
  for (std::size_t k = 0; k < count_; ++k) {
    const Sample& s = ring_[slot];
    if (++slot == max_history_) slot = 0;
    double power = 1.0;
    for (std::size_t i = 0; i < dim; ++i) {
      pows[i] = power;
      power *= s.x;
    }
    for (std::size_t i = 0; i < dim; ++i) {
      aty[i] += pows[i] * s.y;
      for (std::size_t j = i; j < dim; ++j) ata[i * dim + j] += pows[i] * pows[j];
    }
  }
  for (std::size_t i = 1; i < dim; ++i) {
    for (std::size_t j = 0; j < i; ++j) ata[i * dim + j] = ata[j * dim + i];
  }
  if (solve_linear_system(ata, aty, dim)) {
    std::copy(aty, aty + dim, coeffs_);
    fitted_ = true;
  }
}

double PolynomialRegressor::predict(double x) {
  fit();
  if (!fitted_) {
    if (count_ == 0) return 0.0;
    double total = 0.0;
    std::size_t slot = head_;
    for (std::size_t k = 0; k < count_; ++k) {
      total += ring_[slot].y;
      if (++slot == max_history_) slot = 0;
    }
    return total / static_cast<double>(count_);
  }
  const std::size_t dim = static_cast<std::size_t>(degree_) + 1;
  double result = 0.0;
  double power = 1.0;
  for (std::size_t i = 0; i < dim; ++i) {
    result += coeffs_[i] * power;
    power *= x;
  }
  return result;
}

std::vector<double> PolynomialRegressor::coefficients() {
  fit();
  if (!fitted_) return {};
  return std::vector<double>(coeffs_, coeffs_ + degree_ + 1);
}

bool solve_linear_system(double* a, double* b, std::size_t n) {
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row * n + col]) > std::abs(a[pivot * n + col])) pivot = row;
    }
    if (std::abs(a[pivot * n + col]) < 1e-12) return false;
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a[col * n + j], a[pivot * n + j]);
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row * n + col] / a[col * n + col];
      for (std::size_t j = col; j < n; ++j) a[row * n + j] -= factor * a[col * n + j];
      b[row] -= factor * b[col];
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    double total = b[i];
    for (std::size_t j = i + 1; j < n; ++j) total -= a[i * n + j] * b[j];
    b[i] = total / a[i * n + i];
  }
  return true;
}

}  // namespace cvr
