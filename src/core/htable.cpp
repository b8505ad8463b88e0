#include "src/core/htable.h"

#include <algorithm>
#include <future>
#include <stdexcept>
#include <vector>

#include "src/util/thread_pool.h"

namespace cvr::core {

void SlotProblemSoA::prepare(const SlotProblem& problem) {
  users = problem.user_count();
  const auto levels = static_cast<std::size_t>(kNumQualityLevels);
  success.resize(levels * users);
  weight.resize(users);
  qbar.resize(users);
  rate.resize(levels * users);
  delay.resize(levels * users);
}

void SlotProblemSoA::gather_range(const SlotProblem& problem, std::size_t begin,
                                  std::size_t end) {
  const auto levels = static_cast<std::size_t>(kNumQualityLevels);
  for (std::size_t i = begin; i < end; ++i) {
    const UserSlotContext& user = problem.users[i];
    const double t = user.slot;
    weight[i] = t > 1.0 ? (t - 1.0) / t : 0.0;
    qbar[i] = user.qbar;
    for (std::size_t l = 0; l < levels; ++l) {
      success[l * users + i] =
          user.effective_delta(static_cast<QualityLevel>(l + 1));
      rate[l * users + i] = user.rate[l];
      delay[l * users + i] = user.delay[l];
    }
  }
}

void HTableSet::build(const SlotProblem& problem, cvr::ThreadPool* pool,
                      std::size_t parallel_min_users) {
  soa_.prepare(problem);
  users_ = soa_.users;
  const auto levels = static_cast<std::size_t>(kNumQualityLevels);
  h_.resize(levels * users_);
  increment_.resize((levels - 1) * users_);
  density_.resize((levels - 1) * users_);

  if (pool != nullptr && users_ >= parallel_min_users && users_ > 0) {
    // Disjoint user ranges: every task gathers and evaluates its own
    // slice, so the result is bit-identical to the serial build
    // regardless of scheduling. Futures are drained in range order, so
    // the lowest range's exception wins.
    const std::size_t per_task = (users_ + pool->size() - 1) / pool->size();
    std::vector<std::future<void>> tasks;
    tasks.reserve((users_ + per_task - 1) / per_task);
    for (std::size_t begin = 0; begin < users_; begin += per_task) {
      const std::size_t end = std::min(begin + per_task, users_);
      tasks.push_back(pool->submit(
          [this, &problem, begin, end] { build_range(problem, begin, end); }));
    }
    for (auto& task : tasks) task.get();
  } else {
    build_range(problem, 0, users_);
  }

  validate_rates();
}

void HTableSet::build_range(const SlotProblem& problem, std::size_t begin,
                            std::size_t end) {
  soa_.gather_range(problem, begin, end);
  const QoeParams& params = problem.params;
  const std::size_t stride = users_;
  for (std::size_t l = 0; l < static_cast<std::size_t>(kNumQualityLevels);
       ++l) {
    const double qv = static_cast<double>(l + 1);
    const double* success_row = soa_.success.data() + l * stride;
    const double* delay_row = soa_.delay.data() + l * stride;
    double* out = h_.data() + l * stride;
    for (std::size_t i = begin; i < end; ++i) {
      const double s = success_row[i];
      const double w = soa_.weight[i];
      const double qb = soa_.qbar[i];
      const double dq = qv - qb;
      // The exact expression and association order of
      // detail::h_value_unchecked — the bit-identity anchor.
      const double variance_term = s * w * dq * dq + (1.0 - s) * w * qb * qb;
      out[i] = s * qv - params.alpha * delay_row[i] - params.beta * variance_term;
    }
  }
  for (std::size_t l = 0; l + 1 < static_cast<std::size_t>(kNumQualityLevels);
       ++l) {
    const double* h_lo = h_.data() + l * stride;
    const double* h_hi = h_.data() + (l + 1) * stride;
    const double* r_lo = soa_.rate.data() + l * stride;
    const double* r_hi = soa_.rate.data() + (l + 1) * stride;
    double* inc = increment_.data() + l * stride;
    double* den = density_.data() + l * stride;
    for (std::size_t i = begin; i < end; ++i) {
      inc[i] = h_hi[i] - h_lo[i];
      den[i] = inc[i] / (r_hi[i] - r_lo[i]);
    }
  }
}

void HTableSet::validate_rates() const {
  // Validated-at-build: this pass over the rate planes replaces
  // h_density's per-call throw. NaN steps are deliberately NOT flagged
  // (dr <= 0 is false for NaN), matching h_density exactly.
  const auto levels = static_cast<std::size_t>(kNumQualityLevels);
  for (std::size_t l = 0; l + 1 < levels; ++l) {
    const double* r_lo = soa_.rate.data() + l * users_;
    const double* r_hi = soa_.rate.data() + (l + 1) * users_;
    for (std::size_t i = 0; i < users_; ++i) {
      if (r_hi[i] - r_lo[i] <= 0.0) {
        throw std::logic_error("HTable: rates must be strictly increasing");
      }
    }
  }
}

double HTableSet::evaluate(const std::vector<QualityLevel>& levels) const {
  if (levels.size() != users_) {
    throw std::invalid_argument("HTableSet::evaluate: level count mismatch");
  }
  double total = 0.0;
  for (std::size_t n = 0; n < users_; ++n) {
    total += h_[static_cast<std::size_t>(levels[n] - 1) * users_ + n];
  }
  return total;
}

}  // namespace cvr::core
