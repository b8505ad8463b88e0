#include "src/core/dv_greedy.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "core_test_util.h"
#include "src/core/htable.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/core/optimal.h"

namespace cvr::core {
namespace {

using testutil::make_crf_user;
using testutil::paper_case_density_fails;
using testutil::paper_case_value_fails;
using testutil::random_problem;

TEST(DvGreedy, DensityOnlyFailsOnPaperCase1) {
  SlotProblem problem = paper_case_density_fails();
  DvGreedyAllocator density(DvGreedyAllocator::Mode::kDensityOnly);
  const Allocation a = density.allocate(problem);
  // Density greedy raises user A first (density 2 > 1.6), then cannot
  // afford user B's 2.5 increment.
  EXPECT_EQ(a.levels, (std::vector<QualityLevel>{2, 1}));
}

TEST(DvGreedy, ValueRescuesPaperCase1) {
  SlotProblem problem = paper_case_density_fails();
  DvGreedyAllocator value(DvGreedyAllocator::Mode::kValueOnly);
  const Allocation v = value.allocate(problem);
  EXPECT_EQ(v.levels, (std::vector<QualityLevel>{1, 2}));

  DvGreedyAllocator combined;
  const Allocation c = combined.allocate(problem);
  EXPECT_EQ(c.levels, (std::vector<QualityLevel>{1, 2}));
  EXPECT_GT(c.objective, value.allocate(problem).objective - 1e-12);
}

TEST(DvGreedy, ValueOnlyFailsOnPaperCase2) {
  SlotProblem problem = paper_case_value_fails();
  DvGreedyAllocator value(DvGreedyAllocator::Mode::kValueOnly);
  const Allocation v = value.allocate(problem);
  // Value greedy takes the big-value increment (3 at rate 2) and starves
  // the other four (each needs 0.5 but only 0 remains).
  EXPECT_EQ(v.levels, (std::vector<QualityLevel>{1, 1, 1, 1, 2}));
}

TEST(DvGreedy, DensityRescuesPaperCase2) {
  SlotProblem problem = paper_case_value_fails();
  DvGreedyAllocator density(DvGreedyAllocator::Mode::kDensityOnly);
  const Allocation d = density.allocate(problem);
  EXPECT_EQ(d.levels, (std::vector<QualityLevel>{2, 2, 2, 2, 1}));

  DvGreedyAllocator combined;
  const Allocation c = combined.allocate(problem);
  EXPECT_EQ(c.levels, (std::vector<QualityLevel>{2, 2, 2, 2, 1}));
}

TEST(DvGreedy, CombinedPicksBetterOfTwoPasses) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SlotProblem problem = random_problem(seed, 6);
    DvGreedyAllocator density(DvGreedyAllocator::Mode::kDensityOnly);
    DvGreedyAllocator value(DvGreedyAllocator::Mode::kValueOnly);
    DvGreedyAllocator combined;
    const double vd = density.allocate(problem).objective;
    const double vv = value.allocate(problem).objective;
    const double vc = combined.allocate(problem).objective;
    EXPECT_NEAR(vc, std::max(vd, vv), 1e-9) << "seed " << seed;
  }
}

TEST(DvGreedy, RespectsServerConstraint) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SlotProblem problem = random_problem(seed, 8);
    DvGreedyAllocator alloc;
    const Allocation a = alloc.allocate(problem);
    EXPECT_TRUE(server_feasible(problem, a.levels)) << "seed " << seed;
  }
}

TEST(DvGreedy, RespectsUserConstraintAboveMinimum) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SlotProblem problem = random_problem(seed, 8);
    DvGreedyAllocator alloc;
    const Allocation a = alloc.allocate(problem);
    for (std::size_t n = 0; n < problem.users.size(); ++n) {
      if (a.levels[n] > 1) {
        EXPECT_TRUE(user_feasible(problem.users[n], a.levels[n]))
            << "seed " << seed << " user " << n;
      }
    }
  }
}

TEST(DvGreedy, LevelsAlwaysValid) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SlotProblem problem = random_problem(seed, 5);
    DvGreedyAllocator alloc;
    const Allocation a = alloc.allocate(problem);
    ASSERT_EQ(a.levels.size(), 5u);
    for (QualityLevel q : a.levels) {
      EXPECT_TRUE(content::is_valid_level(q));
    }
  }
}

TEST(DvGreedy, AmpleBandwidthMaxesWhenBeneficial) {
  // One user, huge bandwidth, no penalties: take level 6.
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.users.push_back(make_crf_user(1000.0, 1.0, 0.0, 1.0));
  problem.server_bandwidth = 1000.0;
  DvGreedyAllocator alloc;
  EXPECT_EQ(alloc.allocate(problem).levels,
            (std::vector<QualityLevel>{6}));
}

TEST(DvGreedy, NegativeMarginalStopsEarly) {
  // Strong variance anchor at qbar = 1 with big beta: raising quality
  // hurts, stay at level 1 despite ample bandwidth.
  SlotProblem problem;
  problem.params = QoeParams{0.0, 10.0};
  problem.users.push_back(make_crf_user(1000.0, 1.0, 1.0, 100.0));
  problem.server_bandwidth = 1000.0;
  DvGreedyAllocator alloc;
  EXPECT_EQ(alloc.allocate(problem).levels,
            (std::vector<QualityLevel>{1}));
}

TEST(DvGreedy, TightBudgetKeepsAllOnes) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.users.push_back(make_crf_user(100.0));
  problem.users.push_back(make_crf_user(100.0));
  problem.server_bandwidth = 2.0 * 14.2;  // exactly the minima
  DvGreedyAllocator alloc;
  EXPECT_EQ(alloc.allocate(problem).levels,
            (std::vector<QualityLevel>{1, 1}));
}

TEST(DvGreedy, EvenInfeasibleMinimumReturnsAllOnes) {
  SlotProblem problem;
  problem.params = QoeParams{0.0, 0.0};
  problem.users.push_back(make_crf_user(100.0));
  problem.users.push_back(make_crf_user(100.0));
  problem.server_bandwidth = 5.0;  // below the minima
  DvGreedyAllocator alloc;
  EXPECT_EQ(alloc.allocate(problem).levels,
            (std::vector<QualityLevel>{1, 1}));
}

TEST(DvGreedy, EmptyProblem) {
  SlotProblem problem;
  problem.server_bandwidth = 100.0;
  DvGreedyAllocator alloc;
  const Allocation a = alloc.allocate(problem);
  EXPECT_TRUE(a.levels.empty());
  EXPECT_DOUBLE_EQ(a.objective, 0.0);
}

TEST(DvGreedy, ObjectiveFieldMatchesEvaluate) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SlotProblem problem = random_problem(seed, 4);
    DvGreedyAllocator alloc;
    const Allocation a = alloc.allocate(problem);
    EXPECT_NEAR(a.objective, evaluate(problem, a.levels), 1e-9);
  }
}

TEST(DvGreedy, NamesDistinguishModes) {
  EXPECT_EQ(DvGreedyAllocator{}.name(), "dv-greedy");
  EXPECT_EQ(DvGreedyAllocator{DvGreedyAllocator::Mode::kDensityOnly}.name(),
            "density-greedy");
  EXPECT_EQ(DvGreedyAllocator{DvGreedyAllocator::Mode::kValueOnly}.name(),
            "value-greedy");
}

TEST(DvGreedy, DeterministicAcrossCalls) {
  SlotProblem problem = random_problem(77, 10);
  DvGreedyAllocator alloc;
  const Allocation a = alloc.allocate(problem);
  const Allocation b = alloc.allocate(problem);
  EXPECT_EQ(a.levels, b.levels);
}

TEST(DvGreedy, NeverBelowItsAllOnesStart) {
  // The ascent starts from the mandatory minimum and only accepts
  // non-negative-marginal moves: the returned objective can never fall
  // below the all-ones value. (Note: the objective is NOT monotone in
  // delta in general — the (1-delta) qbar^2 miss-variance term moves the
  // other way — so this start-dominance is the strongest clean
  // invariant.)
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const SlotProblem problem = random_problem(seed, 6);
    const double base =
        evaluate(problem, std::vector<QualityLevel>(6, 1));
    for (auto strategy : {DvGreedyAllocator::Strategy::kScan,
                          DvGreedyAllocator::Strategy::kHeap}) {
      DvGreedyAllocator alloc(DvGreedyAllocator::Mode::kCombined, strategy);
      EXPECT_GE(alloc.allocate(problem).objective, base - 1e-9) << seed;
    }
  }
}

TEST(DvGreedyHeap, IdenticalToScanOnRandomInstances) {
  // The lazy-heap argmax must reproduce the scan's ascent EXACTLY —
  // same levels, not merely same objective — including tie-breaks.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const SlotProblem problem = random_problem(seed, 1 + seed % 25);
    for (auto mode : {DvGreedyAllocator::Mode::kDensityOnly,
                      DvGreedyAllocator::Mode::kValueOnly,
                      DvGreedyAllocator::Mode::kCombined}) {
      DvGreedyAllocator scan(mode, DvGreedyAllocator::Strategy::kScan);
      DvGreedyAllocator heap(mode, DvGreedyAllocator::Strategy::kHeap);
      EXPECT_EQ(scan.allocate(problem).levels, heap.allocate(problem).levels)
          << "seed " << seed;
    }
  }
}

TEST(DvGreedyHeap, IdenticalOnPaperCounterexamples) {
  for (SlotProblem problem :
       {paper_case_density_fails(), paper_case_value_fails()}) {
    DvGreedyAllocator scan(DvGreedyAllocator::Mode::kCombined,
                           DvGreedyAllocator::Strategy::kScan);
    DvGreedyAllocator heap(DvGreedyAllocator::Mode::kCombined,
                           DvGreedyAllocator::Strategy::kHeap);
    EXPECT_EQ(scan.allocate(problem).levels, heap.allocate(problem).levels);
  }
}

TEST(DvGreedyHeap, IdenticalOnNonConcaveLossAwareProblems) {
  // frame_loss tables can break h's concavity; the lazy-heap argument
  // does not rely on it (every active user always has exactly one fresh
  // entry in the heap), so equivalence must survive.
  for (std::uint64_t seed = 200; seed <= 215; ++seed) {
    SlotProblem problem = random_problem(seed, 6);
    cvr::Rng rng(seed);
    for (auto& user : problem.users) {
      user.frame_loss.resize(6);
      for (double& loss : user.frame_loss) loss = rng.uniform(0.0, 0.7);
    }
    DvGreedyAllocator scan(DvGreedyAllocator::Mode::kCombined,
                           DvGreedyAllocator::Strategy::kScan);
    DvGreedyAllocator heap(DvGreedyAllocator::Mode::kCombined,
                           DvGreedyAllocator::Strategy::kHeap);
    EXPECT_EQ(scan.allocate(problem).levels, heap.allocate(problem).levels)
        << seed;
  }
}

TEST(DvGreedyHeap, IdenticalUnderTightBudgets) {
  for (std::uint64_t seed = 100; seed <= 120; ++seed) {
    SlotProblem problem = random_problem(seed, 10);
    problem.server_bandwidth *= 0.5;  // lots of mid-ascent rejections
    DvGreedyAllocator scan(DvGreedyAllocator::Mode::kCombined,
                           DvGreedyAllocator::Strategy::kScan);
    DvGreedyAllocator heap(DvGreedyAllocator::Mode::kCombined,
                           DvGreedyAllocator::Strategy::kHeap);
    EXPECT_EQ(scan.allocate(problem).levels, heap.allocate(problem).levels)
        << seed;
  }
}

// --- Warm-start ablation ("dv-warm") ---------------------------------
// Theorem 1's ½-gain bound is FORFEITED in this mode (it conditions on
// the all-ones start); the invariants that remain — always feasible,
// cold-identical first call, never worse on a repeated problem, reset()
// restores cold behaviour — are pinned here.

DvGreedyAllocator make_warm() {
  return DvGreedyAllocator(DvGreedyAllocator::Mode::kCombined,
                           DvGreedyAllocator::Strategy::kHeap,
                           /*warm_start=*/true);
}

TEST(DvGreedyWarm, NameAndColdFirstCallMatchDefault) {
  DvGreedyAllocator warm = make_warm();
  EXPECT_EQ(warm.name(), "dv-warm");
  // With no previous slot, the seed is all-ones: bit-identical to the
  // default allocator.
  DvGreedyAllocator cold;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const SlotProblem problem = random_problem(seed, 7);
    warm.reset();
    EXPECT_EQ(warm.allocate(problem).levels, cold.allocate(problem).levels)
        << "seed " << seed;
  }
}

TEST(DvGreedyWarm, AlwaysFeasibleAcrossDriftingSlots) {
  // A drifting slot sequence: warm seeds come from a DIFFERENT problem
  // than the one being solved, so the repair path gets exercised.
  DvGreedyAllocator warm = make_warm();
  for (std::uint64_t slot = 1; slot <= 40; ++slot) {
    SlotProblem problem = random_problem(slot, 9);
    problem.server_bandwidth *= 0.6 + 0.1 * static_cast<double>(slot % 8);
    const Allocation a = warm.allocate(problem);
    EXPECT_TRUE(allocation_feasible(problem, a.levels)) << "slot " << slot;
  }
}

TEST(DvGreedyWarm, RepairsAfterBudgetCollapse) {
  // Roomy slot first, then the budget collapses to the all-ones minimum:
  // the previous (high) allocation must be repaired down to feasibility.
  SlotProblem roomy = random_problem(3, 6);
  roomy.server_bandwidth *= 10.0;
  DvGreedyAllocator warm = make_warm();
  warm.allocate(roomy);
  SlotProblem tight = roomy;
  double min_rate = 0.0;
  for (const auto& user : tight.users) min_rate += user.rate[0];
  tight.server_bandwidth = min_rate;
  const Allocation a = warm.allocate(tight);
  EXPECT_TRUE(allocation_feasible(tight, a.levels));
}

TEST(DvGreedyWarm, NotWorseThanColdOnRepeatedProblem) {
  // On an identical repeated problem the warm seed IS the previous
  // (feasible) result, and the ascent only adds non-negative marginals:
  // objective >= cold objective.
  DvGreedyAllocator cold;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const SlotProblem problem = random_problem(seed, 8);
    const double cold_objective = cold.allocate(problem).objective;
    DvGreedyAllocator warm = make_warm();
    warm.allocate(problem);
    const Allocation repeat = warm.allocate(problem);
    EXPECT_GE(repeat.objective, cold_objective - 1e-12) << "seed " << seed;
    EXPECT_TRUE(allocation_feasible(problem, repeat.levels));
  }
}

TEST(DvGreedyWarm, UserCountChangeFallsBackToCold) {
  DvGreedyAllocator warm = make_warm();
  warm.allocate(random_problem(1, 12));
  const SlotProblem smaller = random_problem(2, 5);
  DvGreedyAllocator cold;
  EXPECT_EQ(warm.allocate(smaller).levels, cold.allocate(smaller).levels);
}

TEST(DvGreedyWarm, ResetRestoresColdBehaviour) {
  const SlotProblem problem = random_problem(9, 8);
  DvGreedyAllocator warm = make_warm();
  DvGreedyAllocator cold;
  const Allocation first = warm.allocate(problem);
  EXPECT_EQ(first.levels, cold.allocate(problem).levels);
  warm.allocate(problem);  // builds warm memory
  warm.reset();
  EXPECT_EQ(warm.allocate(problem).levels, first.levels);
}

// Monotonicity sweep: more server bandwidth never lowers the objective.
class BandwidthMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandwidthMonotone, ObjectiveNonDecreasingInBudget) {
  SlotProblem problem = random_problem(GetParam(), 6);
  DvGreedyAllocator alloc;
  double prev = -1e18;
  for (double budget_scale : {0.8, 1.0, 1.3, 1.8, 2.5}) {
    SlotProblem p = problem;
    p.server_bandwidth = problem.server_bandwidth * budget_scale;
    const double v = alloc.allocate(p).objective;
    EXPECT_GE(v, prev - 1e-9);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandwidthMonotone,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(HTableSet, NonIncreasingRatesThrowAtBuild) {
  SlotProblem problem = random_problem(3, 4);
  problem.users[2].rate[3] = problem.users[2].rate[2];  // non-increasing
  HTableSet tables;
  EXPECT_THROW(tables.build(problem), std::logic_error);
  // Both strategies build the table before their pass, so the naive
  // scan throws from the same place as the heap.
  for (auto strategy : {DvGreedyAllocator::Strategy::kScan,
                        DvGreedyAllocator::Strategy::kHeap}) {
    DvGreedyAllocator alloc(DvGreedyAllocator::Mode::kCombined, strategy);
    EXPECT_THROW(alloc.allocate(problem), std::logic_error);
  }
}

// --- Within-slot parallelism: bit-identical to serial, race-free ------
// (This suite is the TSan and ASan CI target: names must keep matching
// the "ParallelMerge" filter in .github/workflows/ci.yml.)

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ParallelMerge, HTableBuildMatchesSerialBitExact) {
  cvr::ThreadPool pool(4);
  for (std::size_t users : {1u, 4u, 121u, 1000u}) {
    const SlotProblem problem = random_problem(500 + users, users);
    HTableSet serial_tables;
    serial_tables.build(problem);
    HTableSet parallel_tables;
    parallel_tables.build(problem, &pool, /*parallel_min_users=*/1);
    ASSERT_EQ(serial_tables.size(), parallel_tables.size());
    for (std::size_t n = 0; n < problem.user_count(); ++n) {
      for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
        ASSERT_EQ(bits(serial_tables[n].value(q)),
                  bits(parallel_tables[n].value(q)))
            << "N " << users << " user " << n << " level " << q;
        if (q >= kNumQualityLevels) continue;
        ASSERT_EQ(bits(serial_tables[n].density(q)),
                  bits(parallel_tables[n].density(q)));
      }
    }
  }
}

TEST(ParallelMerge, DvGreedyPoolMatchesSerialBitExact) {
  cvr::ThreadPool pool(4);
  using Strategy = DvGreedyAllocator::Strategy;
  for (Strategy strategy : {Strategy::kScan, Strategy::kHeap}) {
    DvGreedyAllocator serial_dv(DvGreedyAllocator::Mode::kCombined, strategy);
    DvGreedyAllocator parallel_dv(DvGreedyAllocator::Mode::kCombined,
                                  strategy);
    parallel_dv.set_thread_pool(&pool);
    parallel_dv.set_parallel_min_users(1);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const SlotProblem problem = random_problem(seed, 150);
      const Allocation a = serial_dv.allocate(problem);
      const Allocation b = parallel_dv.allocate(problem);
      EXPECT_EQ(a.levels, b.levels) << "seed " << seed;
      EXPECT_EQ(bits(a.objective), bits(b.objective)) << "seed " << seed;
    }
  }
}

TEST(ParallelMerge, RepeatedParallelRunsAreDeterministic) {
  cvr::ThreadPool pool(4);
  DvGreedyAllocator dv;
  dv.set_thread_pool(&pool);
  dv.set_parallel_min_users(1);
  const SlotProblem problem = random_problem(77, 333);
  const Allocation first = dv.allocate(problem);
  for (int run = 0; run < 10; ++run) {
    const Allocation again = dv.allocate(problem);
    ASSERT_EQ(first.levels, again.levels) << "run " << run;
    ASSERT_EQ(bits(first.objective), bits(again.objective)) << "run " << run;
  }
}

TEST(ParallelMerge, GatherExceptionPropagatesFromWorkers) {
  cvr::ThreadPool pool(2);
  SlotProblem problem = random_problem(5, 40);
  problem.users[17].frame_loss = {0.1, 0.1};  // shorter than L: throws
  HTableSet tables;
  EXPECT_THROW(tables.build(problem, &pool, 1), std::out_of_range);
  EXPECT_THROW(tables.build(problem), std::out_of_range);  // serial too
}

}  // namespace
}  // namespace cvr::core
