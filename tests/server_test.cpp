#include "src/system/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/motion/predictor.h"

namespace cvr::system {
namespace {

ServerConfig small_config() {
  ServerConfig config;
  config.server_bandwidth_mbps = 200.0;
  return config;
}

TEST(Server, RejectsZeroUsers) {
  EXPECT_THROW(Server(small_config(), 0), std::invalid_argument);
}

TEST(Server, RejectsNegativeCacheWindowRadius) {
  // Otherwise every user's cache is marked primed after an advance that
  // prefetched nothing, and every tile request misses silently.
  ServerConfig config = small_config();
  config.cache.window_radius_cells = -2;
  try {
    Server server(config, 3);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "ServerCacheConfig.window_radius_cells"),
              std::string::npos)
        << e.what();
  }
}

TEST(Server, RejectsCacheWindowRadiusAboveCap) {
  ServerConfig config = small_config();
  config.cache.window_radius_cells =
      content::ServerTileCache::kMaxWindowRadiusCells + 1;
  try {
    Server server(config, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ServerCacheConfig.window_radius_cells"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(config.cache.window_radius_cells)),
              std::string::npos)
        << what;
  }
}

TEST(Server, PredictsLinearWalk) {
  Server server(small_config(), 1);
  for (std::size_t t = 0; t < 10; ++t) {
    motion::Pose p;
    p.x = 1.0 + 0.01 * static_cast<double>(t);
    p.y = 2.0;
    server.on_pose(0, t, p);
  }
  const motion::Pose predicted = server.predict_pose(0);
  // Two slots ahead of t = 9 -> x = 1.0 + 0.11.
  EXPECT_NEAR(predicted.x, 1.11, 1e-9);
  EXPECT_NEAR(predicted.y, 2.0, 1e-9);
}

TEST(Server, DefaultPoseBeforeAnyUpload) {
  Server server(small_config(), 1);
  const motion::Pose p = server.predict_pose(0);
  EXPECT_DOUBLE_EQ(p.x, 0.0);
}

TEST(Server, BuildProblemUsesEstimates) {
  Server server(small_config(), 2);
  motion::Pose p;
  p.x = 1.0;
  p.y = 1.0;
  server.on_pose(0, 0, p);
  server.on_pose(1, 0, p);
  for (int i = 0; i < 50; ++i) {
    server.on_bandwidth_sample(0, 80.0);
    server.on_bandwidth_sample(1, 30.0);
  }
  const core::SlotProblem problem = server.build_problem(1);
  ASSERT_EQ(problem.users.size(), 2u);
  EXPECT_DOUBLE_EQ(problem.server_bandwidth, 200.0);
  EXPECT_NEAR(problem.users[0].user_bandwidth, 80.0, 1.0);
  EXPECT_NEAR(problem.users[1].user_bandwidth, 30.0, 1.0);
  // Rate tables populated and increasing.
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_GT(problem.users[0].rate[i], problem.users[0].rate[i - 1]);
    EXPECT_GE(problem.users[0].delay[i], problem.users[0].delay[i - 1]);
  }
}

TEST(Server, DeltaEstimateTracksCoverageFeedback) {
  Server server(small_config(), 1);
  motion::Pose p;
  server.on_pose(0, 0, p);
  for (int i = 0; i < 200; ++i) server.on_coverage_outcome(0, i % 2 == 0);
  const core::SlotProblem problem = server.build_problem(1);
  EXPECT_NEAR(problem.users[0].delta, 0.5, 0.05);
}

TEST(Server, QbarTracksDisplayedQuality) {
  Server server(small_config(), 1);
  motion::Pose p;
  server.on_pose(0, 0, p);
  server.on_displayed_quality(0, 4.0);
  server.on_displayed_quality(0, 0.0);  // miss counts as 0
  const core::SlotProblem problem = server.build_problem(3);
  EXPECT_DOUBLE_EQ(problem.users[0].qbar, 2.0);
}

TEST(Server, FallbackPrefetchAddsNextCellTiles) {
  ServerConfig config = small_config();
  config.fallback_prefetch = true;
  Server server(config, 1);
  // Feed a steady walk in +x so the predictor sees clear motion, and a
  // roomy bandwidth estimate so the headroom gate admits the fallback.
  for (std::size_t t = 0; t < 30; ++t) {
    motion::Pose p;
    p.x = 5.0 + 0.02 * static_cast<double>(t);
    p.y = 4.0;
    server.on_pose(0, t, p);
    server.on_bandwidth_sample(0, 100.0);
  }
  const TileRequest request = server.make_request(0, 4);
  ASSERT_FALSE(request.fallback_set.empty());
  const content::TileKey main_key =
      content::unpack_video_id(request.full_set.front());
  const content::TileKey fb_key =
      content::unpack_video_id(request.fallback_set.front());
  EXPECT_EQ(fb_key.level, 1);                       // lowest level
  EXPECT_EQ(fb_key.cell.gx, main_key.cell.gx + 1);  // one cell ahead in +x
  EXPECT_EQ(fb_key.cell.gy, main_key.cell.gy);
  // Fallback tiles are part of the transmitted set.
  EXPECT_GT(request.tiles.size(), request.full_set.size());
}

TEST(Server, FallbackPrefetchSkipsStationaryUser) {
  ServerConfig config = small_config();
  config.fallback_prefetch = true;
  Server server(config, 1);
  for (std::size_t t = 0; t < 30; ++t) {
    motion::Pose p;
    p.x = 5.0;
    p.y = 4.0;
    server.on_pose(0, t, p);
    server.on_bandwidth_sample(0, 100.0);
  }
  const TileRequest request = server.make_request(0, 3);
  EXPECT_TRUE(request.fallback_set.empty());
}

TEST(Server, FallbackPrefetchGatedWhenNoHeadroom) {
  ServerConfig config = small_config();
  config.fallback_prefetch = true;
  Server server(config, 1);
  for (std::size_t t = 0; t < 30; ++t) {
    motion::Pose p;
    p.x = 5.0 + 0.02 * static_cast<double>(t);
    p.y = 4.0;
    server.on_pose(0, t, p);
    server.on_bandwidth_sample(0, 25.0);  // tight link
  }
  const TileRequest request = server.make_request(0, 4);
  EXPECT_TRUE(request.fallback_set.empty());  // insurance skipped
}

// Regression: under the probing arm the passive EMA never gets a sample
// and sits at its 40 Mbps prior, so the headroom gate must read the
// probing estimate, which here says the link is tight.
TEST(Server, FallbackPrefetchGatedByProbingEstimate) {
  auto request_with_samples = [](double mbps) {
    ServerConfig config = small_config();
    config.fallback_prefetch = true;
    config.estimator_arm = EstimatorArm::kProbing;
    Server server(config, 1);
    for (std::size_t t = 0; t < 30; ++t) {
      motion::Pose p;
      p.x = 5.0 + 0.02 * static_cast<double>(t);
      p.y = 4.0;
      server.on_pose(0, t, p);
      server.on_bandwidth_sample(0, mbps);
    }
    return server.make_request(0, 1);
  };
  EXPECT_TRUE(request_with_samples(2.0).fallback_set.empty());
  EXPECT_FALSE(request_with_samples(100.0).fallback_set.empty());
}

bool same_pose(const motion::Pose& a, const motion::Pose& b) {
  const auto xa = a.as_array();
  const auto xb = b.as_array();
  for (std::size_t i = 0; i < xa.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(xa[i]) !=
        std::bit_cast<std::uint64_t>(xb[i])) {
      return false;
    }
  }
  return true;
}

motion::Pose walk_pose(std::size_t t, double speed) {
  motion::Pose p;
  p.x = 3.0 + speed * static_cast<double>(t);
  p.y = 4.0 - 0.5 * speed * static_cast<double>(t);
  p.yaw = 10.0 + 3.0 * static_cast<double>(t);
  return p;
}

// The per-slot pose memo never serves a prediction older than the
// predictor's newest observation.
TEST(ServerPoseMemo, OnPoseInvalidates) {
  const ServerConfig config = small_config();
  Server server(config, 1);
  motion::LinearMotionPredictor fresh(config.predictor);
  for (std::size_t t = 0; t < 25; ++t) {
    const motion::Pose p = walk_pose(t, 0.03);
    server.on_pose(0, t, p);
    fresh.observe(t, p);
    EXPECT_TRUE(same_pose(server.predict_pose(0), fresh.predict(2))) << t;
    EXPECT_TRUE(same_pose(server.predict_pose(0), fresh.predict(2))) << t;
  }
}

TEST(ServerPoseMemo, ImportHandoffInvalidates) {
  const ServerConfig config = small_config();
  Server source(config, 1);
  Server dest(config, 1);
  for (std::size_t t = 0; t < 10; ++t) {
    source.on_pose(0, t, walk_pose(t, 0.05));
    dest.on_pose(0, t, walk_pose(t, -0.04));
  }
  (void)dest.predict_pose(0);  // memoize the destination's old user
  const proto::UserHandoff frame = source.export_handoff(0, 10);
  dest.import_handoff(0, frame, 11);
  motion::LinearMotionPredictor fresh(config.predictor);
  fresh.observe(frame.pose_slot, frame.pose);
  EXPECT_TRUE(same_pose(dest.predict_pose(0), fresh.predict(2)));
}

TEST(ServerPoseMemo, ResetUserStartsWithoutMemo) {
  const ServerConfig config = small_config();
  Server server(config, 1);
  for (std::size_t t = 0; t < 10; ++t) server.on_pose(0, t, walk_pose(t, 0.05));
  (void)server.predict_pose(0);
  server.reset_user(0);
  EXPECT_TRUE(same_pose(server.predict_pose(0), motion::Pose{}));
  motion::LinearMotionPredictor fresh(config.predictor);
  server.on_pose(0, 20, walk_pose(20, 0.01));
  fresh.observe(20, walk_pose(20, 0.01));
  EXPECT_TRUE(same_pose(server.predict_pose(0), fresh.predict(2)));
}

TEST(ServerPoseMemo, PoseStaleHoldsLastPoseThenRecovers) {
  const ServerConfig config = small_config();
  Server server(config, 1);
  motion::LinearMotionPredictor fresh(config.predictor);
  for (std::size_t t = 0; t < 10; ++t) {
    server.on_pose(0, t, walk_pose(t, 0.05));
    fresh.observe(t, walk_pose(t, 0.05));
  }
  (void)server.build_problem(10);
  EXPECT_TRUE(same_pose(server.predict_pose(0), fresh.predict(2)));
  // Blackout: the pose watchdog trips and the persistence fallback
  // replaces the (memoized) regression.
  const std::size_t stale_slot = 10 + config.pose_staleness_slots + 1;
  (void)server.build_problem(stale_slot);
  EXPECT_TRUE(same_pose(server.predict_pose(0), walk_pose(9, 0.05)));
  // A fresh pose ends the blackout: the regression is back, refitted.
  server.on_pose(0, stale_slot, walk_pose(stale_slot, 0.05));
  fresh.observe(stale_slot, walk_pose(stale_slot, 0.05));
  (void)server.build_problem(stale_slot + 1);
  EXPECT_TRUE(same_pose(server.predict_pose(0), fresh.predict(2)));
}

TEST(ServerPoseMemo, NonFinitePoseIsDroppedLikeAMissedUpload) {
  // One server receives a poisoned pose at slot k, the other nothing;
  // their predictions must stay bit-identical for the rest of the run.
  const ServerConfig config = small_config();
  const double poisons[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  for (int field = 0; field < 6; ++field) {
    for (const double poison : poisons) {
      Server poisoned(config, 1);
      Server skipped(config, 1);
      const std::size_t k = 7;
      for (std::size_t t = 0; t < 30; ++t) {
        const motion::Pose p = walk_pose(t, 0.04);
        if (t == k) {
          auto bad = p.as_array();
          bad[static_cast<std::size_t>(field)] = poison;
          poisoned.on_pose(0, t, motion::Pose::from_array(bad));
        } else {
          poisoned.on_pose(0, t, p);
          skipped.on_pose(0, t, p);
        }
        (void)poisoned.build_problem(t + 1);
        (void)skipped.build_problem(t + 1);
        EXPECT_TRUE(
            same_pose(poisoned.predict_pose(0), skipped.predict_pose(0)))
            << "field " << field << " poison " << poison << " t " << t;
      }
      const motion::Pose last = poisoned.predict_pose(0);
      EXPECT_TRUE(std::isfinite(last.x) && std::isfinite(last.yaw));
    }
  }
}

TEST(ServerPoseMemo, MandatoryLoadMatchesUnmemoizedPredictions) {
  const ServerConfig config = small_config();
  Server server(config, 3);
  std::vector<motion::LinearMotionPredictor> fresh(
      3, motion::LinearMotionPredictor(config.predictor));
  const std::vector<std::size_t> members = {0, 1, 2};
  for (std::size_t t = 0; t < 12; ++t) {
    for (std::size_t u = 0; u < 3; ++u) {
      const motion::Pose p = walk_pose(t, 0.02 * static_cast<double>(u + 1));
      server.on_pose(u, t, p);
      fresh[u].observe(t, p);
    }
    double expected = 0.0;
    for (std::size_t u : members) {
      const motion::Pose predicted = fresh[u].predict(2);
      content::GridCell cell =
          content::cell_for_position(predicted.x, predicted.y);
      const auto& db = server.content_db().config();
      cell.gx = std::clamp(cell.gx, 0, db.grid_width - 1);
      cell.gy = std::clamp(cell.gy, 0, db.grid_height - 1);
      expected += server.content_db().cell_content(cell).rate[0];
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(server.mandatory_load(members)),
              std::bit_cast<std::uint64_t>(expected))
        << t;
  }
}

TEST(Server, MakeRequestReturnsPredictedFovTiles) {
  Server server(small_config(), 1);
  motion::Pose p;
  p.x = 5.0;
  p.y = 4.0;
  p.yaw = -90.0;
  p.pitch = 40.0;
  server.on_pose(0, 0, p);
  const TileRequest request = server.make_request(0, 4);
  EXPECT_EQ(request.level, 4);
  EXPECT_FALSE(request.full_set.empty());
  EXPECT_EQ(request.tiles.size(), request.full_set.size());  // nothing delivered yet
  EXPECT_GT(request.demand_mbps, 0.0);
  for (content::VideoId vid : request.full_set) {
    EXPECT_EQ(content::unpack_video_id(vid).level, 4);
  }
}

TEST(Server, RepetitionSuppressionShrinksSecondRequest) {
  Server server(small_config(), 1);
  motion::Pose p;
  p.x = 5.0;
  p.y = 4.0;
  server.on_pose(0, 0, p);
  const TileRequest first = server.make_request(0, 3);
  server.on_delivery_acks(0, first.tiles);
  const TileRequest second = server.make_request(0, 3);
  EXPECT_TRUE(second.tiles.empty());
  EXPECT_DOUBLE_EQ(second.demand_mbps, 0.0);
  EXPECT_EQ(second.full_set.size(), first.full_set.size());
}

TEST(Server, ReleaseAcksReenableTransmission) {
  Server server(small_config(), 1);
  motion::Pose p;
  p.x = 5.0;
  p.y = 4.0;
  server.on_pose(0, 0, p);
  const TileRequest first = server.make_request(0, 3);
  server.on_delivery_acks(0, first.tiles);
  server.on_release_acks(0, first.tiles);
  const TileRequest third = server.make_request(0, 3);
  EXPECT_EQ(third.tiles.size(), first.tiles.size());
}

TEST(Server, LevelChangeRequiresRetransmission) {
  Server server(small_config(), 1);
  motion::Pose p;
  p.x = 5.0;
  p.y = 4.0;
  server.on_pose(0, 0, p);
  const TileRequest q3 = server.make_request(0, 3);
  server.on_delivery_acks(0, q3.tiles);
  const TileRequest q4 = server.make_request(0, 4);
  EXPECT_EQ(q4.tiles.size(), q4.full_set.size());
}

TEST(Server, MakeRequestRejectsBadLevel) {
  Server server(small_config(), 1);
  EXPECT_THROW(server.make_request(0, 0), std::out_of_range);
  EXPECT_THROW(server.make_request(0, 7), std::out_of_range);
}

TEST(Server, DelaySamplesTrainPredictor) {
  Server server(small_config(), 1);
  motion::Pose p;
  server.on_pose(0, 0, p);
  // Feed a steep measured curve; the problem's delay table must reflect
  // the learned polynomial rather than the analytic fallback.
  for (int i = 0; i < 50; ++i) {
    const double r = 10.0 + i;
    server.on_delay_sample(0, r, 0.1 * r * r);
  }
  for (int i = 0; i < 50; ++i) server.on_bandwidth_sample(0, 60.0);
  const core::SlotProblem problem = server.build_problem(1);
  // rate(3) ~ 29.9 -> learned delay ~ 0.1 * 29.9^2 ~ 89.
  EXPECT_NEAR(problem.users[0].delay[2],
              0.1 * problem.users[0].rate[2] * problem.users[0].rate[2],
              5.0);
}

TEST(Server, CacheAdvancesWithRequests) {
  Server server(small_config(), 1);
  motion::Pose p;
  p.x = 5.0;
  p.y = 4.0;
  server.on_pose(0, 0, p);
  server.make_request(0, 3);
  EXPECT_GT(server.cache(0).size(), 0u);
}

TEST(Server, LossAwareProblemCarriesFrameLossTable) {
  ServerConfig config = small_config();
  config.loss_aware = true;
  Server server(config, 1);
  motion::Pose p;
  server.on_pose(0, 0, p);
  for (int i = 0; i < 100; ++i) {
    server.on_bandwidth_sample(0, 50.0);
    server.on_loss_sample(0, i / 100.0, 0.002 + 0.05 * (i / 100.0));
  }
  const core::SlotProblem problem = server.build_problem(1);
  ASSERT_EQ(problem.users[0].frame_loss.size(), 6u);
  // Higher levels induce higher utilisation -> higher frame loss.
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_GE(problem.users[0].frame_loss[i],
              problem.users[0].frame_loss[i - 1] - 1e-12);
  }
  EXPECT_GT(problem.users[0].frame_loss[5], 0.0);
  EXPECT_LT(problem.users[0].frame_loss[0], 1.0);
}

TEST(Server, PublishedModeHasNoFrameLossTable) {
  Server server(small_config(), 1);
  motion::Pose p;
  server.on_pose(0, 0, p);
  const core::SlotProblem problem = server.build_problem(1);
  EXPECT_TRUE(problem.users[0].frame_loss.empty());
}

TEST(Server, TransmitFractionLearnsRepetitionSavings) {
  // A stationary user: after the first delivery every later request is
  // fully suppressed, so the learned transmit fraction decays toward 0,
  // shrinking the loss-aware packet estimates.
  ServerConfig config = small_config();
  config.loss_aware = true;
  Server server(config, 1);
  motion::Pose p;
  p.x = 5.0;
  p.y = 4.0;
  server.on_pose(0, 0, p);
  for (int i = 0; i < 100; ++i) server.on_bandwidth_sample(0, 60.0);
  for (int i = 0; i < 60; ++i) {
    const TileRequest request = server.make_request(0, 3);
    server.on_delivery_acks(0, request.tiles);
    server.on_loss_sample(0, 0.5, 0.02);
  }
  const core::SlotProblem problem = server.build_problem(61);
  // With a ~0.05 learned transmit fraction, only a handful of packets
  // are at risk: the level-6 frame-loss estimate collapses far below
  // the full-frame figure (1 - 0.98^143 ~ 0.94 at this loss rate).
  EXPECT_LT(problem.users[0].frame_loss[5], 0.3);
}

TEST(Server, RepetitionSuppressionOffResendsEverything) {
  ServerConfig config = small_config();
  config.repetition_suppression = false;
  Server server(config, 1);
  motion::Pose p;
  p.x = 5.0;
  p.y = 4.0;
  server.on_pose(0, 0, p);
  const TileRequest first = server.make_request(0, 3);
  server.on_delivery_acks(0, first.tiles);
  const TileRequest second = server.make_request(0, 3);
  EXPECT_EQ(second.tiles.size(), second.full_set.size());
  EXPECT_GT(second.demand_mbps, 0.0);
}

TEST(Server, OutOfRangeUserThrows) {
  Server server(small_config(), 2);
  EXPECT_THROW(server.predict_pose(5), std::out_of_range);
  EXPECT_THROW(server.on_bandwidth_sample(5, 10.0), std::out_of_range);
}

}  // namespace
}  // namespace cvr::system
