// fleet_failover_1k: FleetSim with K=8 servers, sharded-hash assignment,
// equal budget split and dv; 1024 users behind 128 setup-1 routers; server
// 1 crashes for the middle third of the run, then recovers.
//
// End-to-end run: FleetSim::run with a pass-through allocator (set-up
// time, slot cadence). Traced run: additionally the allocator times each
// solve and a telemetry::Collector reads the engine's own phases.
#include <cmath>
#include <string>
#include <vector>

#include "src/core/registry.h"
#include "src/fleet/fleet_sim.h"
#include "src/system/slot_pipeline.h"
#include "src/telemetry/telemetry.h"
#include "src/util/units.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cvr;

fleet::FleetConfig fleet_config(const Options& options) {
  const std::size_t users = options.smoke ? 64 : 1024;
  fleet::FleetConfig config;
  config.base = system::setup_one_router(users);
  config.base.routers = users / 8;  // 8 users per 400 Mbps router
  config.base.slots = options.smoke ? 30 : 300;
  config.base.seed = engine_seed(options.seed);
  config.base.allocator_threads = 0;
  faults::FaultEvent crash;
  crash.type = faults::FaultType::kServerCrash;
  crash.target = 1;
  crash.start_slot = config.base.slots / 3;
  crash.duration_slots = config.base.slots / 3;
  config.base.faults.add(crash);
  config.servers = 8;
  config.assignment = fleet::AssignmentMode::kShardedHash;
  config.budget = fleet::BudgetPolicy::kEqual;
  config.backhaul_mbps = 0.0;  // derived from the routers
  config.threads = 1;
  return config;
}

std::unique_ptr<core::Allocator> dv() {
  return core::make_allocator("dv", core::AllocatorContext::kSystem);
}

Fingerprint fingerprint_of(const fleet::FleetRunResult& result) {
  Fingerprint f;
  for (const auto& outcome : result.outcomes) f.add(outcome);
  const fleet::FleetStats& s = result.stats;
  for (const std::size_t v :
       {s.crashes, s.recoveries, s.migrations, s.handoff_frames,
        s.retry_attempts, s.rejects, s.affected_users, s.reabsorbed_users,
        s.lost_users, s.max_reabsorb_slots}) {
    f.add(static_cast<std::uint64_t>(v));
  }
  f.add(s.reabsorbed_fraction);
  f.add(s.mean_reabsorb_slots);
  for (const auto& server : s.per_server) {
    f.add(static_cast<std::uint64_t>(server.served_user_slots));
    f.add(server.mean_budget_mbps);
    f.add(server.mean_utilization);
  }
  return f;
}

/// The failover accounting must close: every affected user is
/// reabsorbed, lost, or still pending, and pending users can only remain
/// when the run ended before the retry timeout could expire.
void check_accounting(const fleet::FleetConfig& config,
                      const fleet::FleetRunResult& result, RunReport& report) {
  const fleet::FleetStats& s = result.stats;
  report.check(s.reabsorbed_users + s.lost_users <= s.affected_users,
               "fleet: reabsorbed + lost exceeds affected users");
  const std::size_t pending = s.affected_users - s.reabsorbed_users - s.lost_users;
  const std::size_t crash_slot = config.base.slots / 3;
  if (config.base.slots - 1 - crash_slot > config.backoff.timeout_slots) {
    report.check(pending == 0, "fleet: orphans still pending after the timeout");
  }
  double migrations = 0.0;
  for (const auto& o : result.outcomes) migrations += o.migrations;
  report.check(static_cast<std::size_t>(migrations) == s.migrations &&
                   s.migrations == s.reabsorbed_users,
               "fleet: per-user migrations do not add up to the reabsorbed users");
  report.check(s.reabsorbed_fraction >= 0.0 && s.reabsorbed_fraction <= 1.0,
               "fleet: reabsorbed fraction outside [0, 1]");
  report.check(s.crashes == 1 && s.affected_users > 0,
               "fleet: the scripted crash orphaned nobody");
}

struct Episode {
  fleet::FleetRunResult result;
  double setup_s = 0.0;
  std::vector<double> slot_s;
};

Episode run_engine(const fleet::FleetSim& sim, PassThroughAllocator& allocator,
                   telemetry::Collector* collector) {
  Episode episode;
  allocator.arm();
  episode.result = sim.run(allocator, 0, nullptr, collector);
  episode.setup_s = allocator.setup_seconds();
  episode.slot_s = allocator.slot_seconds();
  return episode;
}

double phase_us(const telemetry::MetricsSnapshot& snap, telemetry::Phase phase) {
  const auto it = snap.histograms.find(telemetry::phase_histogram_name(phase));
  return it == snap.histograms.end() ? 0.0 : it->second.sum;
}

}  // namespace

void run_fleet_failover(const Options& options, RunReport& report) {
  const fleet::FleetConfig config = fleet_config(options);
  const fleet::FleetSim sim(config);
  PassThroughAllocator allocator(dv());

  std::vector<Episode> episodes;
  episodes.push_back(run_engine(sim, allocator, nullptr));
  ++report.attempted;
  const fleet::FleetRunResult reference = episodes.front().result;
  const std::string reference_hex = fingerprint_of(reference).hex();
  report.fingerprint = reference_hex;
  check_accounting(config, reference, report);

  // The pass-through allocator must be inert. Checked on the smoke-size
  // fleet, which runs the same code paths in a fraction of the time.
  {
    Options small = options;
    small.smoke = true;
    const fleet::FleetSim small_sim(fleet_config(small));
    PassThroughAllocator wrapped(dv());
    auto bare = dv();
    ++report.attempted;
    report.check(fingerprint_of(small_sim.run(wrapped, 0)).hex() ==
                     fingerprint_of(small_sim.run(*bare, 0)).hex(),
                 "fleet: outcomes differ with the pass-through allocator");
  }

  double qoe_sum = 0.0;
  double frames = 0.0;
  for (const auto& o : reference.outcomes) {
    qoe_sum += o.avg_qoe;
    frames += std::round(o.fps * static_cast<double>(config.base.slots) *
                         cvr::kSlotSeconds);
  }
  const double users = static_cast<double>(config.base.users);
  const double miss_rate =
      1.0 - frames / (users * static_cast<double>(config.base.slots));
  report.check(miss_rate >= 0.0 && miss_rate <= 1.0,
               "fleet: miss rate outside [0, 1]");

  // Traced-run instruments: solve timing plus the engine's own phases.
  PassThroughAllocator timed(dv(), /*time_solves=*/true);
  telemetry::MetricsRegistry registry;
  telemetry::Collector collector(telemetry::Mode::kCounters, &registry);
  std::vector<double> traced_rate;
  std::vector<double> solve_s;
  std::vector<double> worlds_s;
  std::size_t traced_slots = 0;
  std::size_t traced_passes = 0;

  const double start = now_s();
  std::size_t pass = 1;
  while (pass < 3 || now_s() - start < options.seconds) {
    const bool traced_pass = options.trace && pass % 2 == 1;
    ++report.attempted;
    if (!traced_pass) {
      episodes.push_back(run_engine(sim, allocator, nullptr));
      report.check(fingerprint_of(episodes.back().result).hex() == reference_hex,
                   "fleet: a pass did not reproduce its outcomes");
    } else {
      const Episode traced = run_engine(sim, timed, &collector);
      report.check(fingerprint_of(traced.result).hex() == reference_hex,
                   "fleet: traced outcomes differ from untraced ones");
      solve_s.insert(solve_s.end(), timed.solve_seconds().begin(),
                     timed.solve_seconds().end());
      traced_rate.push_back(slots_per_second(traced.slot_s));
      traced_slots += traced.slot_s.size();
      ++traced_passes;
      const double worlds_start = now_s();
      const auto worlds = system::build_user_worlds(config.base, 0);
      worlds_s.push_back(now_s() - worlds_start);
    }
    ++pass;
  }

  std::vector<double> setup_s;
  std::vector<double> rate;
  std::vector<std::vector<double>> passes;
  for (const Episode& e : episodes) {
    setup_s.push_back(e.setup_s);
    rate.push_back(slots_per_second(e.slot_s));
    passes.push_back(e.slot_s);
  }

  if (!options.trace) {
    report.set("setup_s", median(setup_s));
    report.set("slots_per_s", median(rate));
    report.set("slot_p50_us", pass_quantile(passes, 0.50) * 1e6);
    report.set("slot_p99_us", pass_quantile(passes, 0.99) * 1e6);
    report.set("qoe_mean", qoe_sum / users);
    report.set("miss_rate", miss_rate);
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  using telemetry::Phase;
  const auto snap = registry.snapshot();
  const double per_slot = 1.0 / static_cast<double>(traced_slots);
  const double slot_us = phase_us(snap, Phase::kSlot);
  double named_us = 0.0;
  const auto set_phase = [&](const char* name, Phase phase) {
    const double us = phase_us(snap, phase);
    named_us += us;
    report.set(name, us * per_slot);
  };
  set_phase("system.pose_ingest_us", Phase::kPoseIngest);
  set_phase("system.problem_build_us", Phase::kProblemBuild);
  named_us += phase_us(snap, Phase::kAllocSolve);
  set_phase("content.tile_request_us", Phase::kContentFetch);
  set_phase("net.transport_us", Phase::kTransport);
  set_phase("motion.predict_us", Phase::kPredict);
  set_phase("system.decode_us", Phase::kDecode);
  set_phase("system.feedback_us", Phase::kFeedback);
  report.set("fleet.control_us", (slot_us - named_us) * per_slot);
  report.set("bench.unattributed_share", (slot_us - named_us) / slot_us);
  report.set("core.alloc_solve_us", mean(solve_s) * 1e6);
  report.set("core.alloc_solve_p99_us", quantile(solve_s, 0.99) * 1e6);
  report.set("core.alloc_calls", static_cast<double>(solve_s.size()) /
                                     static_cast<double>(traced_passes));
  report.set("setup.user_worlds_us", median(worlds_s) * 1e6);
  report.set("bench.trace_overhead", 1.0 - median(traced_rate) / median(rate));

  const double user_slots =
      static_cast<double>(traced_passes) * users *
      static_cast<double>(config.base.slots);
  const double sent = static_cast<double>(snap.counter_or("packets_sent"));
  report.set("net.packet_loss_ratio",
             sent > 0.0 ? static_cast<double>(snap.counter_or("packets_lost")) / sent
                        : 0.0);
  report.set("system.coverage_hit_ratio",
             static_cast<double>(snap.counter_or("coverage_hits")) / user_slots);
  report.set("system.frames_on_time_ratio",
             static_cast<double>(snap.counter_or("frames_on_time")) / user_slots);

  const fleet::FleetStats& s = reference.stats;
  report.set("fleet.affected_users", static_cast<double>(s.affected_users));
  report.set("fleet.reabsorbed_fraction", s.reabsorbed_fraction);
  report.set("fleet.lost_users", static_cast<double>(s.lost_users));
  report.set("fleet.handoff_frames", static_cast<double>(s.handoff_frames));
  report.set("fleet.retry_attempts", static_cast<double>(s.retry_attempts));
  report.set("fleet.mean_reabsorb_slots", s.mean_reabsorb_slots);
  report.set("machine.calib_us", calibration_us());
}

}  // namespace perfbench
