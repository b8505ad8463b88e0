// paper_system: SystemSim in the paper's fig. 7 setup 1 (8 users on one
// 400 Mbps router, Pixel 6/5/4 mix, dv allocator, no faults).
//
// End-to-end run: SystemSim::run with a pass-through allocator that
// stamps set-up time and slot cadence. Traced run: the same slot loop
// rebuilt here from the public slot_pipeline helpers with a span around
// every call, checked bit for bit against SystemSim::run.
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/registry.h"
#include "src/core/slot_arena.h"
#include "src/system/slot_pipeline.h"
#include "src/system/system_sim.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"
#include "src/util/units.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cvr;

// One pass: 20 repeats of fig. 7's 30 s run (4x the paper's 5), enough
// that the frame-miss rate varies little from seed to seed.
constexpr std::size_t kRepeats = 20;

system::SystemSimConfig paper_config(const Options& options) {
  system::SystemSimConfig config = system::setup_one_router(8);
  config.slots = options.smoke ? 120 : 1980;
  config.seed = engine_seed(options.seed);
  config.allocator_threads = 0;
  return config;
}

std::unique_ptr<core::Allocator> dv() {
  return core::make_allocator("dv", core::AllocatorContext::kSystem);
}

/// One SystemSim::run, timed from the outside.
struct Episode {
  std::vector<sim::UserOutcome> outcomes;
  double setup_s = 0.0;
  std::vector<double> slot_s;
};

Episode run_engine(const system::SystemSim& sim, PassThroughAllocator& allocator,
                   std::size_t repeat) {
  Episode episode;
  allocator.arm();
  episode.outcomes = sim.run(allocator, repeat);
  episode.setup_s = allocator.setup_seconds();
  episode.slot_s = allocator.slot_seconds();
  return episode;
}

enum SpanName : std::uint32_t {
  kSlot,
  kStepRouters,
  kPoseIngest,
  kProblemBuild,
  kAllocSolve,
  kTileRequest,
  kServeRouters,
  kServeUser,
  kSetupAccess,
  kSetupServer,
  kSetupWorlds,
  kSpanCount,
};

std::vector<std::string> span_names() {
  return {"slot",
          "net.step_routers",
          "system.pose_ingest",
          "system.problem_build",
          "core.alloc_solve",
          "content.tile_request",
          "net.serve_routers",
          "system.serve_user",
          "setup.access_network",
          "setup.server_ctor",
          "setup.user_worlds"};
}

/// What one traced repeat measured beyond its spans.
struct TracedStats {
  std::vector<double> decision_s;
  std::uint64_t tiles = 0;
  std::uint64_t full_set_tiles = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
};

/// SystemSim::run's slot loop rebuilt from the public helpers, with a
/// span around each call. Must produce SystemSim::run's outcomes bit for
/// bit; `skip_pose` drops one upload to prove that check bites.
std::vector<sim::UserOutcome> run_traced(const system::SystemSimConfig& config,
                                         core::Allocator& allocator,
                                         std::size_t repeat,
                                         telemetry::Collector* collector,
                                         SpanRecorder& rec, TracedStats& stats,
                                         bool skip_pose) {
  if (config.online_rendering || config.allocator_threads != 0) {
    throw std::logic_error("traced loop covers the fig. 7 configuration only");
  }
  const std::size_t n_users = config.users;
  const faults::FaultSchedule& faults = config.faults;
  allocator.reset();
  allocator.set_thread_pool(nullptr);

  cvr::SplitMix64 mixer(config.seed ^
                        (0x5957E3Cull + repeat * 0x9E3779B97F4A7C15ull));
  cvr::Rng rng(mixer.next());

  std::uint32_t span = rec.begin(kSetupAccess);
  system::AccessNetwork net = system::build_access_network(config, repeat, rng);
  rec.end(span);
  span = rec.begin(kSetupServer);
  system::Server server(system::derive_server_config(config), n_users);
  rec.end(span);
  span = rec.begin(kSetupWorlds);
  std::vector<system::UserWorld> worlds =
      system::build_user_worlds(config, repeat);
  rec.end(span);

  system::SlotContext ctx;
  ctx.config = &config;
  ctx.server = &server;
  ctx.unmargined = system::derive_server_config(config).fov;
  ctx.unmargined.margin_deg = 0.0;
  ctx.telemetry = collector;
  ctx.rng = &rng;

  core::SlotArena arena;
  core::Allocation allocation;
  std::vector<system::TileRequest> requests;
  requests.reserve(n_users);
  std::vector<double> granted;
  for (std::size_t t = 0; t < config.slots; ++t) {
    const std::int64_t slot_index = static_cast<std::int64_t>(t);
    const std::uint32_t slot = rec.begin(kSlot);
    span = rec.begin(kStepRouters, slot);
    system::step_routers(net, faults, t);
    rec.end(span);
    if (faults.cache_flush_at(t)) server.flush_caches();

    double decision_start = 0.0;
    if (t >= 1 && (t - 1) % config.pose_upload_period == 0) {
      for (std::size_t u = 0; u < n_users; ++u) {
        if (faults.user_disconnected(u, t) || faults.pose_blackout(u, t)) {
          continue;
        }
        if (skip_pose && u == 0 && t == 5) continue;
        span = rec.begin(kPoseIngest, slot);
        if (decision_start == 0.0) decision_start = rec.spans()[span].start;
        system::upload_pose(server, worlds[u], u, t, collector);
        rec.end(span);
      }
    }

    core::SlotProblem& problem = arena.acquire(n_users);
    span = rec.begin(kProblemBuild, slot);
    if (decision_start == 0.0) decision_start = rec.spans()[span].start;
    server.build_problem_into(t + 1, problem);
    rec.end(span);
    span = rec.begin(kAllocSolve, slot);
    allocator.allocate_into(problem, allocation);
    double decision_end = rec.end(span);
    if (allocation.levels.size() != n_users) {
      throw std::logic_error("allocator returned wrong level count");
    }

    // Releasing last slot's requests is the tile-request layer's cost.
    span = rec.begin(kTileRequest, slot);
    requests.clear();
    rec.end(span);
    for (std::size_t u = 0; u < n_users; ++u) {
      if (faults.user_disconnected(u, t)) {
        system::TileRequest idle;
        idle.level = allocation.levels[u];
        requests.push_back(std::move(idle));
        continue;
      }
      span = rec.begin(kTileRequest, slot);
      requests.push_back(server.make_request(u, allocation.levels[u]));
      decision_end = rec.end(span);
    }

    span = rec.begin(kServeRouters, slot);
    granted = system::serve_routers(net, requests, collector, slot_index);
    rec.end(span);

    for (std::size_t u = 0; u < n_users; ++u) {
      span = rec.begin(kServeUser, slot);
      const core::UserSlotContext& user = problem.users[u];
      if (faults.user_disconnected(u, t)) {
        system::serve_absent_user(ctx, u, t, worlds[u], allocation.levels[u],
                                  user.delta, user.user_bandwidth);
      } else {
        system::serve_connected_user(
            ctx, u, t, worlds[u], requests[u], allocation.levels[u], granted[u],
            system::router_capacity_for(net, u), faults.ack_stalled(u, t),
            faults.any_fault_for_user(u, net.router_of[u], t), user.delta,
            user.user_bandwidth);
      }
      rec.end(span);
    }
    rec.end(slot);

    stats.decision_s.push_back(decision_end - decision_start);
    for (const system::TileRequest& request : requests) {
      stats.tiles += request.tiles.size();
      stats.full_set_tiles += request.full_set.size();
    }
  }

  for (std::size_t u = 0; u < n_users; ++u) {
    stats.cache_hits += server.cache(u).hits();
    stats.cache_lookups += server.cache(u).hits() + server.cache(u).misses();
  }
  std::vector<sim::UserOutcome> outcomes;
  outcomes.reserve(n_users);
  for (auto& world : worlds) {
    outcomes.push_back(system::finalize_user_outcome(world, config));
  }
  return outcomes;
}

}  // namespace

void run_paper_system(const Options& options, RunReport& report) {
  const system::SystemSimConfig config = paper_config(options);
  const system::SystemSim sim(config);
  PassThroughAllocator allocator(dv());

  // The reference pass: SystemSim::run through the pass-through
  // allocator. Every later pass must reproduce it bit for bit.
  std::vector<std::vector<sim::UserOutcome>> reference;
  std::vector<Episode> episodes;
  Fingerprint fingerprint;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    episodes.push_back(run_engine(sim, allocator, r));
    ++report.attempted;
    for (const auto& outcome : episodes.back().outcomes) fingerprint.add(outcome);
    reference.push_back(episodes.back().outcomes);
  }
  report.fingerprint = fingerprint.hex();

  // The pass-through allocator must be inert.
  {
    auto bare = dv();
    ++report.attempted;
    report.check(same_outcomes(sim.run(*bare, 0), reference[0]),
                 "paper_system: outcomes differ with the pass-through allocator");
  }

  // Outcome metrics and their invariants.
  double qoe_sum = 0.0;
  double frames = 0.0;
  std::size_t user_runs = 0;
  for (const auto& outcomes : reference) {
    for (const auto& o : outcomes) {
      qoe_sum += o.avg_qoe;
      frames += std::round(o.fps * static_cast<double>(config.slots) *
                           cvr::kSlotSeconds);
      ++user_runs;
    }
  }
  const double user_slots =
      static_cast<double>(user_runs) * static_cast<double>(config.slots);
  const double miss_rate = 1.0 - frames / user_slots;
  report.check(miss_rate >= 0.0 && miss_rate <= 1.0,
               "paper_system: miss rate outside [0, 1]");

  // Timed passes until the budget is spent; in a traced run they
  // alternate with traced passes of the rebuilt loop.
  auto dv_traced = dv();
  telemetry::MetricsRegistry registry;
  telemetry::Collector collector(telemetry::Mode::kCounters, &registry);
  SpanRecorder rec(span_names());
  SpanRecorder first_trace(span_names());
  TracedStats stats;
  std::vector<double> self_sum(kSpanCount, 0.0);
  std::vector<double> traced_rate;
  std::vector<double> solve_s;
  std::size_t traced_slots = 0;
  std::size_t traced_repeats = 0;

  const double start = now_s();
  std::size_t pass = 1;
  while (pass < 3 || now_s() - start < options.seconds) {
    const bool traced_pass = options.trace && pass % 2 == 1;
    for (std::size_t r = 0; r < kRepeats; ++r) {
      ++report.attempted;
      if (!traced_pass) {
        episodes.push_back(run_engine(sim, allocator, r));
        report.check(same_outcomes(episodes.back().outcomes, reference[r]),
                     "paper_system: a repeat did not reproduce its outcomes");
        continue;
      }
      rec.clear();
      rec.reserve(config.slots * (4 + 3 * config.users) + 3);
      const auto outcomes =
          run_traced(config, *dv_traced, r, &collector, rec, stats,
                     options.perturb == "skip_upload_pose");
      report.check(same_outcomes(outcomes, reference[r]),
                   "paper_system: traced loop differs from SystemSim::run");
      const std::vector<double> self = rec.self_seconds();
      for (std::size_t i = 0; i < kSpanCount; ++i) self_sum[i] += self[i];
      std::vector<double> slot_s;
      for (const auto& s : rec.spans()) {
        if (s.name == kSlot) slot_s.push_back(s.end - s.start);
        if (s.name == kAllocSolve) solve_s.push_back(s.end - s.start);
      }
      traced_rate.push_back(slots_per_second(slot_s));
      traced_slots += slot_s.size();
      ++traced_repeats;
      if (first_trace.spans().empty()) first_trace = rec;
    }
    ++pass;
  }

  // Untraced passes hold kRepeats episodes each, in repeat order.
  std::vector<double> setup_s;
  std::vector<double> rate;
  std::vector<std::vector<double>> passes;
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const Episode& e = episodes[i];
    setup_s.push_back(e.setup_s);
    rate.push_back(slots_per_second(e.slot_s));
    if (i % kRepeats == 0) passes.emplace_back();
    passes.back().insert(passes.back().end(), e.slot_s.begin(), e.slot_s.end());
  }

  if (!options.trace) {
    report.set("setup_s", median(setup_s));
    report.set("slots_per_s", median(rate));
    report.set("slot_p50_us", pass_quantile(passes, 0.50) * 1e6);
    report.set("slot_p99_us", pass_quantile(passes, 0.99) * 1e6);
    report.set("qoe_mean", qoe_sum / static_cast<double>(user_runs));
    report.set("miss_rate", miss_rate);
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  const double per_slot = 1e6 / static_cast<double>(traced_slots);
  report.set("net.step_routers_us", self_sum[kStepRouters] * per_slot);
  report.set("system.pose_ingest_us", self_sum[kPoseIngest] * per_slot);
  report.set("system.problem_build_us", self_sum[kProblemBuild] * per_slot);
  report.set("core.alloc_solve_us", mean(solve_s) * 1e6);
  report.set("core.alloc_solve_p99_us", quantile(solve_s, 0.99) * 1e6);
  report.set("core.alloc_calls",
             static_cast<double>(kRepeats * config.slots));
  report.set("content.tile_request_us", self_sum[kTileRequest] * per_slot);
  report.set("net.serve_routers_us", self_sum[kServeRouters] * per_slot);
  report.set("system.serve_user_us", self_sum[kServeUser] * per_slot);
  report.set("system.decision_p50_us", quantile(stats.decision_s, 0.50) * 1e6);
  report.set("system.decision_p99_us", quantile(stats.decision_s, 0.99) * 1e6);
  const double per_repeat = 1e6 / static_cast<double>(traced_repeats);
  report.set("setup.access_network_us", self_sum[kSetupAccess] * per_repeat);
  report.set("setup.server_ctor_us", self_sum[kSetupServer] * per_repeat);
  report.set("setup.user_worlds_us", self_sum[kSetupWorlds] * per_repeat);

  double slot_total = 0.0;
  for (std::size_t i = 0; i < kSetupAccess; ++i) slot_total += self_sum[i];
  report.set("bench.unattributed_share", self_sum[kSlot] / slot_total);
  report.set("bench.trace_overhead", 1.0 - median(traced_rate) / median(rate));

  const auto counters = registry.snapshot();
  const double traced_user_slots =
      static_cast<double>(traced_slots) * static_cast<double>(config.users);
  const double sent = static_cast<double>(counters.counter_or("packets_sent"));
  report.set("content.repetition_suppressed_ratio",
             1.0 - static_cast<double>(stats.tiles) /
                       static_cast<double>(stats.full_set_tiles));
  report.set("content.cache_hit_ratio",
             static_cast<double>(stats.cache_hits) /
                 static_cast<double>(stats.cache_lookups));
  report.set("net.packet_loss_ratio",
             sent > 0.0 ? static_cast<double>(counters.counter_or("packets_lost")) / sent
                        : 0.0);
  report.set("system.coverage_hit_ratio",
             static_cast<double>(counters.counter_or("coverage_hits")) /
                 traced_user_slots);
  report.set("system.frames_on_time_ratio",
             static_cast<double>(counters.counter_or("frames_on_time")) /
                 traced_user_slots);
  report.set("machine.calib_us", calibration_us());

  if (!options.trace_dir.empty()) {
    first_trace.write_csv(options.trace_dir + "/paper_system.spans.csv");
  }
}

}  // namespace perfbench
