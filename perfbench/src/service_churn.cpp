// service_churn_256: LoadServer as an open loop, peaks arrivals at load
// 0.9, capacity 256, B = 50 Mbps x capacity, connect_speed 2000/s, run for
// its arrival horizon plus drain. Content, motion and the router path are
// bypassed; the population changes almost every slot.
//
// LoadServer builds its own allocator, so no pass-through allocator can
// stamp its slots. Its only per-slot clock is its own phase spans: every
// other pass runs with a trace-mode telemetry::Collector, whose span
// start times give the slot cadence and whose phases give the per-layer
// split. Throughput comes from the passes without one.
#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/system/load_server.h"
#include "src/telemetry/telemetry.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cvr;

constexpr std::size_t kCapacity = 256;
constexpr std::size_t kEpisodes = 4;  // independent traffic seeds per pass

system::LoadServiceConfig service_config(const Options& options,
                                         std::size_t episode) {
  system::LoadServiceConfig config;
  config.traffic.shape = sim::TrafficShape::kPeaks;
  config.traffic.load = 0.9;
  config.traffic.connect_speed = 2000.0;
  config.traffic.seed = engine_seed(options.seed, episode);
  // One-second sessions: the population turns over every slot and each
  // arrival peak overflows the 256 user slots, so admission rejects a
  // steady share of sessions instead of a handful in some seeds only.
  config.traffic.mean_session_slots = 66.0;
  config.capacity_users = options.smoke ? 32 : kCapacity;
  config.server_bandwidth_mbps =
      50.0 * static_cast<double>(config.capacity_users);
  config.allocator = "dv";
  config.allocator_threads = 0;
  return config;
}

std::size_t horizon(const Options& options) { return options.smoke ? 300 : 4000; }

void add_report(Fingerprint& f, const system::LoadServiceReport& r) {
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(r.horizon_slots),
        static_cast<std::uint64_t>(r.drain_slots),
        static_cast<std::uint64_t>(r.drained), r.offered, r.admitted,
        r.degraded, r.rejected, static_cast<std::uint64_t>(r.peak_active_users),
        static_cast<std::uint64_t>(r.peak_queue_depth), r.delay_samples,
        r.deadline_misses, static_cast<std::uint64_t>(r.slo_met),
        r.completed_sessions}) {
    f.add(v);
  }
  for (const double v :
       {r.reject_rate, r.mean_active_users, r.mean_queue_depth, r.mean_delay_ms,
        r.p99_delay_ms, r.sustained_users, r.mean_session_qoe}) {
    f.add(v);
  }
}

bool same_report(const system::LoadServiceReport& a,
                 const system::LoadServiceReport& b) {
  Fingerprint fa;
  Fingerprint fb;
  add_report(fa, a);
  add_report(fb, b);
  return fa.hex() == fb.hex();
}

void check_report(const system::LoadServiceReport& r, RunReport& report) {
  report.check(r.offered == r.admitted + r.degraded + r.rejected,
               "service: admission funnel does not add up");
  report.check(r.drained, "service: the drain phase did not empty the server");
  report.check(r.reject_rate >= 0.0 && r.reject_rate <= 1.0,
               "service: reject rate outside [0, 1]");
  report.check(r.deadline_misses <= r.delay_samples,
               "service: more deadline misses than delay samples");
}

/// Slot durations from one traced episode: a slot starts at its first
/// span (admission during the arrival horizon, problem build while
/// draining) and ends where the next one starts.
std::vector<double> slot_seconds(const telemetry::TraceBuffer& trace) {
  std::map<std::int64_t, std::pair<double, double>> bounds;  // start, end
  for (const telemetry::TraceEvent& e : trace.events()) {
    auto [it, inserted] =
        bounds.try_emplace(e.slot, e.ts_us, e.ts_us + e.dur_us);
    if (!inserted) {
      it->second.first = std::min(it->second.first, e.ts_us);
      it->second.second = std::max(it->second.second, e.ts_us + e.dur_us);
    }
  }
  std::vector<double> slots;
  for (auto it = bounds.begin(); it != bounds.end(); ++it) {
    const auto next = std::next(it);
    const double end = next == bounds.end() ? it->second.second : next->second.first;
    slots.push_back((end - it->second.first) * 1e-6);
  }
  return slots;
}

}  // namespace

void run_service_churn(const Options& options, RunReport& report) {
  // Reference pass: every episode once without telemetry.
  std::vector<system::LoadServiceReport> reference;
  std::vector<double> setup_s;
  std::vector<double> rate;
  Fingerprint fingerprint;
  for (std::size_t e = 0; e < kEpisodes; ++e) {
    const double t0 = now_s();
    system::LoadServer server(service_config(options, e));
    const double t1 = now_s();
    reference.push_back(server.run(horizon(options)));
    const double t2 = now_s();
    ++report.attempted;
    setup_s.push_back(t1 - t0);
    const auto& r = reference.back();
    rate.push_back(static_cast<double>(r.horizon_slots + r.drain_slots) / (t2 - t1));
    check_report(r, report);
    add_report(fingerprint, r);
  }
  report.fingerprint = fingerprint.hex();

  double qoe_weighted = 0.0;
  double sessions = 0.0;
  double failed_ops = 0.0;
  double ops = 0.0;
  for (const auto& r : reference) {
    qoe_weighted += r.mean_session_qoe * static_cast<double>(r.completed_sessions);
    sessions += static_cast<double>(r.completed_sessions);
    failed_ops += static_cast<double>(r.rejected + r.deadline_misses);
    ops += static_cast<double>(r.offered + r.delay_samples);
  }
  const double miss_rate = failed_ops / ops;
  report.check(miss_rate >= 0.0 && miss_rate <= 1.0,
               "service: miss rate outside [0, 1]");

  // Timed passes; every other pass carries a trace-mode collector.
  telemetry::MetricsRegistry registry;
  std::vector<std::vector<double>> passes;  // slot times of the traced passes
  std::vector<double> traced_rate;
  std::vector<double> solve_us;
  std::size_t traced_slots = 0;
  std::size_t traced_passes = 0;
  const double start = now_s();
  for (std::size_t pass = 1; pass < 3 || now_s() - start < options.seconds;
       ++pass) {
    const bool traced = pass % 2 == 1;
    traced_passes += traced ? 1 : 0;
    if (traced) passes.emplace_back();
    for (std::size_t e = 0; e < kEpisodes; ++e) {
      telemetry::TraceBuffer trace;
      telemetry::Collector collector(telemetry::Mode::kTrace, &registry, &trace);
      const double t0 = now_s();
      system::LoadServer server(service_config(options, e));
      const double t1 = now_s();
      const system::LoadServiceReport r =
          server.run(horizon(options), traced ? &collector : nullptr);
      const double t2 = now_s();
      ++report.attempted;
      report.check(same_report(r, reference[e]),
                   traced ? "service: traced outcomes differ from untraced ones"
                          : "service: an episode did not reproduce its outcomes");
      const double slots = static_cast<double>(r.horizon_slots + r.drain_slots);
      setup_s.push_back(t1 - t0);
      if (!traced) {
        rate.push_back(slots / (t2 - t1));
        continue;
      }
      const std::vector<double> s = slot_seconds(trace);
      passes.back().insert(passes.back().end(), s.begin(), s.end());
      traced_rate.push_back(slots / (t2 - t1));
      traced_slots += static_cast<std::size_t>(slots);
      for (const auto& event : trace.events()) {
        if (event.tid == static_cast<std::uint32_t>(telemetry::Phase::kAllocSolve)) {
          solve_us.push_back(event.dur_us);
        }
      }
    }
  }

  if (!options.trace) {
    report.set("setup_s", median(setup_s));
    report.set("slots_per_s", median(rate));
    report.set("slot_p50_us", pass_quantile(passes, 0.50) * 1e6);
    report.set("slot_p99_us", pass_quantile(passes, 0.99) * 1e6);
    report.set("qoe_mean", qoe_weighted / sessions);
    report.set("miss_rate", miss_rate);
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  using telemetry::Phase;
  const auto snap = registry.snapshot();
  const auto phase_sum = [&](Phase phase) {
    const auto it = snap.histograms.find(telemetry::phase_histogram_name(phase));
    return it == snap.histograms.end() ? 0.0 : it->second.sum;
  };
  const double per_slot = 1.0 / static_cast<double>(traced_slots);
  double slot_total = 0.0;
  for (const auto& pass : passes) {
    for (const double s : pass) slot_total += s * 1e6;
  }
  const double admission = phase_sum(Phase::kAdmission);
  const double build = phase_sum(Phase::kProblemBuild);
  const double solve = phase_sum(Phase::kAllocSolve);
  const double transport = phase_sum(Phase::kTransport);
  report.set("system.admission_us", admission * per_slot);
  report.set("service.problem_build_us", build * per_slot);
  report.set("service.transport_us", transport * per_slot);
  report.set("core.alloc_solve_us", mean(solve_us));
  report.set("core.alloc_solve_p99_us", quantile(solve_us, 0.99));
  report.set("core.alloc_calls",
             static_cast<double>(snap.counter_or("alloc_invocations")) /
                 static_cast<double>(traced_passes));
  report.set("bench.unattributed_share",
             (slot_total - admission - build - solve - transport) / slot_total);
  report.set("bench.trace_overhead", 1.0 - median(traced_rate) / median(rate));

  system::LoadServiceReport sum;
  double p99 = 0.0;
  double sustained = 0.0;
  double active = 0.0;
  for (const auto& r : reference) {
    sum.offered += r.offered;
    sum.admitted += r.admitted;
    sum.degraded += r.degraded;
    sum.rejected += r.rejected;
    sum.deadline_misses += r.deadline_misses;
    sum.peak_queue_depth = std::max(sum.peak_queue_depth, r.peak_queue_depth);
    p99 = std::max(p99, r.p99_delay_ms);
    sustained += r.sustained_users;
    active += r.mean_active_users;
  }
  const double episodes = static_cast<double>(kEpisodes);
  report.set("service.offered", static_cast<double>(sum.offered));
  report.set("service.admitted", static_cast<double>(sum.admitted));
  report.set("service.degraded", static_cast<double>(sum.degraded));
  report.set("service.rejected", static_cast<double>(sum.rejected));
  report.set("service.reject_rate", static_cast<double>(sum.rejected) /
                                        static_cast<double>(sum.offered));
  report.set("service.mean_active_users", active / episodes);
  report.set("service.peak_queue_depth", static_cast<double>(sum.peak_queue_depth));
  report.set("service.modeled_p99_delay_ms", p99);
  report.set("service.deadline_misses", static_cast<double>(sum.deadline_misses));
  report.set("service.sustained_users", sustained / episodes);
  report.set("machine.calib_us", calibration_us());
}

}  // namespace perfbench
