/**
 * @file
 * E10 / Fig. 13: end-to-end Flex-Online emulation.
 *
 * Runs the paper's Section V-C experiment: a 4.8 MW room at ~80%
 * utilization, UPS failure at minute 12, restoration at minute 24.
 * Paper result: survivors spike above 1.2 MW, Flex-Online shuts down
 * ~64% of software-redundant racks and throttles ~51% of cap-able ones
 * within ~2 s, non-cap-able racks stay untouched, and everything
 * recovers after the UPS returns.
 */
#include <cstdio>

#include "bench_util.hpp"
#include "emulation/fleet_emulation.hpp"
#include "emulation/room_emulation.hpp"
#include "obs/forensics.hpp"
#include "power/trip_curve.hpp"

int
main()
{
  using namespace flex;
  bench::PrintHeader("bench_end_to_end", "Fig. 13",
                     "UPS and rack power through a failover/recovery cycle");

  // Reaction budget = UPS tolerance at the worst-case 4N/3 failover
  // load, end of battery life (the paper's ~10 s window).
  obs::ObservabilityConfig obs_config;
  obs_config.tracer.budget =
      power::TripCurve::ForBatteryLife(power::BatteryLife::kEndOfLife)
          .ToleranceAt(4.0 / 3.0);
  obs::Observability observability(obs_config);

  emulation::EmulationConfig config;
  config.placement_solve_seconds = bench::SolveSeconds(2.0);
  config.obs = &observability;
  emulation::RoomEmulation emulation(config);
  const emulation::EmulationReport report = emulation.Run();

  std::printf("%8s %9s %9s %9s %9s %12s %6s %7s\n", "t(min)", "UPS0",
              "UPS1", "UPS2", "UPS3", "racks(MW)", "off", "capped");
  for (std::size_t i = 0; i < report.series.size(); i += 12) {
    const auto& s = report.series[i];
    std::printf("%8.1f %9.3f %9.3f %9.3f %9.3f %12.3f %6d %7d\n",
                s.t_seconds / 60.0, s.ups_mw[0], s.ups_mw[1], s.ups_mw[2],
                s.ups_mw[3], s.total_rack_mw, s.racks_off, s.racks_capped);
  }

  std::printf("\n%-46s %10s %10s\n", "metric", "paper", "measured");
  std::printf("%-46s %10s %9.0f%%\n", "software-redundant racks shut down",
              "64%", 100.0 * report.sr_shutdown_fraction);
  std::printf("%-46s %10s %9.0f%%\n", "cap-able racks throttled", "51%",
              100.0 * report.capable_capped_fraction);
  std::printf("%-46s %10s %10d\n", "non-cap-able racks acted on", "0",
              report.noncap_acted);
  std::printf("%-46s %10s %8.1f s\n", "corrective enforcement", "~2 s",
              report.enforcement_latency_seconds);
  std::printf("%-46s %10s %8.1f s\n", "time to bring room safe", "< 10 s",
              report.time_to_safe_seconds);
  std::printf("%-46s %10s %8.2f s\n", "p99.9 data latency", "< 1.5 s",
              report.data_latency_p999);
  std::printf("%-46s %10s %8.1f%%\n", "p95 latency increase (mean)", "+4.7%",
              100.0 * report.p95_increase_mean);
  std::printf("%-46s %10s %8.1f%%\n", "p95 latency increase (worst)", "14%",
              100.0 * report.p95_increase_worst);
  std::printf("%-46s %10s %10d\n", "power-emergency notifications sent",
              "> 0", report.notifications_published);
  std::printf("%-46s %10s %9.0f%%\n",
              "SR service capacity floor (during scale-out)", "-",
              100.0 * report.sr_capacity_min_fraction);
  std::printf("%-46s %10s %9.0f%%\n",
              "SR service capacity after AZ scale-out", "~100%",
              100.0 * report.sr_capacity_after_scaleout);
  std::printf("%-46s %10s %10d\n",
              "local auto-recoveries racing Flex (want 0)", "0",
              report.sr_inhibited_auto_recoveries);
  std::printf("%-46s %10s %9.0f%%\n", "lowest battery state of charge",
              "> 0%", 100.0 * report.min_battery_state_of_charge);
  std::printf("%-46s %10s %10s\n", "battery exhausted (cascading failure)",
              "no", report.battery_tripped ? "YES" : "no");
  std::printf("%-46s %10s %10s\n", "cascading failure", "none",
              report.safety_violated ? "VIOLATED" : "none");

  // Trace-variant sweep: the same room under FLEX_BENCH_TRACES
  // different seeds, run as a fleet with the substation off on the
  // shared thread pool (one room per lane, serial merge in seed order).
  // Demonstrates the paper's headline numbers are not an artifact of
  // one trace.
  emulation::FleetConfig sweep;
  sweep.room = config;
  sweep.rooms = bench::NumTraces(3);
  sweep.threads = 0;
  const emulation::FleetReport sweep_result =
      emulation::FleetEmulation(sweep).Run();
  std::printf("\ntrace variants (%d seeds on %d lane%s):\n", sweep.rooms,
              sweep_result.lanes, sweep_result.lanes == 1 ? "" : "s");
  std::printf("  %-6s %10s %10s %12s %10s %8s\n", "seed", "SR off",
              "capped", "safe (s)", "noncap", "safety");
  for (std::size_t i = 0; i < sweep_result.rooms.size(); ++i) {
    const emulation::EmulationReport& variant = sweep_result.rooms[i].report;
    std::printf("  %-6llu %9.0f%% %9.0f%% %12.1f %10d %8s\n",
                static_cast<unsigned long long>(config.seed + i),
                100.0 * variant.sr_shutdown_fraction,
                100.0 * variant.capable_capped_fraction,
                variant.time_to_safe_seconds, variant.noncap_acted,
                variant.safety_violated ? "VIOLATED" : "ok");
  }
  std::printf("  fleet hash %016llx\n",
              static_cast<unsigned long long>(sweep_result.fleet_hash));

  const obs::ReactionTracer& tracer = observability.tracer();
  obs::MetricsRegistry& metrics = observability.metrics();
  metrics.gauge("room.sweep.variants")
      .Set(static_cast<double>(sweep.rooms));
  metrics.gauge("room.sweep.lanes")
      .Set(static_cast<double>(sweep_result.lanes));
  const double now = emulation.queue().Now().value();
  std::printf("\n%s",
              obs::SummaryTable(observability.metrics().Snapshot(now), &tracer)
                  .c_str());
  bench::MaybeExportBenchJson("bench_end_to_end", observability, now);

  const bool reaction_ok =
      tracer.complete_count() > 0 &&
      tracer.within_budget_count() == tracer.complete_count();
  std::printf("reaction traces: %zu complete, %zu within the %.1f s budget\n",
              tracer.complete_count(), tracer.within_budget_count(),
              obs_config.tracer.budget.value());

  // The flight recorder runs throughout (always-on, fixed-size ring);
  // report what it held so overhead regressions show up in review.
  const obs::FlightRecorder& recorder = observability.recorder();
  std::printf("flight recorder: %zu records retained (capacity %zu, "
              "%llu dropped oldest-first)\n",
              recorder.size(), recorder.capacity(),
              static_cast<unsigned long long>(recorder.dropped_count()));

  const bool failed =
      report.safety_violated || report.battery_tripped || !reaction_ok;
  if (failed) {
    // Leave a forensic bundle behind so the failure can be triaged
    // offline (see EXPERIMENTS.md).
    obs::BundleSpec spec;
    spec.trigger = report.safety_violated ? "safety-violation"
                   : report.battery_tripped ? "battery-trip"
                                            : "reaction-budget-miss";
    spec.scenario = "end-to-end-emulation";
    spec.sim_time_s = config.end_at.value();
    spec.horizon_s = config.end_at.value();
    spec.replayable = false;  // the emulation room is not plan-driven
    spec.records = recorder.Records();
    spec.metrics = &observability.metrics();
    spec.tracer = &tracer;
    const std::string dir = obs::UniqueBundleDir(
        obs::ForensicsRootDir(), "bundle-end-to-end");
    std::string error;
    if (obs::WriteForensicBundle(dir, spec, &error))
      std::printf("forensic bundle: %s\n", dir.c_str());
    else
      std::fprintf(stderr, "bundle dump failed: %s\n", error.c_str());
  }
  return failed ? 1 : 0;
}
