/**
 * @file
 * Failover drill: the paper's Section V-C end-to-end emulation.
 *
 * Emulates a 4.8 MW zero-reserved-power room of ~360 racks at 80%
 * utilization, fails a UPS at minute 12, watches Flex-Online shed power
 * within the UPS tolerance window, restores the UPS at minute 24, and
 * prints the resulting timeline and workload impact (Fig. 13).
 *
 * Tracing is always on: the drill ends with the metrics summary table
 * and the per-stage reaction breakdown for the failover episode. Set
 * FLEX_TRACE_OUT=<path> to also dump the reaction traces as JSONL
 * (bit-identical across runs, since every stamp is simulated time).
 */
#include <cstdio>
#include <cstdlib>

#include "emulation/room_emulation.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "power/trip_curve.hpp"

int
main()
{
  using namespace flex;

  // Budget the reaction against the worst-case tolerance window: the
  // survivor UPS at 4N/3 load with end-of-life batteries (~10 s).
  obs::ObservabilityConfig obs_config;
  obs_config.tracer.budget =
      power::TripCurve::ForBatteryLife(power::BatteryLife::kEndOfLife)
          .ToleranceAt(4.0 / 3.0);
  obs::Observability observability(obs_config);

  emulation::EmulationConfig config;
  config.obs = &observability;
  emulation::RoomEmulation emulation(config);

  std::printf("Room: %.1f MW provisioned, %d racks placed\n",
              emulation.topology().TotalProvisionedPower().megawatts(),
              static_cast<int>(
                  offline::BuildRackLayout(emulation.topology(),
                                           emulation.placement())
                      .size()));
  std::printf("Running %0.f minutes of emulated time "
              "(failover at 12 min, restore at 24 min)...\n\n",
              config.end_at.value() / 60.0);

  const emulation::EmulationReport report = emulation.Run();

  std::printf("%8s %10s %10s %10s %10s %8s %8s\n", "t(min)", "UPS0(MW)",
              "UPS1(MW)", "UPS2(MW)", "UPS3(MW)", "off", "capped");
  for (std::size_t i = 0; i < report.series.size(); i += 12) {
    const auto& s = report.series[i];
    std::printf("%8.1f %10.3f %10.3f %10.3f %10.3f %8d %8d\n",
                s.t_seconds / 60.0, s.ups_mw[0], s.ups_mw[1], s.ups_mw[2],
                s.ups_mw[3], s.racks_off, s.racks_capped);
  }

  std::printf("\nRacks: %d total (%d SR / %d cap-able / %d non-cap)\n",
              report.total_racks, report.sr_racks, report.capable_racks,
              report.noncap_racks);
  std::printf("Corrective actions: %.0f%% of SR racks shut down, "
              "%.0f%% of cap-able racks throttled, %d non-cap racks touched\n",
              100.0 * report.sr_shutdown_fraction,
              100.0 * report.capable_capped_fraction, report.noncap_acted);
  std::printf("Enforcement latency: %.2f s  |  time to safe: %.2f s  |  "
              "p99.9 data latency: %.2f s\n",
              report.enforcement_latency_seconds,
              report.time_to_safe_seconds, report.data_latency_p999);
  std::printf("p95 latency increase on throttled racks: mean +%.1f%%, "
              "worst +%.1f%%\n",
              100.0 * report.p95_increase_mean,
              100.0 * report.p95_increase_worst);
  std::printf("Safety: %s (worst overload %.1f%%, longest overload %.1f s)\n",
              report.safety_violated ? "VIOLATED" : "maintained",
              100.0 * (report.worst_overload_fraction - 1.0),
              report.overload_duration_seconds);

  const obs::ReactionTracer& tracer = observability.tracer();
  std::printf("\n%s",
              obs::SummaryTable(observability.metrics().Snapshot(
                                    emulation.queue().Now().value()),
                                &tracer)
                  .c_str());

  if (const char* trace_out = std::getenv("FLEX_TRACE_OUT");
      trace_out != nullptr && *trace_out != '\0') {
    if (obs::WriteFile(trace_out, obs::TracesToJsonl(tracer)))
      std::printf("reaction traces written to %s\n", trace_out);
    else
      std::fprintf(stderr, "failed to write %s\n", trace_out);
  }
  return report.safety_violated ? 1 : 0;
}
