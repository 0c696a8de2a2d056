/**
 * @file
 * Section VI (cooling): the cooling mitigation ladder.
 *
 * Paper claim: unlike a power failover (~10 s before cascading
 * failure), losing redundant cooling leaves several minutes before the
 * room overheats, so workload migration to another cooling domain runs
 * first and Flex capping/shutdown is the last resort — which is why
 * zero-reserved-cooling needs no extra infrastructure.
 */
#include <cstdio>

#include "bench_util.hpp"
#include "cooling/cooling_domain.hpp"
#include "power/trip_curve.hpp"
#include "sim/event_queue.hpp"

int
main()
{
  using namespace flex;
  bench::PrintHeader("bench_cooling_mitigation", "Section VI (cooling)",
                     "mitigation windows and the migrate-then-cap ladder");

  // Contrast of mitigation windows.
  const power::TripCurve trip =
      power::TripCurve::ForBatteryLife(power::BatteryLife::kEndOfLife);
  cooling::CoolingDomain window_probe{cooling::CoolingDomainConfig{}};
  window_probe.SetUnitFailed(0, true);
  window_probe.SetUnitFailed(1, true);
  std::printf("mitigation window after losing redundancy:\n");
  std::printf("  power (UPS at 133%% load):      %6.1f s\n",
              trip.ToleranceAt(4.0 / 3.0).value());
  std::printf("  cooling (2 of 4 units lost):   %6.1f s (%.1f minutes)\n\n",
              window_probe.TimeToOverheat(MegaWatts(9.6)).value(),
              window_probe.TimeToOverheat(MegaWatts(9.6)).value() / 60.0);

  // The ladder under increasing severity.
  std::printf("%-22s %12s %14s %12s %10s\n", "failed cooling units",
              "peak temp", "migrated (MW)", "flex engaged", "overheat");
  for (int failures = 1; failures <= 3; ++failures) {
    sim::EventQueue queue;
    cooling::CoolingDomain domain{cooling::CoolingDomainConfig{}};
    Watts load = MegaWatts(9.6);
    Watts cut(0.0);
    cooling::CoolingFailureHandler handler(
        queue, domain, [&] { return load - cut; },
        [&](Watts needed) { cut = std::max(cut, needed); });
    handler.Start();
    double peak_temp = domain.temperature_c();
    queue.SchedulePeriodic(Seconds(1.0), [&] {
      // EffectiveLoad = raw load - flex cut (via load_source) - migrated.
      domain.Advance(handler.EffectiveLoad(), Seconds(1.0));
      peak_temp = std::max(peak_temp, domain.temperature_c());
      return true;
    });
    // Stagger the failures a minute apart.
    for (int f = 0; f < failures; ++f) {
      queue.Schedule(Minutes(1.0 + f), [&domain, f] {
        domain.SetUnitFailed(f, true);
      });
    }
    queue.RunUntil(Minutes(20.0));
    std::printf("%-22d %10.1f C %14.2f %12s %10s\n", failures, peak_temp,
                handler.migrated_load().megawatts(),
                handler.flex_engagements() > 0 ? "yes" : "no",
                domain.Overheated() ? "YES" : "no");
  }

  std::printf("\npaper: migration handles cooling loss in the minutes "
              "available; Flex actions are the backstop\n");
  return 0;
}
