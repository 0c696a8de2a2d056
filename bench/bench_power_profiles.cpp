/**
 * @file
 * E14 / Figs. 1 and 4: conventional vs. Flex power profiles.
 *
 * Generates a 48-hour diurnal utilization profile and shows it in both
 * regimes: a conventional room whose allocation is capped at the 75%
 * failover budget (reserved power idle), and a Flex room allocated to
 * 100%. A 3-hour supply failure is injected on the second day's peak;
 * while it lasts, the Flex room's corrective actions shave any draw
 * above the surviving capacity.
 *
 * Whether the Flex room rises above the budget at all depends on how
 * high its daily peak is, so the bench sweeps the peak over the paper's
 * Section III range of production rooms (65%, 72% and 80% of
 * provisioned power) and states, for each, whether Flex rose above the
 * budget and whether it had to shave.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"

int
main()
{
  using namespace flex;
  bench::PrintHeader("bench_power_profiles", "Figs. 1 and 4",
                     "48 h power profile: conventional (25% reserved) vs. "
                     "Flex (zero reserved)");

  const double provisioned_mw = 9.6;
  const double budget_fraction = 0.75;  // 4N/3 failover budget
  const double budget_mw = provisioned_mw * budget_fraction;
  // The diurnal curve peaks at hours 12 and 36; the failure covers the
  // second peak.
  const double failure_hour = 34.0;
  const double repair_hour = 37.0;
  const double daily_peaks[] = {0.65, 0.72, 0.80};

  struct Outcome {
    double peak = 0.0;
    double conventional_max_mw = 0.0;
    double flex_max_mw = 0.0;
    bool above_budget = false;
    bool shaved = false;
  };
  std::vector<Outcome> outcomes;
  for (const double peak : daily_peaks) {
    // The same noise for every peak, so the rows differ only by the peak.
    Rng rng(7);
    Outcome outcome;
    outcome.peak = peak;
    std::printf("\ndaily peak %.0f%% of provisioned (failure %.0f-%.0f h)\n",
                100.0 * peak, failure_hour, repair_hour);
    std::printf("%6s %14s %12s %16s %14s\n", "hour", "conventional",
                "flex", "surviving-cap", "flex-action");
    for (double hour = 0.0; hour <= 48.0; hour += 2.0) {
      // Diurnal shape: peak mid-day, 17% dip at night.
      const double diurnal = peak - 0.085 +
                             0.085 * std::sin((hour - 6.0) / 24.0 * 2.0 * M_PI);
      const double noise = 0.015 * rng.Normal();
      const double utilization = std::clamp(diurnal + noise, 0.4, 1.0);

      // Conventional: only 75% of provisioned is allocated at all.
      const double conventional =
          utilization * budget_fraction * provisioned_mw;
      // Flex: the full provisioned power is allocated.
      double flex_draw = utilization * provisioned_mw;
      outcome.conventional_max_mw =
          std::max(outcome.conventional_max_mw, conventional);
      outcome.flex_max_mw = std::max(outcome.flex_max_mw, flex_draw);
      outcome.above_budget = outcome.above_budget || flex_draw > budget_mw;

      const bool failed = hour >= failure_hour && hour < repair_hour;
      // Surviving capacity after one of four supplies is lost.
      const double surviving = failed ? budget_mw : provisioned_mw;
      const char* action = "-";
      if (failed && flex_draw > surviving) {
        action = "shave";
        outcome.shaved = true;
        flex_draw = surviving * 0.98;  // corrective actions engage
      }
      std::printf("%6.0f %11.2f MW %9.2f MW %13.2f MW %14s\n", hour,
                  conventional, flex_draw, surviving, action);
    }
    outcomes.push_back(outcome);
  }

  std::printf("\nfailover budget %.2f MW (75%% of %.2f MW provisioned):\n",
              budget_mw, provisioned_mw);
  std::printf("%12s %20s %14s %14s %14s\n", "daily peak", "conventional max",
              "flex max", "above budget", "shaved");
  std::string above;
  std::string shaved;
  for (const Outcome& o : outcomes) {
    std::printf("%11.0f%% %17.2f MW %11.2f MW %14s %14s\n", 100.0 * o.peak,
                o.conventional_max_mw, o.flex_max_mw,
                o.above_budget ? "yes" : "no", o.shaved ? "yes" : "no");
    const std::string name = std::to_string(std::lround(100.0 * o.peak)) + "%";
    if (o.above_budget)
      above += (above.empty() ? "" : ", ") + name;
    if (o.shaved)
      shaved += (shaved.empty() ? "" : ", ") + name;
  }

  std::printf("\npaper: conventional peaks never exceed the failover "
              "budget (reserve wasted);\n"
              "       Flex rides above it and only shaves during the rare "
              "failure window\n");
  std::printf("measured: Flex rose above the budget at daily peaks {%s} and "
              "shaved during the failure at {%s}\n",
              above.c_str(), shaved.c_str());
  return 0;
}
