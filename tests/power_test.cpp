/**
 * @file
 * Unit tests for the power substrate: topology, loads, trip curves and
 * the trip watch.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "power/incremental.hpp"
#include "power/loads.hpp"
#include "power/topology.hpp"
#include "power/trip_curve.hpp"

namespace flex::power {
namespace {

RoomTopology
DefaultRoom()
{
  return RoomTopology(RoomConfig::EvaluationRoom());
}

TEST(TopologyTest, EvaluationRoomMatchesPaper)
{
  const RoomTopology room = DefaultRoom();
  EXPECT_EQ(room.NumUpses(), 4);
  EXPECT_NEAR(room.TotalProvisionedPower().megawatts(), 9.6, 1e-9);
  // 4N/3: failover budget is 75% of provisioned; 25% reserved.
  EXPECT_NEAR(room.FailoverBudget().megawatts(), 7.2, 1e-9);
  EXPECT_NEAR(room.ReservedPower().megawatts(), 2.4, 1e-9);
  EXPECT_EQ(room.NumPduPairs(), 12);  // C(4,2) combos x 2
  EXPECT_EQ(room.NumRows(), 36);
}

TEST(TopologyTest, EmulationRoomMatchesPaper)
{
  const RoomTopology room{RoomConfig::EmulationRoom()};
  EXPECT_NEAR(room.TotalProvisionedPower().megawatts(), 4.8, 1e-9);
  EXPECT_EQ(room.NumRows(), 36);
  EXPECT_EQ(room.RacksPerRow(), 10);
  EXPECT_EQ(room.NumRows() * room.RacksPerRow(), 360);
}

TEST(TopologyTest, EveryPduPairConnectsTwoDistinctUpses)
{
  const RoomTopology room = DefaultRoom();
  for (PduPairId p = 0; p < room.NumPduPairs(); ++p) {
    const auto [u1, u2] = room.UpsesOfPduPair(p);
    EXPECT_NE(u1, u2);
    EXPECT_GE(u1, 0);
    EXPECT_LT(u2, room.NumUpses());
  }
}

TEST(TopologyTest, UpsPairingIsBalanced)
{
  const RoomTopology room = DefaultRoom();
  // Each UPS pairs with each other UPS the same number of times.
  std::vector<std::vector<int>> pair_count(
      4, std::vector<int>(4, 0));
  for (PduPairId p = 0; p < room.NumPduPairs(); ++p) {
    const auto [u1, u2] = room.UpsesOfPduPair(p);
    ++pair_count[static_cast<std::size_t>(u1)][static_cast<std::size_t>(u2)];
    ++pair_count[static_cast<std::size_t>(u2)][static_cast<std::size_t>(u1)];
  }
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a != b) {
        EXPECT_EQ(pair_count[static_cast<std::size_t>(a)]
                            [static_cast<std::size_t>(b)], 2);
      }
    }
  }
  // And each UPS feeds pdu_pairs_per_ups_pair * (x-1) PDU pairs.
  for (UpsId u = 0; u < room.NumUpses(); ++u)
    EXPECT_EQ(room.PduPairsOfUps(u).size(), 6u);
}

TEST(TopologyTest, RowsMapToPduPairsContiguously)
{
  const RoomTopology room = DefaultRoom();
  for (PduPairId p = 0; p < room.NumPduPairs(); ++p) {
    for (const RowId r : room.RowsOfPduPair(p))
      EXPECT_EQ(room.PduPairOfRow(r), p);
  }
}

TEST(TopologyTest, FailoverShareIsUniform)
{
  const RoomTopology room = DefaultRoom();
  for (UpsId f = 0; f < 4; ++f) {
    for (UpsId u = 0; u < 4; ++u) {
      if (f == u)
        EXPECT_DOUBLE_EQ(room.FailoverShare(f, u), 0.0);
      else
        EXPECT_NEAR(room.FailoverShare(f, u), 1.0 / 3.0, 1e-12);
    }
  }
}

TEST(TopologyTest, RejectsInvalidConfigs)
{
  RoomConfig config;
  config.num_ups = 1;
  EXPECT_THROW(RoomTopology{config}, ConfigError);
  config = RoomConfig{};
  config.redundancy_y = 4;  // y must be < x
  EXPECT_THROW(RoomTopology{config}, ConfigError);
  config = RoomConfig{};
  config.ups_capacity = Watts(0.0);
  EXPECT_THROW(RoomTopology{config}, ConfigError);
}

TEST(TopologyTest, SupportsOtherRedundancyShapes)
{
  RoomConfig config;
  config.num_ups = 5;
  config.redundancy_y = 4;  // 5N/4
  const RoomTopology room{config};
  EXPECT_EQ(room.NumPduPairs(), 10 * config.pdu_pairs_per_ups_pair);
  EXPECT_NEAR(room.FailoverBudget() / room.TotalProvisionedPower(), 0.8,
              1e-12);
  for (UpsId u = 1; u < 5; ++u)
    EXPECT_NEAR(room.FailoverShare(0, u), 0.25, 1e-12);
}

TEST(LoadsTest, NormalLoadsSplitPduLoadEvenly)
{
  const RoomTopology room = DefaultRoom();
  PduPairLoads loads(static_cast<std::size_t>(room.NumPduPairs()),
                     Watts(0.0));
  loads[0] = KiloWatts(100.0);  // pair 0 connects UPS 0 and 1
  const std::vector<Watts> ups = NormalUpsLoads(room, loads);
  const auto [u1, u2] = room.UpsesOfPduPair(0);
  EXPECT_NEAR(ups[static_cast<std::size_t>(u1)].kilowatts(), 50.0, 1e-9);
  EXPECT_NEAR(ups[static_cast<std::size_t>(u2)].kilowatts(), 50.0, 1e-9);
  double total = 0.0;
  for (const Watts w : ups)
    total += w.kilowatts();
  EXPECT_NEAR(total, 100.0, 1e-9);
}

TEST(LoadsTest, FailoverTransfersFullPairLoadToSurvivor)
{
  const RoomTopology room = DefaultRoom();
  PduPairLoads loads(static_cast<std::size_t>(room.NumPduPairs()),
                     Watts(0.0));
  loads[0] = KiloWatts(100.0);
  const auto [u1, u2] = room.UpsesOfPduPair(0);
  const std::vector<Watts> after = FailoverUpsLoads(room, loads, u1);
  EXPECT_NEAR(after[static_cast<std::size_t>(u1)].kilowatts(), 0.0, 1e-9);
  EXPECT_NEAR(after[static_cast<std::size_t>(u2)].kilowatts(), 100.0, 1e-9);
}

TEST(LoadsTest, FailoverConservesTotalLoad)
{
  const RoomTopology room = DefaultRoom();
  PduPairLoads loads;
  for (int p = 0; p < room.NumPduPairs(); ++p)
    loads.push_back(KiloWatts(50.0 + 13.0 * p));
  double total_before = 0.0;
  for (const Watts w : loads)
    total_before += w.kilowatts();
  for (UpsId f = 0; f < room.NumUpses(); ++f) {
    const std::vector<Watts> after = FailoverUpsLoads(room, loads, f);
    double total_after = 0.0;
    for (const Watts w : after)
      total_after += w.kilowatts();
    EXPECT_NEAR(total_after, total_before, 1e-6);
    EXPECT_NEAR(after[static_cast<std::size_t>(f)].value(), 0.0, 1e-9);
  }
}

TEST(LoadsTest, BalancedLoadFailoverGivesFourThirdsOnSurvivors)
{
  // The paper's headline: uniform 100% load + one failure = 133% on each
  // survivor in a 4N/3 room.
  const RoomTopology room = DefaultRoom();
  // Load every PDU pair so each UPS is exactly at capacity.
  const Watts per_pair =
      room.TotalProvisionedPower() / room.NumPduPairs();
  PduPairLoads loads(static_cast<std::size_t>(room.NumPduPairs()), per_pair);
  const std::vector<Watts> normal = NormalUpsLoads(room, loads);
  for (UpsId u = 0; u < 4; ++u)
    EXPECT_NEAR(normal[static_cast<std::size_t>(u)] / room.UpsCapacity(u),
                1.0, 1e-9);
  const std::vector<Watts> after = FailoverUpsLoads(room, loads, 0);
  for (UpsId u = 1; u < 4; ++u)
    EXPECT_NEAR(after[static_cast<std::size_t>(u)] / room.UpsCapacity(u),
                4.0 / 3.0, 1e-9);
}

TEST(LoadsTest, StrandedPowerIsCapacityMinusLoad)
{
  const RoomTopology room = DefaultRoom();
  PduPairLoads loads(static_cast<std::size_t>(room.NumPduPairs()),
                     Watts(0.0));
  EXPECT_NEAR(StrandedPower(room, loads).megawatts(), 9.6, 1e-9);
  loads[0] = MegaWatts(1.0);
  EXPECT_NEAR(StrandedPower(room, loads).megawatts(), 8.6, 1e-9);
}

TEST(LoadsTest, SafetyReportFindsWorstScenario)
{
  const RoomTopology room = DefaultRoom();
  PduPairLoads capped(static_cast<std::size_t>(room.NumPduPairs()),
                      Watts(0.0));
  // Overload pair 0 so that failing one of its UPSes breaks the other.
  capped[0] = MegaWatts(3.0);  // survivor would carry 3.0 > 2.4 capacity
  const SafetyReport report = ValidateFailoverSafety(room, capped);
  EXPECT_FALSE(report.safe);
  EXPECT_NEAR(report.worst_overload_fraction, 3.0 / 2.4, 1e-9);
  const auto [u1, u2] = room.UpsesOfPduPair(0);
  EXPECT_TRUE(report.worst_failure == u1 || report.worst_failure == u2);
}

TEST(LoadsTest, SafeRoomPassesValidation)
{
  const RoomTopology room = DefaultRoom();
  // 75% of capacity per UPS is exactly the conventional failover budget:
  // survivors land exactly at 100% after a failure.
  const Watts per_pair = room.FailoverBudget() / room.NumPduPairs();
  PduPairLoads capped(static_cast<std::size_t>(room.NumPduPairs()), per_pair);
  const SafetyReport report = ValidateFailoverSafety(room, capped);
  EXPECT_TRUE(report.safe);
  EXPECT_NEAR(report.worst_overload_fraction, 1.0, 1e-9);
  EXPECT_TRUE(ValidateNormalOperation(room, capped));
}

TEST(LoadsTest, NormalOperationValidationCatchesOverload)
{
  const RoomTopology room = DefaultRoom();
  PduPairLoads loads(static_cast<std::size_t>(room.NumPduPairs()),
                     Watts(0.0));
  // All load on pairs of UPS 0 (pairs 0..5 involve UPS 0 with 2 each for
  // combos (0,1),(0,2),(0,3)).
  for (const PduPairId p : room.PduPairsOfUps(0))
    loads[static_cast<std::size_t>(p)] = MegaWatts(0.9);
  // UPS 0 carries 6 * 0.45 = 2.7 MW > 2.4 MW.
  EXPECT_FALSE(ValidateNormalOperation(room, loads));
}

TEST(LoadsTest, RejectsMalformedInputs)
{
  const RoomTopology room = DefaultRoom();
  PduPairLoads wrong_size(3, Watts(0.0));
  EXPECT_THROW(NormalUpsLoads(room, wrong_size), ConfigError);
  PduPairLoads negative(static_cast<std::size_t>(room.NumPduPairs()),
                        Watts(-1.0));
  EXPECT_THROW(NormalUpsLoads(room, negative), ConfigError);
  PduPairLoads ok(static_cast<std::size_t>(room.NumPduPairs()), Watts(0.0));
  EXPECT_THROW(FailoverUpsLoads(room, ok, 99), ConfigError);
}

TEST(TripCurveTest, EndOfLifeMatchesPaperAnchors)
{
  const TripCurve curve = TripCurve::ForBatteryLife(BatteryLife::kEndOfLife);
  // Paper: 10 seconds at the worst-case 133% failover load.
  EXPECT_NEAR(curve.ToleranceAt(1.33).value(), 10.0, 1e-9);
  // At or below rated load: indefinitely sustainable.
  EXPECT_GE(curve.ToleranceAt(1.0).value(), TripCurve::Indefinite().value());
  EXPECT_GE(curve.ToleranceAt(0.5).value(), TripCurve::Indefinite().value());
}

TEST(TripCurveTest, BeginOfLifeIsMoreTolerant)
{
  const TripCurve begin = TripCurve::ForBatteryLife(BatteryLife::kBeginOfLife);
  const TripCurve end = TripCurve::ForBatteryLife(BatteryLife::kEndOfLife);
  for (const double load : {1.05, 1.1, 1.2, 1.33, 1.5, 1.8}) {
    EXPECT_GT(begin.ToleranceAt(load).value(),
              end.ToleranceAt(load).value())
        << "at load " << load;
  }
}

TEST(TripCurveTest, ToleranceDecreasesWithLoad)
{
  const TripCurve curve = TripCurve::ForBatteryLife(BatteryLife::kEndOfLife);
  double previous = curve.ToleranceAt(1.01).value();
  for (double load = 1.05; load <= 2.0; load += 0.05) {
    const double tolerance = curve.ToleranceAt(load).value();
    EXPECT_LE(tolerance, previous);
    previous = tolerance;
  }
}

TEST(TripCurveTest, RideThroughIsThreeAndAHalfMinutes)
{
  EXPECT_NEAR(TripCurve::RideThroughAtRated().value(), 210.0, 1e-9);
}

TEST(TripCurveTest, RejectsNegativeLoad)
{
  const TripCurve curve = TripCurve::ForBatteryLife(BatteryLife::kEndOfLife);
  EXPECT_THROW(curve.ToleranceAt(-0.1), ConfigError);
}

// ---------------------------------------------------------------------------
// TripWatch: exact trip verdicts for piecewise-constant loads.
// ---------------------------------------------------------------------------

constexpr double kRatedW = 1e6;

/** A watch over @p upses UPSes rated 1 MW, on the end-of-life curve. */
TripWatch
MakeWatch(int upses)
{
  return TripWatch(TripCurve::ForBatteryLife(BatteryLife::kEndOfLife),
                   std::vector<Watts>(static_cast<std::size_t>(upses),
                                      Watts(kRatedW)));
}

/** One load per UPS, given as fractions of the 1 MW rating. */
std::vector<Watts>
Loads(const std::vector<double>& fractions)
{
  std::vector<Watts> loads;
  for (const double fraction : fractions)
    loads.push_back(Watts(fraction * kRatedW));
  return loads;
}

TEST(TripWatchTest, ZeroLengthIntervalCountsForNothing)
{
  TripWatch watch = MakeWatch(1);
  watch.Observe(Seconds(0.0), Loads({0.5}));
  watch.Observe(Seconds(1.0), Loads({2.0}));  // held for no time at all
  watch.Observe(Seconds(1.0), Loads({0.5}));
  watch.CloseAt(Seconds(100.0));
  EXPECT_FALSE(watch.tripped());
  EXPECT_FALSE(watch.overloaded());
  EXPECT_EQ(watch.worst_overload_fraction(), 0.0);
  EXPECT_EQ(watch.longest_overload().value(), 0.0);
  EXPECT_EQ(watch.observations(), 3u);

  // A dip below rated for no time does not end an episode either: the
  // 133% overload from t = 0 trips at its 10 s tolerance.
  TripWatch dip = MakeWatch(1);
  dip.Observe(Seconds(0.0), Loads({1.33}));
  dip.Observe(Seconds(5.0), Loads({0.5}));
  dip.Observe(Seconds(5.0), Loads({1.33}));
  dip.Observe(Seconds(12.0), Loads({1.33}));
  ASSERT_EQ(dip.trips().size(), 1u);
  EXPECT_EQ(dip.trips()[0].since.value(), 0.0);
  EXPECT_NEAR(dip.trips()[0].at.value(), 10.0, 1e-9);
  EXPECT_EQ(dip.longest_overload().value(), 12.0);
}

TEST(TripWatchTest, RisingFractionTripsAtTheChange)
{
  // 110% tolerates 60 s; after 5 s it rises to 150%, which tolerates
  // only 4 s. The episode is already older than that, so the UPS trips
  // at the change itself, not 4 s later.
  TripWatch watch = MakeWatch(2);
  watch.Observe(Seconds(0.0), Loads({1.1, 0.9}));
  watch.Observe(Seconds(5.0), Loads({1.5, 0.9}));
  EXPECT_FALSE(watch.tripped());  // the 150% interval is still open
  watch.Observe(Seconds(5.5), Loads({1.5, 0.9}));
  ASSERT_EQ(watch.trips().size(), 1u);
  const Trip& trip = watch.trips()[0];
  EXPECT_EQ(trip.ups, 0);
  EXPECT_EQ(trip.at.value(), 5.0);
  EXPECT_EQ(trip.since.value(), 0.0);
  EXPECT_EQ(trip.fraction, 1.5);
  EXPECT_TRUE(watch.overloaded());
  EXPECT_EQ(watch.fraction(0), 1.5);
  EXPECT_EQ(watch.fraction(1), 0.9);
  EXPECT_EQ(watch.worst_overload_fraction(), 1.5);
}

TEST(TripWatchTest, CloseAtClosesAnOverloadThatSpansTheEnd)
{
  TripWatch watch = MakeWatch(1);
  watch.Observe(Seconds(0.0), Loads({0.9}));
  watch.Observe(Seconds(10.0), Loads({1.33}));
  watch.CloseAt(Seconds(25.0));
  ASSERT_EQ(watch.trips().size(), 1u);
  EXPECT_NEAR(watch.trips()[0].at.value(), 20.0, 1e-9);
  EXPECT_EQ(watch.longest_overload().value(), 15.0);
  EXPECT_EQ(watch.worst_overload_fraction(), 1.33);
  EXPECT_TRUE(watch.overloaded());
  EXPECT_EQ(watch.observations(), 2u);
  EXPECT_THROW(watch.Observe(Seconds(24.0), Loads({0.9})), ConfigError);
}

/** The overload fraction whose tolerance on @p curve is @p seconds. */
double
FractionTolerating(const TripCurve& curve, double seconds)
{
  // ToleranceAt falls monotonically above rated load; bisect for the
  // smallest fraction that tolerates at most @p seconds.
  double lo = 1.0;
  double hi = 2.0;
  for (int i = 0; i < 200 && lo < hi; ++i) {
    const double mid = lo + (hi - lo) / 2.0;
    if (mid == lo || mid == hi)
      break;
    (curve.ToleranceAt(mid).value() > seconds ? lo : hi) = mid;
  }
  return hi;
}

TEST(TripWatchTest, MatchesAOneMillisecondRescanOnRandomWalks)
{
  // Random piecewise-constant walks: change points on a 10 ms grid
  // (zero-length steps included), fractions from 0.8 to 1.6. A rescan
  // every 1 ms applies the polled rule the watch replaced: an episode
  // starts at the first poll above rated, and a poll trips when the
  // episode's age exceeds the tolerance at that poll's fraction. Times
  // are integer milliseconds, scaled once, so both sides see the same
  // doubles. Half the drawn fractions tolerate 0.5 ms less than a
  // multiple of 10 ms, and half of the episodes that start at one hold
  // it and end exactly on that multiple: their overload outlasts its
  // tolerance only in the last millisecond, between two polls.
  constexpr int kUpses = 3;
  const TripCurve curve = TripCurve::ForBatteryLife(BatteryLife::kEndOfLife);
  int rescan_trips = 0;
  int watch_only_trips = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<std::int64_t> change_ms;
    std::vector<std::vector<double>> change_fractions;
    std::vector<double> fractions(kUpses, 0.9);
    std::vector<std::int64_t> scripted_end_ms(kUpses, -1);
    std::int64_t t_ms = 0;
    for (int i = 0; i < 600; ++i) {
      for (int u = 0; u < kUpses; ++u) {
        double& fraction = fractions[u];
        if (scripted_end_ms[u] >= 0) {
          if (scripted_end_ms[u] == t_ms) {
            fraction = 0.9;
            scripted_end_ms[u] = -1;
          }
          continue;
        }
        if (!rng.Bernoulli(0.5))
          continue;
        const bool fresh = fraction <= 1.0;
        if (rng.Bernoulli(0.5)) {
          fraction = rng.Uniform(0.8, 1.6);
          continue;
        }
        const std::int64_t steps = rng.UniformInt(340, 1000);
        fraction = FractionTolerating(curve, 10e-3 * steps - 0.5e-3);
        if (fresh && rng.Bernoulli(0.5))
          scripted_end_ms[u] = t_ms + 10 * steps;
      }
      change_ms.push_back(t_ms);
      change_fractions.push_back(fractions);
      std::int64_t gap_ms = 10 * rng.UniformInt(0, 50);
      for (const std::int64_t end : scripted_end_ms) {
        if (end >= 0)
          gap_ms = std::min(gap_ms, end - t_ms);
      }
      t_ms += gap_ms;
    }
    const std::int64_t end_ms = t_ms;

    TripWatch watch = MakeWatch(kUpses);
    for (std::size_t c = 0; c < change_ms.size(); ++c)
      watch.Observe(Seconds(change_ms[c] * 1e-3), Loads(change_fractions[c]));
    watch.CloseAt(Seconds(end_ms * 1e-3));

    // The rescan: trips keyed by (UPS, episode start in ms).
    std::map<std::pair<int, std::int64_t>, double> polled;
    double worst = 0.0;
    double longest = 0.0;
    std::vector<std::int64_t> since_ms(kUpses, -1);
    std::vector<bool> tripped(kUpses, false);
    std::size_t next = 0;
    std::vector<double> held(kUpses, 0.0);
    for (std::int64_t k = 0; k < end_ms; ++k) {
      while (next < change_ms.size() && change_ms[next] <= k) {
        for (int u = 0; u < kUpses; ++u)
          held[u] = Loads(change_fractions[next])[u] / Watts(kRatedW);
        ++next;
      }
      const double t = k * 1e-3;
      for (int u = 0; u < kUpses; ++u) {
        if (held[u] <= 1.0) {
          since_ms[u] = -1;
          tripped[u] = false;
          continue;
        }
        if (since_ms[u] < 0)
          since_ms[u] = k;
        const double age = t - since_ms[u] * 1e-3;
        worst = std::max(worst, held[u]);
        longest = std::max(longest, age);
        if (!tripped[u] && age > curve.ToleranceAt(held[u]).value()) {
          tripped[u] = true;
          polled[{u, since_ms[u]}] = t;
        }
      }
    }

    EXPECT_EQ(watch.worst_overload_fraction(), worst) << "seed " << seed;
    EXPECT_GE(watch.longest_overload().value(), longest) << "seed " << seed;
    EXPECT_LE(watch.longest_overload().value(), longest + 1e-3 + 1e-9)
        << "seed " << seed;
    std::map<std::pair<int, std::int64_t>, double> exact;
    for (const Trip& trip : watch.trips()) {
      const std::int64_t since = std::llround(trip.since.value() * 1e3);
      EXPECT_EQ(since * 1e-3, trip.since.value()) << "seed " << seed;
      EXPECT_TRUE(exact.emplace(std::make_pair(trip.ups, since),
                                trip.at.value()).second)
          << "two trips in one episode, seed " << seed;
    }
    // Every trip the rescan finds, the watch finds, and no later.
    for (const auto& [key, at] : polled) {
      const auto it = exact.find(key);
      ASSERT_NE(it, exact.end()) << "seed " << seed << " UPS " << key.first;
      EXPECT_LE(it->second, at + 1e-9) << "seed " << seed;
      ++rescan_trips;
    }
    // A trip only the watch finds falls between the last poll of its
    // interval and the interval's end.
    for (const auto& [key, at] : exact) {
      if (polled.count(key) != 0)
        continue;
      ++watch_only_trips;
      double interval_end = end_ms * 1e-3;
      for (const std::int64_t ms : change_ms) {
        if (ms * 1e-3 > at) {
          interval_end = ms * 1e-3;
          break;
        }
      }
      EXPECT_LE(interval_end - at, 1e-3 + 1e-9) << "seed " << seed;
    }
  }
  // The walks must exercise both verdicts, not just agree on silence.
  EXPECT_GT(rescan_trips, 20);
  EXPECT_GT(watch_only_trips, 0);
  RecordProperty("rescan_trips", rescan_trips);
  RecordProperty("watch_only_trips", watch_only_trips);
}

// ---------------------------------------------------------------------------
// IncrementalUpsLoads: running sums must match the exact load functions.
// ---------------------------------------------------------------------------

TEST(IncrementalUpsLoadsTest, StartsEmptyAndInNormalMode)
{
  const RoomTopology room = DefaultRoom();
  IncrementalUpsLoads agg(room);
  EXPECT_EQ(agg.failed_ups(), -1);
  EXPECT_NEAR(agg.TotalLoad().value(), 0.0, 1e-12);
  for (const Watts w : agg.UpsLoads())
    EXPECT_NEAR(w.value(), 0.0, 1e-12);
}

TEST(IncrementalUpsLoadsTest, DeltasMatchNormalUpsLoads)
{
  const RoomTopology room = DefaultRoom();
  IncrementalUpsLoads agg(room);
  PduPairLoads loads(static_cast<std::size_t>(room.NumPduPairs()),
                     Watts(0.0));
  for (PduPairId p = 0; p < room.NumPduPairs(); ++p) {
    const Watts w(1000.0 * (p + 1));
    loads[static_cast<std::size_t>(p)] = w;
    agg.ApplyDelta(p, w);
  }
  const std::vector<Watts> exact = NormalUpsLoads(room, loads);
  for (UpsId u = 0; u < room.NumUpses(); ++u) {
    EXPECT_NEAR(agg.UpsLoads()[static_cast<std::size_t>(u)].value(),
                exact[static_cast<std::size_t>(u)].value(), 1e-6);
  }
  EXPECT_EQ(agg.delta_count(), static_cast<std::uint64_t>(room.NumPduPairs()));
}

TEST(IncrementalUpsLoadsTest, FailoverRoutesLoadToTheSurvivingSibling)
{
  const RoomTopology room = DefaultRoom();
  IncrementalUpsLoads agg(room);
  PduPairLoads loads(static_cast<std::size_t>(room.NumPduPairs()),
                     Watts(0.0));
  for (PduPairId p = 0; p < room.NumPduPairs(); ++p) {
    const Watts w(500.0 * (room.NumPduPairs() - p));
    loads[static_cast<std::size_t>(p)] = w;
    agg.ApplyDelta(p, w);
  }
  agg.SetFailedUps(1);
  EXPECT_EQ(agg.failed_ups(), 1);
  const std::vector<Watts> exact = FailoverUpsLoads(room, loads, 1);
  for (UpsId u = 0; u < room.NumUpses(); ++u) {
    EXPECT_NEAR(agg.UpsLoads()[static_cast<std::size_t>(u)].value(),
                exact[static_cast<std::size_t>(u)].value(), 1e-6);
  }
  // Deltas applied while failed over keep matching the failover split.
  agg.ApplyDelta(0, Watts(2500.0));
  loads[0] += Watts(2500.0);
  const std::vector<Watts> shifted = FailoverUpsLoads(room, loads, 1);
  for (UpsId u = 0; u < room.NumUpses(); ++u) {
    EXPECT_NEAR(agg.UpsLoads()[static_cast<std::size_t>(u)].value(),
                shifted[static_cast<std::size_t>(u)].value(), 1e-6);
  }
  // Restoring the UPS returns to the normal 50/50 split.
  agg.SetFailedUps(-1);
  const std::vector<Watts> normal = NormalUpsLoads(room, loads);
  for (UpsId u = 0; u < room.NumUpses(); ++u) {
    EXPECT_NEAR(agg.UpsLoads()[static_cast<std::size_t>(u)].value(),
                normal[static_cast<std::size_t>(u)].value(), 1e-6);
  }
}

TEST(IncrementalUpsLoadsTest, ResyncCancelsAccumulatedDrift)
{
  const RoomTopology room = DefaultRoom();
  IncrementalUpsLoads agg(room);
  // Alternating large additions and near-cancelling subtractions are the
  // worst case for += drift.
  for (int round = 0; round < 5000; ++round) {
    const PduPairId p = round % room.NumPduPairs();
    agg.ApplyDelta(p, Watts(1.0e6 + 0.1 * round));
    agg.ApplyDelta(p, Watts(-1.0e6));
  }
  agg.Resync();
  EXPECT_NEAR(agg.MaxUpsErrorWatts(), 0.0, 1e-9);
  const std::vector<Watts> rescan = agg.RescanUpsLoads();
  for (UpsId u = 0; u < room.NumUpses(); ++u) {
    EXPECT_EQ(agg.UpsLoads()[static_cast<std::size_t>(u)].value(),
              rescan[static_cast<std::size_t>(u)].value());
  }
  EXPECT_GE(agg.resync_count(), 1u);
}

TEST(IncrementalUpsLoadsTest, SetAllPduLoadsReplacesTheRunningState)
{
  const RoomTopology room = DefaultRoom();
  IncrementalUpsLoads agg(room);
  agg.ApplyDelta(0, Watts(123456.0));
  PduPairLoads loads(static_cast<std::size_t>(room.NumPduPairs()),
                     Watts(42.0));
  agg.SetAllPduLoads(loads);
  Watts total(0.0);
  for (const Watts w : agg.PduLoads()) {
    EXPECT_NEAR(w.value(), 42.0, 1e-12);
    total += w;
  }
  EXPECT_NEAR(agg.TotalLoad().value(), total.value(), 1e-9);
}

}  // namespace
}  // namespace flex::power
