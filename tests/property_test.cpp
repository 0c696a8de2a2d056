/**
 * @file
 * Property-based tests: invariants that must hold across randomized
 * inputs and parameter sweeps, checked with parameterized gtest.
 */
#include <cmath>
#include <functional>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "offline/metrics.hpp"
#include "offline/policies.hpp"
#include "online/decision.hpp"
#include "emulation/room_emulation.hpp"
#include "fault/fault_run.hpp"
#include "power/incremental.hpp"
#include "power/loads.hpp"
#include "solver/branch_and_bound.hpp"
#include "workload/rack_power.hpp"
#include "workload/trace.hpp"

namespace flex {
namespace {

using offline::BalancedRoundRobinPolicy;
using offline::FirstFitPolicy;
using offline::Placement;
using offline::RandomPolicy;
using power::RoomConfig;
using power::RoomTopology;
using workload::Category;

// ---------------------------------------------------------------------------
// Solver: branch-and-bound must match brute-force enumeration on random
// small binary programs.
// ---------------------------------------------------------------------------

class SolverExactnessTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SolverExactnessTest, MatchesBruteForceOnRandomBinaryPrograms)
{
  Rng rng(GetParam());
  const int n = 10;
  const int m = 4;
  solver::Model model;
  std::vector<double> objective;
  for (int j = 0; j < n; ++j) {
    const double c = rng.Uniform(-5.0, 10.0);
    objective.push_back(c);
    model.AddBinary("b", c);
  }
  std::vector<std::vector<double>> rows;
  std::vector<double> rhs;
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<solver::VarIndex, double>> terms;
    std::vector<double> row;
    for (int j = 0; j < n; ++j) {
      const double a = rng.Uniform(0.0, 4.0);
      row.push_back(a);
      terms.push_back({j, a});
    }
    const double b = rng.Uniform(4.0, 12.0);
    rows.push_back(row);
    rhs.push_back(b);
    model.AddConstraint("c", std::move(terms), solver::Relation::kLessEqual,
                        b);
  }

  // Brute force over all 2^10 assignments.
  double best = 0.0;  // all-zeros is always feasible here
  for (int mask = 0; mask < (1 << n); ++mask) {
    bool feasible = true;
    for (int i = 0; i < m && feasible; ++i) {
      double lhs = 0.0;
      for (int j = 0; j < n; ++j) {
        if (mask & (1 << j))
          lhs += rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      }
      feasible = lhs <= rhs[static_cast<std::size_t>(i)] + 1e-9;
    }
    if (!feasible)
      continue;
    double value = 0.0;
    for (int j = 0; j < n; ++j) {
      if (mask & (1 << j))
        value += objective[static_cast<std::size_t>(j)];
    }
    best = std::max(best, value);
  }

  const solver::MipResult result =
      solver::BranchAndBoundSolver().Solve(model);
  ASSERT_TRUE(result.HasSolution());
  EXPECT_EQ(result.status, solver::MipStatus::kOptimal);
  EXPECT_NEAR(result.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, SolverExactnessTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Power: failover conservation and share invariants across redundancy
// shapes.
// ---------------------------------------------------------------------------

class RedundancyShapeTest
    : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(RedundancyShapeTest, FailoverConservesLoadAndSharesEvenly)
{
  const auto [x, y] = GetParam();
  RoomConfig config;
  config.num_ups = x;
  config.redundancy_y = y;
  config.ups_capacity = MegaWatts(1.0);
  const RoomTopology room{config};

  Rng rng(static_cast<std::uint64_t>(x * 100 + y));
  power::PduPairLoads loads;
  for (int p = 0; p < room.NumPduPairs(); ++p)
    loads.push_back(KiloWatts(rng.Uniform(10.0, 200.0)));
  double total = 0.0;
  for (const Watts w : loads)
    total += w.value();

  for (power::UpsId f = 0; f < room.NumUpses(); ++f) {
    const std::vector<Watts> after = power::FailoverUpsLoads(room, loads, f);
    double sum = 0.0;
    for (const Watts w : after)
      sum += w.value();
    EXPECT_NEAR(sum, total, 1e-6);
    EXPECT_NEAR(after[static_cast<std::size_t>(f)].value(), 0.0, 1e-9);
    // With uniform loads the share rule is exactly 1/(x-1); with random
    // loads it still holds structurally.
    for (power::UpsId u = 0; u < room.NumUpses(); ++u)
      EXPECT_NEAR(room.FailoverShare(f, u), u == f ? 0.0 : 1.0 / (x - 1),
                  1e-12);
  }
  // The failover budget fraction is y/x by construction.
  EXPECT_NEAR(room.FailoverBudget() / room.TotalProvisionedPower(),
              static_cast<double>(y) / x, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RedundancyShapeTest,
    ::testing::Values(std::make_pair(3, 2), std::make_pair(4, 3),
                      std::make_pair(5, 4), std::make_pair(5, 3),
                      std::make_pair(6, 5)));

// ---------------------------------------------------------------------------
// Placement: every policy must produce a safe room on every trace.
// ---------------------------------------------------------------------------

class PlacementSafetyTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
};

TEST_P(PlacementSafetyTest, AllPoliciesSatisfyEq2AndEq4)
{
  const auto [policy_index, seed] = GetParam();
  RoomConfig config;
  config.ups_capacity = KiloWatts(800.0);
  config.pdu_pairs_per_ups_pair = 1;
  config.rows_per_pdu_pair = 2;
  config.racks_per_row = 12;
  const RoomTopology room{config};

  Rng rng(seed);
  const auto trace = workload::GenerateTrace(
      workload::TraceConfig{}, room.TotalProvisionedPower(), rng);

  Placement placement;
  switch (policy_index) {
    case 0:
      placement = RandomPolicy(seed).Place(room, trace);
      break;
    case 1:
      placement = BalancedRoundRobinPolicy().Place(room, trace);
      break;
    default:
      placement = FirstFitPolicy().Place(room, trace);
      break;
  }

  // Eq. 2: normal operation fits.
  EXPECT_TRUE(power::ValidateNormalOperation(
      room, placement.AllocatedPduLoads(room)));
  // Eq. 4: failover with corrective actions fits.
  EXPECT_TRUE(
      power::ValidateFailoverSafety(room, placement.CappedPduLoads(room))
          .safe);
  // Accounting: stranded + placed = provisioned.
  const Watts stranded =
      power::StrandedPower(room, placement.AllocatedPduLoads(room));
  EXPECT_NEAR((stranded + placement.PlacedPower()).value(),
              room.TotalProvisionedPower().value(), 1.0);
  // The rack layout expands exactly to the placed rack count.
  const auto layout = offline::BuildRackLayout(room, placement);
  int placed_racks = 0;
  for (std::size_t i = 0; i < placement.deployments.size(); ++i) {
    if (placement.assignment[i].has_value())
      placed_racks += placement.deployments[i].num_racks;
  }
  EXPECT_EQ(static_cast<int>(layout.size()), placed_racks);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, PlacementSafetyTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(11u, 22u, 33u, 44u)));

// ---------------------------------------------------------------------------
// Decisions: Algorithm 1 invariants across utilizations and scenarios.
// ---------------------------------------------------------------------------

class DecisionInvariantTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {
};

TEST_P(DecisionInvariantTest, ActionsAreLegalAndEffective)
{
  const auto [utilization, scenario_index] = GetParam();
  const auto scenario =
      workload::ImpactScenario::AllScenarios()[static_cast<std::size_t>(
          scenario_index)];

  RoomConfig config;
  config.ups_capacity = KiloWatts(500.0);
  config.pdu_pairs_per_ups_pair = 1;
  const RoomTopology room{config};

  // Synthetic racks spread over all pairs, one third per category.
  Rng rng(777);
  online::DecisionInput input;
  input.impact.emplace("sr", scenario.software_redundant);
  input.impact.emplace("cap", scenario.capable);
  for (power::PduPairId p = 0; p < room.NumPduPairs(); ++p)
    input.pdu_to_ups.push_back(room.UpsesOfPduPair(p));
  power::PduPairLoads pdu_loads(
      static_cast<std::size_t>(room.NumPduPairs()), Watts(0.0));
  for (int i = 0; i < 120; ++i) {
    online::RackSnapshot rack;
    rack.rack_id = i;
    const int c = i % 3;
    rack.category = c == 0 ? Category::kSoftwareRedundant
                           : (c == 1 ? Category::kNonRedundantCapable
                                     : Category::kNonRedundantNonCapable);
    rack.workload = c == 0 ? "sr" : (c == 1 ? "cap" : "nc");
    rack.pdu_pair = i % room.NumPduPairs();
    const Watts allocation = KiloWatts(25.0);
    rack.current_power =
        allocation * rng.TruncatedNormal(utilization, 0.1, 0.3, 1.0);
    rack.flex_power = allocation * 0.8;
    pdu_loads[static_cast<std::size_t>(rack.pdu_pair)] += rack.current_power;
    input.racks.push_back(std::move(rack));
  }
  const std::vector<Watts> ups = power::FailoverUpsLoads(room, pdu_loads, 0);
  for (power::UpsId u = 0; u < room.NumUpses(); ++u) {
    input.ups_power.push_back(ups[static_cast<std::size_t>(u)]);
    input.ups_limit.push_back(room.UpsCapacity(u));
  }
  input.buffer = KiloWatts(5.0);

  const online::DecisionResult result = online::DecideActions(input);

  std::set<int> acted;
  for (const online::Action& action : result.actions) {
    // No duplicate actions.
    EXPECT_TRUE(acted.insert(action.rack_id).second);
    const auto& rack =
        input.racks[static_cast<std::size_t>(action.rack_id)];
    // Never act on non-cap-able racks.
    EXPECT_NE(rack.category, Category::kNonRedundantNonCapable);
    // Action type matches category (Algorithm 1 line 8).
    if (rack.category == Category::kSoftwareRedundant)
      EXPECT_EQ(action.type, online::ActionType::kShutdown);
    else
      EXPECT_EQ(action.type, online::ActionType::kThrottle);
    // Recovery is non-negative and bounded by the rack's power.
    EXPECT_GE(action.estimated_recovery.value(), -1e-9);
    EXPECT_LE(action.estimated_recovery.value(),
              rack.current_power.value() + 1e-9);
  }
  // Projected power never increases and is consistent with satisfied.
  double projected_total = 0.0;
  double input_total = 0.0;
  for (std::size_t u = 0; u < input.ups_power.size(); ++u) {
    EXPECT_LE(result.projected_ups_power[u].value(),
              input.ups_power[u].value() + 1e-9);
    projected_total += result.projected_ups_power[u].value();
    input_total += input.ups_power[u].value();
  }
  EXPECT_LE(projected_total, input_total + 1e-9);
  if (result.satisfied) {
    for (std::size_t u = 0; u < input.ups_power.size(); ++u) {
      EXPECT_LE(result.projected_ups_power[u].value(),
                (input.ups_limit[u] - input.buffer).value() + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    UtilizationsAndScenarios, DecisionInvariantTest,
    ::testing::Combine(::testing::Values(0.70, 0.78, 0.85, 0.95),
                       ::testing::Values(0, 1, 2, 3)));

// ---------------------------------------------------------------------------
// Rack power model: the rescaled snapshot hits any target utilization.
// ---------------------------------------------------------------------------

class RackPowerTargetTest : public ::testing::TestWithParam<double> {
};

TEST_P(RackPowerTargetTest, SnapshotHitsTargetAcrossUtilizations)
{
  const double target = GetParam();
  Rng rng(31337);
  const workload::RackPowerModel model;
  std::vector<Watts> allocations;
  for (int i = 0; i < 300; ++i)
    allocations.push_back(KiloWatts(10.0 + (i % 5)));
  const auto draws = model.SampleAtUtilization(allocations, target, rng);
  Watts total(0.0);
  Watts allocated(0.0);
  for (std::size_t i = 0; i < draws.size(); ++i) {
    total += draws[i];
    allocated += allocations[i];
    EXPECT_LE(draws[i].value(), allocations[i].value() + 1e-6);
    EXPECT_GE(draws[i].value(), 0.0);
  }
  EXPECT_NEAR(total / allocated, target, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Targets, RackPowerTargetTest,
                         ::testing::Values(0.45, 0.60, 0.74, 0.80, 0.85,
                                           0.92));

// ---------------------------------------------------------------------------
// Incremental aggregation: a randomized rack power-walk — arbitrary
// power deltas interleaved with failover edges and resyncs — must keep
// the running per-UPS sums equal to a brute-force rescan after every
// single mutation. 200 seeds, sharded like the fault-fuzz sweep so
// ctest spreads the work across workers; a failure names the seed.
// ---------------------------------------------------------------------------

class IncrementalAggregationWalkTest : public ::testing::TestWithParam<int> {
};

TEST_P(IncrementalAggregationWalkTest, RunningSumsMatchBruteForceRescan)
{
  constexpr int kSeedsPerShard = 25;
  constexpr int kSteps = 160;
  // Drift bound: ~1e2 deltas on ~1e7 W sums leaves O(1e-6) W of
  // accumulated rounding; 1e-3 W is far above that yet far below any
  // physically meaningful load difference.
  constexpr double kToleranceWatts = 1e-3;
  const std::uint64_t base =
      static_cast<std::uint64_t>(GetParam()) * kSeedsPerShard;
  for (std::uint64_t seed = base; seed < base + kSeedsPerShard; ++seed) {
    Rng rng(0x1caa6b11ull ^ (seed * 0x9e3779b97f4a7c15ull));

    // Random room shape per seed.
    RoomConfig config;
    config.num_ups = 3 + static_cast<int>(rng.NextU64() % 6);  // 3..8
    config.redundancy_y = config.num_ups - 1;
    config.ups_capacity = MegaWatts(2.0);
    config.pdu_pairs_per_ups_pair = 1 + static_cast<int>(rng.NextU64() % 3);
    const RoomTopology room{config};
    const auto num_pairs = static_cast<std::size_t>(room.NumPduPairs());

    power::IncrementalUpsLoads agg(room);
    power::PduPairLoads shadow(num_pairs, Watts(0.0));
    power::UpsId failed = -1;

    const auto check = [&](const char* op, int step) {
      // The PDU sums see the identical `+=` sequence as the shadow, so
      // they must match bit for bit.
      for (std::size_t p = 0; p < num_pairs; ++p) {
        ASSERT_EQ(agg.PduLoads()[p].value(), shadow[p].value())
            << "seed " << seed << " step " << step << " (" << op
            << ") pair " << p;
      }
      // The UPS sums may carry bounded `+= delta` rounding drift
      // relative to the fresh left-to-right brute-force sum.
      const std::vector<Watts> brute =
          failed < 0 ? power::NormalUpsLoads(room, shadow)
                     : power::FailoverUpsLoads(room, shadow, failed);
      ASSERT_EQ(agg.UpsLoads().size(), brute.size());
      for (std::size_t u = 0; u < brute.size(); ++u) {
        ASSERT_NEAR(agg.UpsLoads()[u].value(), brute[u].value(),
                    kToleranceWatts)
            << "seed " << seed << " step " << step << " (" << op
            << ") ups " << u << " after " << agg.delta_count() << " deltas";
      }
      ASSERT_LE(agg.MaxUpsErrorWatts(), kToleranceWatts)
          << "seed " << seed << " step " << step << " (" << op << ")";
    };

    for (int step = 0; step < kSteps; ++step) {
      const double dice = rng.NextDouble();
      if (dice < 0.08) {
        // Failover edge: fail a random UPS, or restore if one is down.
        failed = (failed >= 0 && rng.NextDouble() < 0.5)
                     ? -1
                     : static_cast<power::UpsId>(
                           rng.NextU64() %
                           static_cast<std::uint64_t>(room.NumUpses()));
        agg.SetFailedUps(failed);
        check("SetFailedUps", step);
      } else if (dice < 0.12) {
        // Exact resync: afterwards the running sums must equal the
        // rescan bit for bit, not just within tolerance.
        agg.Resync();
        const std::vector<Watts> rescan = agg.RescanUpsLoads();
        for (std::size_t u = 0; u < rescan.size(); ++u) {
          ASSERT_EQ(agg.UpsLoads()[u].value(), rescan[u].value())
              << "seed " << seed << " step " << step << " ups " << u;
        }
        check("Resync", step);
      } else if (dice < 0.15) {
        // Wholesale replacement (the workload-step path).
        for (std::size_t p = 0; p < num_pairs; ++p)
          shadow[p] = KiloWatts(rng.Uniform(0.0, 400.0));
        agg.SetAllPduLoads(shadow);
        check("SetAllPduLoads", step);
      } else {
        // The common case: one rack-sized power delta on one PDU pair,
        // clamped so the pair's load stays non-negative.
        const std::size_t p =
            static_cast<std::size_t>(rng.NextU64() % num_pairs);
        double delta_w = rng.Uniform(-30'000.0, 30'000.0);
        if (shadow[p].value() + delta_w < 0.0)
          delta_w = -shadow[p].value();
        shadow[p] += Watts(delta_w);
        agg.ApplyDelta(static_cast<power::PduPairId>(p), Watts(delta_w));
        check("ApplyDelta", step);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoHundredSeeds, IncrementalAggregationWalkTest,
                         ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Fault fuzzing: for any fault plan inside the paper's tolerated
// envelope, the online stack must keep every safety invariant — no UPS
// trips, no illegal rack action, no unsafe release, no missed overload.
// Every plan runs on the fuzz room, a real emulation room whose
// failovers push the survivors up to ~1.4x rated. Sharded so ctest runs
// the 200-seed sweep in parallel; a failure prints the offending seed
// and its full fault plan for replay.
// ---------------------------------------------------------------------------

constexpr int kSeedsPerShard = 25;
constexpr int kSweepSeeds = 8 * kSeedsPerShard;

bool
HasUpsTrip(const fault::FaultRunReport& report)
{
  for (const fault::Violation& violation : report.violations) {
    if (violation.invariant == "ups-trip")
      return true;
  }
  return false;
}

class FaultFuzzSweepTest : public ::testing::TestWithParam<int> {
};

TEST_P(FaultFuzzSweepTest, RandomFaultPlansKeepAllSafetyInvariants)
{
  const std::uint64_t base =
      static_cast<std::uint64_t>(GetParam()) * kSeedsPerShard;
  const emulation::EmulationConfig config = fault::FuzzRoomConfig();
  for (std::uint64_t seed = base; seed < base + kSeedsPerShard; ++seed) {
    std::string plan_trace;
    const fault::FaultRunReport report =
        fault::RunFuzzedScenario(config, seed, &plan_trace);
    EXPECT_TRUE(report.violations.empty())
        << "invariant violation for seed " << seed
        << " — replay with RunFuzzedScenario(FuzzRoomConfig(), " << seed
        << ")\n"
        << "fault plan:\n"
        << plan_trace << "violations:\n"
        << report.violation_summary;
    // The room's own trip verdict and the monitor's agree.
    EXPECT_EQ(report.room.safety_violated, HasUpsTrip(report))
        << "seed " << seed;
    // The run must have exercised the room, not idled through it.
    EXPECT_GT(report.readings_delivered, 0u) << "seed " << seed;
    EXPECT_GT(report.room.events_executed, 0u) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(TwoHundredSeeds, FaultFuzzSweepTest,
                         ::testing::Range(0, 8));

// Outside the envelope the same sweep must be able to fail. Each
// variant breaks one assumption of the fault model on the same seeds
// and room; a sweep that stays green here could not catch a real bug.

/** A fault that begins at 0.5 s and lasts for the whole run. */
fault::FaultEvent
WholeRunFault(fault::FaultKind kind, int target)
{
  fault::FaultEvent event;
  event.at = Seconds(0.5);
  event.kind = kind;
  event.target = target;
  return event;
}

/**
 * Runs every sweep seed's fuzzed plan, edited by @p edit, and returns
 * how many seeds reported a violation (@p trips_only: a ups-trip).
 */
int
SeedsViolating(const std::function<fault::FaultPlan(const fault::FaultPlan&)>&
                   edit,
               bool trips_only)
{
  int violating = 0;
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    emulation::EmulationConfig config = fault::FuzzRoomConfig();
    config.seed = seed;
    emulation::RoomEmulation room(config);
    fault::FaultPlan plan = edit(fault::FuzzedPlan(room));
    plan.SortByTime();
    const fault::FaultRunReport report = fault::RunPlan(room, plan);
    EXPECT_EQ(report.room.safety_violated, HasUpsTrip(report))
        << "seed " << seed;
    if (trips_only ? HasUpsTrip(report) : !report.violations.empty())
      ++violating;
  }
  return violating;
}

TEST(FaultFuzzEnvelopeTest, PausingEveryReplicaTripsAUps)
{
  // No controller ever answers: the failovers' overloads run into the
  // trip curve.
  const int tripped = SeedsViolating(
      [](const fault::FaultPlan& fuzzed) {
        fault::FaultPlan plan;
        for (const fault::FaultEvent& event : fuzzed.events()) {
          if (event.kind != fault::FaultKind::kControllerPause)
            plan.Add(event);  // its repair would wake a replica
        }
        for (int replica = 0;
             replica < fault::FuzzRoomConfig().num_controllers; ++replica) {
          plan.Add(WholeRunFault(fault::FaultKind::kControllerPause, replica));
        }
        return plan;
      },
      /*trips_only=*/true);
  EXPECT_GT(tripped, 0) << "no seed tripped a UPS with every replica paused";
}

TEST(FaultFuzzEnvelopeTest, BlindingTheControllersToOneUpsViolates)
{
  // All three of UPS 1's meters fail: the quorum is gone and the
  // controllers never see that UPS overloaded.
  const int violating = SeedsViolating(
      [](const fault::FaultPlan& fuzzed) {
        fault::FaultPlan plan = fuzzed;
        for (int meter = 0; meter < 3; ++meter) {
          fault::FaultEvent event =
              WholeRunFault(fault::FaultKind::kMeterFailure, 1);
          event.device_kind = telemetry::DeviceKind::kUps;
          event.meter_index = meter;
          plan.Add(event);
        }
        return plan;
      },
      /*trips_only=*/false);
  EXPECT_GT(violating, 0) << "no seed violated with UPS 1 unmetered";
}

}  // namespace
}  // namespace flex
