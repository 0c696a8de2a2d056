/**
 * @file
 * Tests for the cooling redundancy substrate (Section VI): thermal
 * dynamics, the minutes-scale mitigation window, and the
 * migrate-then-cap mitigation ladder.
 */
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "cooling/cooling_domain.hpp"
#include "sim/event_queue.hpp"

namespace flex::cooling {
namespace {

CoolingDomainConfig
DefaultConfig()
{
  // 4 units x 3.2 MW = 12.8 MW cooling for a 9.6 MW room: N+1-ish.
  return CoolingDomainConfig{};
}

TEST(CoolingDomainTest, HealthyDomainHoldsSupplyTemperature)
{
  CoolingDomain domain(DefaultConfig());
  for (int i = 0; i < 600; ++i)
    domain.Advance(MegaWatts(9.6), Seconds(1.0));
  EXPECT_NEAR(domain.temperature_c(), 22.0, 0.1);
  EXPECT_FALSE(domain.Overheated());
}

TEST(CoolingDomainTest, SingleUnitLossIsAbsorbedByRedundancy)
{
  CoolingDomain domain(DefaultConfig());
  domain.SetUnitFailed(0, true);
  // 3 x 3.2 = 9.6 MW still covers the 9.6 MW load.
  EXPECT_NEAR(domain.AvailableCooling().megawatts(), 9.6, 1e-9);
  for (int i = 0; i < 600; ++i)
    domain.Advance(MegaWatts(9.6), Seconds(1.0));
  EXPECT_FALSE(domain.Overheated());
  EXPECT_GE(domain.TimeToOverheat(MegaWatts(9.6)).value(), 1e6);
}

TEST(CoolingDomainTest, DeficitWarmsTheRoomGradually)
{
  CoolingDomain domain(DefaultConfig());
  domain.SetUnitFailed(0, true);
  domain.SetUnitFailed(1, true);  // 6.4 MW cooling vs 9.6 MW load
  const double before = domain.temperature_c();
  domain.Advance(MegaWatts(9.6), Minutes(1.0));
  EXPECT_GT(domain.temperature_c(), before);
  EXPECT_FALSE(domain.Overheated());  // one minute is not enough to trip
}

TEST(CoolingDomainTest, MitigationWindowIsMinutesNotSeconds)
{
  // The paper's contrast: power failover gives ~10 s; cooling loss gives
  // several minutes.
  CoolingDomain domain(DefaultConfig());
  domain.SetUnitFailed(0, true);
  domain.SetUnitFailed(1, true);
  const Seconds window = domain.TimeToOverheat(MegaWatts(9.6));
  EXPECT_GT(window.value(), 120.0);   // minutes...
  EXPECT_LT(window.value(), 3600.0);  // ...not unbounded
}

TEST(CoolingDomainTest, RecoversTowardSupplyAfterRepair)
{
  CoolingDomain domain(DefaultConfig());
  domain.SetUnitFailed(0, true);
  domain.SetUnitFailed(1, true);
  domain.Advance(MegaWatts(9.6), Minutes(5.0));
  const double hot = domain.temperature_c();
  ASSERT_GT(hot, 22.5);
  domain.SetUnitFailed(0, false);
  domain.SetUnitFailed(1, false);
  domain.Advance(MegaWatts(9.6), Minutes(10.0));
  EXPECT_LT(domain.temperature_c(), hot);
  EXPECT_NEAR(domain.temperature_c(), 22.0, 0.5);
}

TEST(CoolingDomainTest, Validation)
{
  CoolingDomainConfig bad = DefaultConfig();
  bad.num_units = 0;
  EXPECT_THROW(CoolingDomain{bad}, ConfigError);
  bad = DefaultConfig();
  bad.max_safe_temperature_c = 20.0;  // below supply
  EXPECT_THROW(CoolingDomain{bad}, ConfigError);
  CoolingDomain domain(DefaultConfig());
  EXPECT_THROW(domain.SetUnitFailed(9, true), ConfigError);
  EXPECT_THROW(domain.Advance(Watts(-1.0), Seconds(1.0)), ConfigError);
}

class HandlerTest : public ::testing::Test {
 protected:
  HandlerTest() : domain_(DefaultConfig()) {}

  void
  MakeHandler(Watts load)
  {
    load_ = load;
    handler_ = std::make_unique<CoolingFailureHandler>(
        queue_, domain_, [this] { return load_; },
        [this](Watts cut) { last_cut_ = cut; });
    handler_->Start();
    // Thermal integration alongside the handler's checks.
    queue_.SchedulePeriodic(Seconds(1.0), [this] {
      domain_.Advance(handler_->EffectiveLoad(), Seconds(1.0));
      return true;
    });
  }

  sim::EventQueue queue_;
  CoolingDomain domain_;
  std::unique_ptr<CoolingFailureHandler> handler_;
  Watts load_{0.0};
  Watts last_cut_{0.0};
};

TEST_F(HandlerTest, NoDeficitMeansNoAction)
{
  MakeHandler(MegaWatts(9.6));
  domain_.SetUnitFailed(0, true);  // redundancy absorbs it
  queue_.RunUntil(Minutes(10.0));
  EXPECT_EQ(handler_->flex_engagements(), 0);
  EXPECT_NEAR(handler_->migrated_load().value(), 0.0, 1e-9);
  EXPECT_FALSE(domain_.Overheated());
}

TEST_F(HandlerTest, MigrationResolvesAModerateDeficit)
{
  MakeHandler(MegaWatts(9.6));
  domain_.SetUnitFailed(0, true);
  domain_.SetUnitFailed(1, true);  // 6.4 MW cooling vs 9.6 MW load
  queue_.RunUntil(Minutes(10.0));
  // Migration moved 40%: 5.76 MW remaining fits under 6.4 MW cooling.
  EXPECT_GT(handler_->migrated_load().megawatts(), 3.0);
  EXPECT_EQ(handler_->flex_engagements(), 0);  // never needed Flex
  EXPECT_FALSE(domain_.Overheated());
}

TEST_F(HandlerTest, SevereDeficitEngagesFlexCapping)
{
  MakeHandler(MegaWatts(9.6));
  domain_.SetUnitFailed(0, true);
  domain_.SetUnitFailed(1, true);
  domain_.SetUnitFailed(2, true);  // 3.2 MW cooling vs 9.6 MW load
  queue_.RunUntil(Minutes(10.0));
  // Migration (40%) leaves 5.76 MW > 3.2 MW: Flex must shave the rest.
  EXPECT_GT(handler_->flex_engagements(), 0);
  EXPECT_GT(last_cut_.megawatts(), 1.0);
}

TEST_F(HandlerTest, MigratedLoadDrainsBackAfterRepair)
{
  MakeHandler(MegaWatts(9.6));
  domain_.SetUnitFailed(0, true);
  domain_.SetUnitFailed(1, true);
  queue_.RunUntil(Minutes(10.0));
  ASSERT_GT(handler_->migrated_load().value(), 0.0);
  domain_.SetUnitFailed(0, false);
  domain_.SetUnitFailed(1, false);
  queue_.RunUntil(Minutes(20.0));
  EXPECT_NEAR(handler_->migrated_load().value(), 0.0, 1e-9);
}

}  // namespace
}  // namespace flex::cooling
