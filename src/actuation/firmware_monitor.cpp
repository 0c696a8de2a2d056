#include "firmware_monitor.hpp"

#include <utility>

#include "common/error.hpp"

namespace flex::actuation {

FirmwareMonitor::FirmwareMonitor(sim::EventQueue& queue,
                                 ActuationPlane& plane,
                                 FirmwareMonitorConfig config,
                                 std::uint64_t seed)
    : queue_(queue), plane_(plane), config_(config), rng_(seed)
{
  FLEX_REQUIRE(config_.probe_period.value() > 0.0,
               "probe period must be positive");
  FLEX_REQUIRE(config_.fake_action_fraction >= 0.0 &&
                   config_.fake_action_fraction <= 1.0,
               "fake action fraction must be in [0, 1]");
}

void
FirmwareMonitor::OnWarning(WarningCallback callback)
{
  FLEX_REQUIRE(static_cast<bool>(callback), "null warning callback");
  callbacks_.push_back(std::move(callback));
}

void
FirmwareMonitor::Start()
{
  FLEX_REQUIRE(!running_, "monitor already started");
  running_ = true;
  queue_.SchedulePeriodic(config_.probe_period, [this] {
    if (!running_)
      return false;
    Sweep();
    return true;
  });
}

void
FirmwareMonitor::Stop()
{
  running_ = false;
}

void
FirmwareMonitor::Warn(int rack_id, std::string reason)
{
  MonitorWarning warning{rack_id, std::move(reason), queue_.Now()};
  warnings_.push_back(warning);
  for (const WarningCallback& callback : callbacks_)
    callback(warning);
}

void
FirmwareMonitor::Sweep()
{
  for (int r = 0; r < plane_.num_racks(); ++r) {
    RackManager& rm = plane_.rack(r);
    if (rm.unreachable()) {
      Warn(r, "rack manager unreachable");
      continue;
    }
    if (rm.firmware_stale()) {
      Warn(r, "firmware regression detected");
      continue;
    }
    // Exercise a fake action on a sample of healthy racks: a no-op cap
    // change that exists purely to prove the control path end to end.
    if (rng_.Bernoulli(config_.fake_action_fraction)) {
      const auto previous_cap = rm.state().power_cap;
      auto restore = [&rm, previous_cap, this, r](bool ok) {
        if (!ok) {
          Warn(r, "fake action failed");
          return;
        }
        if (previous_cap)
          rm.Throttle(*previous_cap, [](bool) {});
        else
          rm.RemoveCap([](bool) {});
      };
      rm.Throttle(Watts(1e9), restore);  // effectively a no-op cap
    }
  }
  ++sweeps_;
}

}  // namespace flex::actuation
