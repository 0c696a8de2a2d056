#include "scale_out.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flex::emulation {

namespace {

/** Time to spin up replacement capacity in the other AZ. */
constexpr Seconds kSpinUpDelay = Seconds(90.0);
/** Fraction of lost capacity the remote AZ can absorb (>= 1 = all). */
constexpr double kRemoteHeadroomFraction = 1.0;
/** Local boot time after the all-clear restores the racks. */
constexpr Seconds kLocalRecoveryDelay = Seconds(45.0);

}  // namespace

ScaleOutModel::ScaleOutModel(sim::EventQueue& queue, ScaleOutConfig config)
    : queue_(queue), config_(std::move(config))
{
  FLEX_REQUIRE(config_.local_racks > 0, "service needs local racks");
}

void
ScaleOutModel::OnNotification(const online::PowerEmergencyNotification& n)
{
  if (n.workload != config_.workload)
    return;
  if (n.cleared) {
    // All-clear: local racks boot back; remote capacity drains once they
    // are serving again.
    emergency_active_ = false;
    const std::uint64_t generation = ++generation_;
    queue_.Schedule(kLocalRecoveryDelay, [this, generation] {
      if (generation != generation_)
        return;  // a newer emergency superseded this recovery
      down_racks_.clear();
      remote_active_ = 0;
      remote_target_ = 0;
    });
    return;
  }

  emergency_active_ = true;
  for (const int rack : n.racks)
    down_racks_.insert(rack);
  // Spin up replacements in the other AZ, bounded by remote headroom.
  const int wanted = static_cast<int>(
      std::min<double>(static_cast<double>(down_racks_.size()),
                       kRemoteHeadroomFraction *
                           static_cast<double>(config_.local_racks)));
  if (wanted > remote_target_) {
    remote_target_ = wanted;
    const int delta = wanted;
    const std::uint64_t generation = ++generation_;
    queue_.Schedule(kSpinUpDelay, [this, generation, delta] {
      if (generation != generation_ || !emergency_active_)
        return;
      remote_active_ = std::max(remote_active_, delta);
    });
  }
}

void
ScaleOutModel::ObserveRackDown(int rack_id)
{
  if (down_racks_.count(rack_id))
    return;  // administratively down: the notification inhibits recovery
  if (!emergency_active_)
    return;  // normal operations (e.g. racks booting after an all-clear)
  // Unnotified loss during an emergency: the service's healing would
  // restart the rack, racing the Flex controller. Count the near-miss.
  ++attempted_restarts_;
}

double
ScaleOutModel::ServiceCapacityFraction() const
{
  const double local =
      static_cast<double>(config_.local_racks) -
      static_cast<double>(down_racks_.size());
  const double total = local + static_cast<double>(remote_active_);
  return std::max(0.0, total / static_cast<double>(config_.local_racks));
}

}  // namespace flex::emulation
