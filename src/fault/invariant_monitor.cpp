#include "invariant_monitor.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "obs/log.hpp"

namespace flex::fault {

namespace {

/**
 * How long the room may have been unsafe before a release decision
 * counts as a violation of (c). Covers end-to-end telemetry latency:
 * a release racing a brand-new failover inside this window is an
 * unavoidable (and self-correcting) stale-data decision.
 */
constexpr Seconds kReleaseGrace = Seconds(5.0);
/** Deadline for (d): sustained overload must see some action by then. */
constexpr Seconds kResponseDeadline = Seconds(15.0);
/** Relative slack on the load fraction before "unsafe" (meter noise). */
constexpr double kOverloadEpsilon = 1e-9;

}  // namespace

InvariantMonitor::InvariantMonitor(
    sim::EventQueue& queue, const power::RoomTopology& topology,
    std::vector<workload::Category> rack_categories,
    const actuation::ActuationPlane& plane,
    std::function<std::vector<Watts>()> true_ups_loads, MonitorConfig config)
    : queue_(queue),
      topology_(topology),
      categories_(std::move(rack_categories)),
      plane_(plane),
      true_ups_loads_(std::move(true_ups_loads)),
      config_(config)
{
  FLEX_REQUIRE(static_cast<int>(categories_.size()) == plane_.num_racks(),
               "one workload category per rack required");
  FLEX_REQUIRE(static_cast<bool>(true_ups_loads_),
               "monitor needs a ground-truth UPS load source");
  overload_since_.assign(static_cast<std::size_t>(topology_.NumUpses()), -1.0);
  trip_reported_.assign(overload_since_.size(), false);
  cap_reported_.assign(categories_.size(), false);
  if (config_.obs != nullptr) {
    violations_metric_ = &config_.obs->metrics().counter("invariants.violations");
    recorder_ = &config_.obs->recorder();
  }
}

void
InvariantMonitor::AddController(const online::FlexController* controller)
{
  FLEX_REQUIRE(controller != nullptr, "null controller");
  controllers_.push_back(controller);
}

void
InvariantMonitor::Attach()
{
  if (observer_id_ != 0)
    return;  // already attached
  observer_id_ = queue_.AddObserver([this](Seconds) { Check(); });
}

void
InvariantMonitor::Detach()
{
  if (observer_id_ == 0)
    return;
  queue_.RemoveObserver(observer_id_);
  observer_id_ = 0;
}

std::size_t
InvariantMonitor::TotalReleaseCommands() const
{
  std::size_t total = 0;
  for (const auto* controller : controllers_) {
    total += static_cast<std::size_t>(controller->stats().uncap_commands) +
             static_cast<std::size_t>(controller->stats().restore_commands);
  }
  return total;
}

bool
InvariantMonitor::AnyControllerActed() const
{
  for (const auto* controller : controllers_) {
    if (controller->actions_in_force())
      return true;
  }
  return false;
}

void
InvariantMonitor::AddViolation(const char* invariant,
                               const std::string& message)
{
  violations_.push_back({queue_.Now(), invariant, message});
  FLEX_LOG(obs::LogLevel::kError, "invariant", "[%s] %s", invariant,
           message.c_str());
  if (violations_metric_ != nullptr)
    violations_metric_->Increment();
  if (recorder_ != nullptr)
    recorder_->Record(queue_.Now(), obs::RecordKind::kViolation, -1, -1, 0.0,
                      std::string("[") + invariant + "] " + message);
}

void
InvariantMonitor::Check()
{
  ++checks_run_;
  const double now = queue_.Now().value();
  const std::vector<Watts> loads = true_ups_loads_();
  FLEX_CHECK_MSG(static_cast<int>(loads.size()) == topology_.NumUpses(),
                 "ground-truth load vector has wrong arity");

  // (a) trip safety, per UPS. An episode's duration is measured from the
  // instant the UPS first went above rated load; the tolerance is taken
  // at the *current* fraction, which is conservative when the overload
  // deepened mid-episode and exact for flat overloads.
  bool any_overloaded = false;
  for (std::size_t u = 0; u < loads.size(); ++u) {
    const double capacity =
        topology_.UpsCapacity(static_cast<power::UpsId>(u)).value();
    const double fraction = capacity > 0.0 ? loads[u].value() / capacity : 0.0;
    if (fraction > worst_fraction_)
      worst_fraction_ = fraction;
    if (fraction > 1.0 + kOverloadEpsilon) {
      any_overloaded = true;
      if (overload_since_[u] < 0.0)
        overload_since_[u] = now;
      const Seconds held(now - overload_since_[u]);
      if (!trip_reported_[u] &&
          topology_.trip_curve().Exceeds(fraction, held)) {
        char buffer[160];
        std::snprintf(buffer, sizeof(buffer),
                      "UPS %zu at %.3fx rated for %.2fs exceeds trip curve "
                      "(tolerates %.2fs)",
                      u, fraction, held.value(),
                      topology_.trip_curve().ToleranceAt(fraction).value());
        AddViolation("ups-trip", buffer);
        trip_reported_[u] = true;
      }
    } else {
      overload_since_[u] = -1.0;
      trip_reported_[u] = false;
    }
  }

  // (b) action legality, per rack. Caps are legal only on cap-able
  // racks; power-off is legal only on software-redundant racks.
  for (int r = 0; r < plane_.num_racks(); ++r) {
    const actuation::RackState& state = plane_.rack(r).state();
    const workload::Category category =
        categories_[static_cast<std::size_t>(r)];
    const bool illegal_cap =
        state.power_cap.has_value() &&
        category != workload::Category::kNonRedundantCapable;
    const bool illegal_off =
        !state.powered_on &&
        category != workload::Category::kSoftwareRedundant;
    if (illegal_cap || illegal_off) {
      if (!cap_reported_[static_cast<std::size_t>(r)]) {
        char buffer[128];
        std::snprintf(buffer, sizeof(buffer),
                      "rack %d (category %d) illegally %s", r,
                      static_cast<int>(category),
                      illegal_cap ? "power-capped" : "shut down");
        AddViolation("illegal-action", buffer);
        cap_reported_[static_cast<std::size_t>(r)] = true;
      }
    } else {
      cap_reported_[static_cast<std::size_t>(r)] = false;
    }
  }

  // (c) + (d): room-level unsafe episodes.
  if (!any_overloaded) {
    unsafe_since_ = -1.0;
    missed_reported_ = false;
    // Releases while the room is safe are always fine.
    seen_release_commands_ = TotalReleaseCommands();
    return;
  }
  if (unsafe_since_ < 0.0)
    unsafe_since_ = now;
  const double unsafe_for = now - unsafe_since_;

  const std::size_t releases = TotalReleaseCommands();
  if (releases > seen_release_commands_) {
    // A release decided while the room has been unsafe longer than the
    // telemetry-staleness grace window means the controller released
    // without real headroom: invariant (c).
    if (unsafe_for > kReleaseGrace.value()) {
      char buffer[128];
      std::snprintf(buffer, sizeof(buffer),
                    "%zu release command(s) issued while room unsafe for "
                    "%.2fs (> %.2fs grace)",
                    releases - seen_release_commands_, unsafe_for,
                    kReleaseGrace.value());
      AddViolation("unsafe-release", buffer);
    }
    seen_release_commands_ = releases;
  }

  // (d) A sustained overload must be answered by *some* replica.
  // Overcorrection is acceptable; silence past the deadline is not.
  if (!missed_reported_ && unsafe_for > kResponseDeadline.value() &&
      !AnyControllerActed()) {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer),
                  "room unsafe for %.2fs (> %.2fs deadline) with no "
                  "controller action in force",
                  unsafe_for, kResponseDeadline.value());
    AddViolation("missed-overload", buffer);
    missed_reported_ = true;
  }
}

std::string
InvariantMonitor::Summary() const
{
  std::string out;
  for (const Violation& violation : violations_) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "t=%.3f [%s] ",
                  violation.at.value(), violation.invariant.c_str());
    out += buffer;
    out += violation.message;
    out += '\n';
  }
  return out;
}

}  // namespace flex::fault
