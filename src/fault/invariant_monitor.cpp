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

}  // namespace

InvariantMonitor::InvariantMonitor(
    sim::EventQueue& queue, const power::RoomTopology& topology,
    std::vector<workload::Category> rack_categories,
    const actuation::ActuationPlane& plane,
    const std::vector<Watts>& true_ups_loads, MonitorConfig config)
    : queue_(queue),
      topology_(topology),
      categories_(std::move(rack_categories)),
      plane_(plane),
      true_ups_loads_(true_ups_loads),
      config_(config),
      watch_(topology)
{
  FLEX_REQUIRE(static_cast<int>(categories_.size()) == plane_.num_racks(),
               "one workload category per rack required");
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
InvariantMonitor::AddViolation(Seconds at, const char* invariant,
                               const std::string& message)
{
  violations_.push_back({at, invariant, message});
  FLEX_LOG_AT(at, obs::LogLevel::kError, "invariant", "[%s] %s", invariant,
              message.c_str());
  if (violations_metric_ != nullptr)
    violations_metric_->Increment();
  if (recorder_ != nullptr)
    recorder_->Record(at, obs::RecordKind::kViolation, -1, -1, 0.0,
                      std::string("[") + invariant + "] " + message);
}

void
InvariantMonitor::Check()
{
  ++checks_run_;
  const double now = queue_.Now().value();
  FLEX_CHECK_MSG(
      static_cast<int>(true_ups_loads_.size()) == topology_.NumUpses(),
      "ground-truth load vector has wrong arity");

  // (a) trip safety, per UPS. Loads change only at events and this runs
  // after every event, so the watch sees the whole trajectory: it closes
  // the interval since the last check and reports any trip in it at the
  // instant the overload outlasted its tolerance.
  watch_.Observe(queue_.Now(), true_ups_loads_);
  for (; trips_reported_ < watch_.trips().size(); ++trips_reported_) {
    const power::Trip& trip = watch_.trips()[trips_reported_];
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "UPS %d at %.3fx rated trips %.2fs into an overload from "
                  "t=%.2fs (tolerates %.2fs)",
                  trip.ups, trip.fraction, (trip.at - trip.since).value(),
                  trip.since.value(),
                  topology_.trip_curve().ToleranceAt(trip.fraction).value());
    AddViolation(trip.at, "ups-trip", buffer);
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
        AddViolation(queue_.Now(), "illegal-action", buffer);
        cap_reported_[static_cast<std::size_t>(r)] = true;
      }
    } else {
      cap_reported_[static_cast<std::size_t>(r)] = false;
    }
  }

  // (c) + (d): room-level unsafe episodes.
  if (!watch_.overloaded()) {
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
      AddViolation(queue_.Now(), "unsafe-release", buffer);
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
    AddViolation(queue_.Now(), "missed-overload", buffer);
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
