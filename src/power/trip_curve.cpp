#include "trip_curve.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "power/topology.hpp"

namespace flex::power {

TripCurve::TripCurve(PiecewiseLinear tolerance)
    : tolerance_(std::move(tolerance))
{
  FLEX_REQUIRE(!tolerance_.empty(), "trip curve needs breakpoints");
}

TripCurve
TripCurve::ForBatteryLife(BatteryLife life)
{
  // Fig. 6 shape: tolerance in seconds vs. load fraction. The end-of-life
  // battery provides 10 s at the worst-case 133% failover load; the
  // begin-of-life battery is roughly 3x more tolerant across the range.
  switch (life) {
    case BatteryLife::kEndOfLife:
      return TripCurve(PiecewiseLinear{{1.00, 210.0},
                                       {1.10, 60.0},
                                       {1.20, 25.0},
                                       {1.33, 10.0},
                                       {1.50, 4.0},
                                       {2.00, 1.0}});
    case BatteryLife::kBeginOfLife:
      return TripCurve(PiecewiseLinear{{1.00, 630.0},
                                       {1.10, 180.0},
                                       {1.20, 75.0},
                                       {1.33, 30.0},
                                       {1.50, 12.0},
                                       {2.00, 3.0}});
  }
  FLEX_CONFIG_ERROR("unknown battery life stage");
}

Seconds
TripCurve::ToleranceAt(double load_fraction) const
{
  FLEX_REQUIRE(load_fraction >= 0.0, "negative load fraction");
  if (load_fraction <= 1.0)
    return Indefinite();
  return Seconds(tolerance_(load_fraction));
}

namespace {

std::vector<Watts>
UpsCapacities(const RoomTopology& topology)
{
  std::vector<Watts> capacities;
  for (UpsId u = 0; u < topology.NumUpses(); ++u)
    capacities.push_back(topology.UpsCapacity(u));
  return capacities;
}

}  // namespace

TripWatch::TripWatch(TripCurve curve, std::vector<Watts> capacities)
    : curve_(std::move(curve))
{
  ups_.reserve(capacities.size());
  for (const Watts capacity : capacities) {
    FLEX_REQUIRE(capacity.value() > 0.0, "UPS capacity must be positive");
    ups_.push_back({capacity.value()});
  }
}

TripWatch::TripWatch(const RoomTopology& topology)
    : TripWatch(topology.trip_curve(), UpsCapacities(topology))
{
}

void
TripWatch::Observe(Seconds now, const std::vector<Watts>& loads)
{
  FLEX_REQUIRE(loads.size() == ups_.size(), "one load per watched UPS");
  CloseAt(now);
  last_ = now.value();
  ++observations_;
  overloaded_ = false;
  for (std::size_t u = 0; u < ups_.size(); ++u) {
    ups_[u].fraction = loads[u].value() / ups_[u].capacity_w;
    overloaded_ = overloaded_ || ups_[u].fraction > 1.0;
  }
}

void
TripWatch::CloseAt(Seconds now)
{
  if (observations_ == 0)
    return;  // nothing adopted yet, so no interval is open
  const double end = now.value();
  FLEX_REQUIRE(end >= last_, "trip watch time must not decrease");
  if (end == last_)
    return;  // a zero-length interval counts for nothing
  for (std::size_t u = 0; u < ups_.size(); ++u) {
    UpsState& ups = ups_[u];
    if (ups.fraction <= 1.0) {
      ups.in_episode = false;
      continue;
    }
    if (!ups.in_episode) {
      ups.in_episode = true;
      ups.tripped = false;
      ups.since = last_;
    }
    const double elapsed = end - ups.since;
    worst_fraction_ = std::max(worst_fraction_, ups.fraction);
    longest_overload_ = std::max(longest_overload_, elapsed);
    if (ups.tripped)
      continue;
    const double tolerance = curve_.ToleranceAt(ups.fraction).value();
    if (elapsed > tolerance) {
      ups.tripped = true;
      trips_.push_back({static_cast<int>(u),
                        Seconds(std::max(last_, ups.since + tolerance)),
                        Seconds(ups.since), ups.fraction});
    }
  }
  last_ = end;
}

double
TripWatch::fraction(int ups) const
{
  FLEX_REQUIRE(ups >= 0 && static_cast<std::size_t>(ups) < ups_.size(),
               "UPS id out of range");
  return ups_[static_cast<std::size_t>(ups)].fraction;
}

}  // namespace flex::power
