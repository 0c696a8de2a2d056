#include "topology.hpp"

#include "common/error.hpp"

namespace flex::power {

RoomConfig
RoomConfig::EvaluationRoom()
{
  RoomConfig config;
  config.num_ups = 4;
  config.redundancy_y = 3;
  config.ups_capacity = MegaWatts(2.4);
  config.pdu_pairs_per_ups_pair = 2;
  config.rows_per_pdu_pair = 3;
  config.racks_per_row = 20;
  return config;
}

RoomConfig
RoomConfig::EmulationRoom()
{
  RoomConfig config;
  config.num_ups = 4;
  config.redundancy_y = 3;
  config.ups_capacity = MegaWatts(1.2);
  config.pdu_pairs_per_ups_pair = 2;
  config.rows_per_pdu_pair = 3;
  config.racks_per_row = 10;
  return config;
}

RoomTopology::RoomTopology(const RoomConfig& config)
    : config_(config), trip_curve_(TripCurve::ForBatteryLife(kRoomBatteryLife))
{
  FLEX_REQUIRE(config_.num_ups >= 2, "need at least two UPSes");
  FLEX_REQUIRE(config_.redundancy_y >= 1 &&
                   config_.redundancy_y < config_.num_ups,
               "xN/y requires 1 <= y < x");
  FLEX_REQUIRE(config_.ups_capacity > Watts(0.0), "UPS capacity must be positive");
  FLEX_REQUIRE(config_.pdu_pairs_per_ups_pair >= 1,
               "need at least one PDU pair per UPS pair");
  FLEX_REQUIRE(config_.rows_per_pdu_pair >= 1, "need rows per PDU pair");
  FLEX_REQUIRE(config_.racks_per_row >= 1, "need racks per row");
  FLEX_REQUIRE(config_.pdu_rating > Watts(0.0),
               "PDU rating must be positive");

  // Balanced design: every unordered UPS pair backs the same number of
  // PDU pairs. This is what makes FailoverShare uniform and lets the room
  // tolerate any single UPS loss symmetrically.
  ups_to_pdus_.resize(static_cast<std::size_t>(config_.num_ups));
  for (int a = 0; a < config_.num_ups; ++a) {
    for (int b = a + 1; b < config_.num_ups; ++b) {
      for (int k = 0; k < config_.pdu_pairs_per_ups_pair; ++k) {
        const PduPairId p = static_cast<PduPairId>(pdu_to_ups_.size());
        pdu_to_ups_.push_back({a, b});
        ups_to_pdus_[static_cast<std::size_t>(a)].push_back(p);
        ups_to_pdus_[static_cast<std::size_t>(b)].push_back(p);
      }
    }
  }
}

int
RoomTopology::NumRows() const
{
  return NumPduPairs() * config_.rows_per_pdu_pair;
}

int
RoomTopology::RackSlotsPerPduPair() const
{
  return config_.rows_per_pdu_pair * config_.racks_per_row;
}

Watts
RoomTopology::UpsCapacity(UpsId u) const
{
  FLEX_REQUIRE(u >= 0 && u < NumUpses(), "UPS id out of range");
  return config_.ups_capacity;
}

Watts
RoomTopology::TotalProvisionedPower() const
{
  return config_.ups_capacity * static_cast<double>(config_.num_ups);
}

Watts
RoomTopology::FailoverBudget() const
{
  return TotalProvisionedPower() *
         (static_cast<double>(config_.redundancy_y) /
          static_cast<double>(config_.num_ups));
}

Watts
RoomTopology::ReservedPower() const
{
  return TotalProvisionedPower() - FailoverBudget();
}

std::pair<UpsId, UpsId>
RoomTopology::UpsesOfPduPair(PduPairId p) const
{
  FLEX_REQUIRE(p >= 0 && p < NumPduPairs(), "PDU pair id out of range");
  return pdu_to_ups_[static_cast<std::size_t>(p)];
}

const std::vector<PduPairId>&
RoomTopology::PduPairsOfUps(UpsId u) const
{
  FLEX_REQUIRE(u >= 0 && u < NumUpses(), "UPS id out of range");
  return ups_to_pdus_[static_cast<std::size_t>(u)];
}

PduPairId
RoomTopology::PduPairOfRow(RowId r) const
{
  FLEX_REQUIRE(r >= 0 && r < NumRows(), "row id out of range");
  return r / config_.rows_per_pdu_pair;
}

std::vector<RowId>
RoomTopology::RowsOfPduPair(PduPairId p) const
{
  FLEX_REQUIRE(p >= 0 && p < NumPduPairs(), "PDU pair id out of range");
  std::vector<RowId> rows;
  rows.reserve(static_cast<std::size_t>(config_.rows_per_pdu_pair));
  for (int i = 0; i < config_.rows_per_pdu_pair; ++i)
    rows.push_back(p * config_.rows_per_pdu_pair + i);
  return rows;
}

double
RoomTopology::FailoverShare(UpsId f, UpsId u) const
{
  FLEX_REQUIRE(f >= 0 && f < NumUpses(), "UPS id out of range");
  FLEX_REQUIRE(u >= 0 && u < NumUpses(), "UPS id out of range");
  if (f == u)
    return 0.0;
  // Balanced design: f's PDU pairs are spread evenly over the other x-1
  // UPSes, so each survivor takes an equal share of f's load.
  return 1.0 / static_cast<double>(config_.num_ups - 1);
}

}  // namespace flex::power
