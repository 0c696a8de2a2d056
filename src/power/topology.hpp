/**
 * @file
 * Distributed-redundant datacenter room power topology.
 *
 * Models the paper's Fig. 2: an xN/y distributed-redundant UPS level
 * (4N/3 by default) feeding 2N-redundant PDU pairs, which feed rows of
 * racks. Every PDU pair is connected active-active to two distinct
 * upstream UPSes; in a balanced design each unordered UPS pair backs the
 * same number of PDU pairs, so a failed UPS sheds roughly 1/(x-1) of its
 * load to each surviving UPS.
 */
#ifndef FLEX_POWER_TOPOLOGY_HPP_
#define FLEX_POWER_TOPOLOGY_HPP_

#include <utility>
#include <vector>

#include "common/units.hpp"
#include "power/trip_curve.hpp"

namespace flex::power {

/** Identifier types; indices into the topology's component arrays. */
using UpsId = int;
using PduPairId = int;
using RowId = int;

/**
 * Battery aging every room's trip curves and UPS batteries are built
 * for: end of life, the paper's worst case (Fig. 6).
 */
inline constexpr BatteryLife kRoomBatteryLife = BatteryLife::kEndOfLife;

/** Configuration for building a RoomTopology. */
struct RoomConfig {
  /** Number of UPSes (the "x" in xN/y). */
  int num_ups = 4;
  /** Number of UPSes that must carry the room after one fails ("y"). */
  int redundancy_y = 3;
  /** Rated capacity of each UPS. */
  Watts ups_capacity = MegaWatts(2.4);
  /** PDU pairs per unordered UPS pair (balanced across all pairs). */
  int pdu_pairs_per_ups_pair = 2;
  /** Rows fed by each PDU pair. */
  int rows_per_pdu_pair = 3;
  /** Rack positions available per row. */
  int racks_per_row = 20;
  /**
   * Rating of each PDU. PDU pairs are 2N-redundant (Fig. 2): either PDU
   * must carry the whole pair load alone if its sibling fails, so the
   * pair's total allocation is capped at one PDU's rating. The default
   * is sized so UPS power, not PDU power, is the binding resource, as
   * in the paper; lower it to study PDU-bound rooms.
   */
  Watts pdu_rating = MegaWatts(1.6);
  /**
   * Cooling airflow available per row, in CFM. The default tracks the
   * paper's observation that cooling is overprovisioned for backward
   * compatibility and rarely binds.
   */
  double row_cooling_cfm = 1.0e9;

  /**
   * The paper's Section V-A evaluation room: 9.6 MW provisioned across
   * four 2.4 MW UPSes (4N/3), 12 PDU pairs, 36 rows.
   */
  static RoomConfig EvaluationRoom();

  /**
   * The paper's Section V-C emulation room: 4.8 MW across four 1.2 MW
   * UPSes, 36 rows of 10 racks (one emulated server per rack).
   */
  static RoomConfig EmulationRoom();
};

/**
 * Immutable description of one datacenter room's power delivery graph.
 *
 * The default configuration reproduces the paper's 9.6 MW evaluation
 * room: 4 UPSes of 2.4 MW (4N/3), 12 PDU pairs (2 per UPS-pair combo),
 * 36 rows of 10 racks.
 */
class RoomTopology {
 public:
  explicit RoomTopology(const RoomConfig& config);

  int NumUpses() const { return config_.num_ups; }
  int NumPduPairs() const { return static_cast<int>(pdu_to_ups_.size()); }
  int NumRows() const;
  int RacksPerRow() const { return config_.racks_per_row; }
  int RowsPerPduPair() const { return config_.rows_per_pdu_pair; }
  /** Rack positions under one PDU pair. */
  int RackSlotsPerPduPair() const;

  const RoomConfig& config() const { return config_; }

  /** Rated capacity of UPS @p u. */
  Watts UpsCapacity(UpsId u) const;

  /** Sum of all UPS capacities ("provisioned" power in the paper). */
  Watts TotalProvisionedPower() const;

  /**
   * The conventional (non-Flex) allocation limit: provisioned * y/x
   * (Section II-A). Load beyond this is only usable by Flex.
   */
  Watts FailoverBudget() const;

  /** Power reserved in a conventional room: provisioned - budget. */
  Watts ReservedPower() const;

  /** The two upstream UPSes of PDU pair @p p (active-active). */
  std::pair<UpsId, UpsId> UpsesOfPduPair(PduPairId p) const;

  /** PDU pairs connected to UPS @p u. */
  const std::vector<PduPairId>& PduPairsOfUps(UpsId u) const;

  /** The PDU pair feeding row @p r. */
  PduPairId PduPairOfRow(RowId r) const;

  /** Rows fed by PDU pair @p p. */
  std::vector<RowId> RowsOfPduPair(PduPairId p) const;

  /** Trip curve shared by all UPSes in the room. */
  const TripCurve& trip_curve() const { return trip_curve_; }

  /** Cooling airflow available per row (CFM). */
  double RowCoolingCfm() const { return config_.row_cooling_cfm; }

  /**
   * Maximum allocation under one PDU pair: a single PDU's rating, since
   * 2N redundancy requires either PDU to carry the pair alone.
   */
  Watts PduPairAllocationLimit() const { return config_.pdu_rating; }

  /**
   * Fraction of UPS @p f's load that lands on UPS @p u when f fails,
   * assuming load is balanced across f's PDU pairs (1/(x-1) in a
   * balanced design, 0 for u == f).
   */
  double FailoverShare(UpsId f, UpsId u) const;

 private:
  RoomConfig config_;
  TripCurve trip_curve_;
  std::vector<std::pair<UpsId, UpsId>> pdu_to_ups_;
  std::vector<std::vector<PduPairId>> ups_to_pdus_;
};

}  // namespace flex::power

#endif  // FLEX_POWER_TOPOLOGY_HPP_
