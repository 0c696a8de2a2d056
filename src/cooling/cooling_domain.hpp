/**
 * @file
 * Cooling domain model with redundancy (paper Section VI).
 *
 * Flex leverages redundant cooling exactly like redundant power — but
 * with a crucial difference the paper calls out: "Upon the loss of this
 * redundant cooling, unlike losing redundant power, several minutes are
 * available for mitigation as datacenter temperature rise is gradual.
 * Hence, other mitigations, such as workload migration to another
 * cooling domain, can be used before enacting strict Flex
 * capping/shutdown actions." This module models the cooling units, the
 * room's thermal inertia, and that mitigation ladder.
 */
#ifndef FLEX_COOLING_COOLING_DOMAIN_HPP_
#define FLEX_COOLING_COOLING_DOMAIN_HPP_

#include <functional>
#include <vector>

#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace flex::cooling {

/** Physical configuration of one cooling domain. */
struct CoolingDomainConfig {
  /** Cooling units (CRAHs/chillers); capacity is N+redundant sized. */
  int num_units = 4;
  /** Temperature above which IT equipment is at risk. */
  double max_safe_temperature_c = 35.0;
};

/**
 * Thermal state of one cooling domain.
 *
 * With cooling capacity above the heat load the temperature relaxes
 * toward the supply temperature; with a deficit it rises linearly with
 * deficit / thermal mass — gradual, unlike the instantaneous electrical
 * overload of a UPS failover.
 */
class CoolingDomain {
 public:
  explicit CoolingDomain(CoolingDomainConfig config);

  /** Advances the thermal state by @p dt under IT heat load @p load. */
  void Advance(Watts load, Seconds dt);

  /** Fails or restores one cooling unit. */
  void SetUnitFailed(int unit, bool failed);

  /** Heat removal available with the currently healthy units. */
  Watts AvailableCooling() const;

  double temperature_c() const { return temperature_c_; }
  bool Overheated() const;

  /**
   * Time until the room crosses the safe temperature at a constant
   * @p load; effectively unbounded when cooling covers the load. The
   * paper's point: this is minutes, not the ~10 s of a UPS overload.
   */
  Seconds TimeToOverheat(Watts load) const;

  int healthy_units() const;
  const CoolingDomainConfig& config() const { return config_; }

 private:
  CoolingDomainConfig config_;
  std::vector<bool> unit_failed_;
  double temperature_c_;
};

/**
 * The Section VI mitigation ladder: on a cooling deficit, first migrate
 * workloads to another cooling domain; only if the room would still
 * overheat does it fall back to Flex power capping.
 */
class CoolingFailureHandler {
 public:
  /**
   * @param load_source current IT heat load of the domain
   * @param request_power_cut called with the wattage Flex must shed when
   *        migration alone cannot prevent overheating
   */
  CoolingFailureHandler(sim::EventQueue& queue, CoolingDomain& domain,
                        std::function<Watts()> load_source,
                        std::function<void(Watts)> request_power_cut);

  /** Starts periodic checks. */
  void Start();
  void Stop();

  /** Heat load currently moved away by completed migrations. */
  Watts migrated_load() const { return migrated_; }
  bool migration_in_progress() const { return migration_pending_; }
  int flex_engagements() const { return flex_engagements_; }

  /** Effective load after migration relief. */
  Watts EffectiveLoad() const;

 private:
  void Check();

  sim::EventQueue& queue_;
  CoolingDomain& domain_;
  std::function<Watts()> load_source_;
  std::function<void(Watts)> request_power_cut_;
  bool running_ = false;
  bool migration_pending_ = false;
  Watts migrated_{0.0};
  int flex_engagements_ = 0;
};

}  // namespace flex::cooling

#endif  // FLEX_COOLING_COOLING_DOMAIN_HPP_
