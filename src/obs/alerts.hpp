/**
 * @file
 * Declarative alert rules evaluated deterministically on simulated time.
 *
 * Rules read only the TimeSeriesStore (never wall clocks, never live
 * registry objects), and Evaluate() is called from the simulation's
 * sample tick, so an alert timeline is a pure function of the seed:
 * bit-identical across sweep lanes, thread counts, and replays, and
 * fully functional with the HTTP plane disabled.
 *
 * Rule kinds:
 *  - kThreshold: latest value vs a bound (or vs another series via
 *    threshold_metric — how the reaction-budget rule compares the
 *    `reaction.end_to_end_s` p99 against the `reaction.budget_s` gauge
 *    that check_budget.sh previously checked only offline).
 *  - kStale: the series has not *changed value* within window_s —
 *    a progress detector, which is what catches a telemetry outage
 *    (`pipeline.readings_delivered` goes flat). An absent series is
 *    treated as fresh so rules do not fire before first data.
 *  - kRateOfChange: delta over window_s divided by window_s, compared
 *    against the bound.
 *  - kBurnRate: two-window SLO burn rate in the Google SRE style.
 *    burn = ((Δerr/Δtotal) / (1 - slo_target)); the condition holds
 *    only when burn exceeds burn_factor in BOTH the short and the long
 *    window, so a blip neither pages nor does a slow burn hide.
 *
 * State machine: inactive → pending (condition true) → firing (held
 * for for_s) → inactive (condition false; "resolved"). Every edge is
 * recorded in the timeline and stamped into the flight recorder
 * (RecordKind::kAlert). A forensic bundle of an alerting run comes from
 * the fault layer's recorded runs (fault/forensics.hpp), which replay.
 */
#ifndef FLEX_OBS_ALERTS_HPP_
#define FLEX_OBS_ALERTS_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/log.hpp"
#include "obs/timeseries.hpp"

namespace flex::obs {

class FlightRecorder;

enum class AlertSeverity { kInfo = 0, kWarn, kPage };
enum class AlertRuleKind { kThreshold, kStale, kRateOfChange, kBurnRate };
enum class AlertCompare { kGreaterThan, kLessThan };
enum class AlertState { kInactive = 0, kPending, kFiring };

const char* AlertSeverityName(AlertSeverity severity);
const char* AlertRuleKindName(AlertRuleKind kind);
const char* AlertStateName(AlertState state);

/** One declarative rule. Unused fields are ignored per kind. */
struct AlertRule {
  std::string name;         ///< stable identifier ("TelemetryStalled")
  std::string metric;       ///< series the rule reads
  std::string description;  ///< one-line human text for /alerts
  AlertSeverity severity = AlertSeverity::kWarn;
  AlertRuleKind kind = AlertRuleKind::kThreshold;

  /** kThreshold / kRateOfChange: comparison direction. */
  AlertCompare compare = AlertCompare::kGreaterThan;
  /** kThreshold / kRateOfChange: the bound. */
  double threshold = 0.0;
  /**
   * kThreshold only: when set, the bound is the latest value of this
   * series instead of `threshold` (inactive until that series exists).
   */
  std::string threshold_metric;

  /** kStale / kRateOfChange: trailing window in simulated seconds. */
  double window_s = 60.0;

  /** Condition must hold this long (pending) before firing. */
  double for_s = 0.0;

  // kBurnRate only.
  std::string total_metric;      ///< denominator counter
  double slo_target = 0.999;     ///< e.g. 99.9% of episodes in budget
  double burn_factor = 2.0;      ///< fire when burn exceeds this
  double short_window_s = 60.0;
  double long_window_s = 300.0;
};

/** One state-machine edge. */
struct AlertTransition {
  double t = 0.0;
  std::string rule;
  AlertState from = AlertState::kInactive;
  AlertState to = AlertState::kInactive;
  double value = 0.0;  ///< rule value at the edge (burn, level, age, ...)
  std::string message;
};

/** Live state of one rule. */
struct AlertStatus {
  AlertRule rule;
  AlertState state = AlertState::kInactive;
  double since_s = 0.0;      ///< when the current state was entered
  double last_value = 0.0;   ///< most recent evaluated rule value
  std::uint64_t fire_count = 0;
};

/** Deep copy for the live plane (/alerts, /healthz, /metrics). */
struct AlertsSnapshot {
  double sim_time_seconds = 0.0;
  int firing = 0;
  int pending = 0;
  /** Highest severity among firing rules (kInfo when none fire). */
  AlertSeverity worst_firing = AlertSeverity::kInfo;
  std::vector<AlertStatus> statuses;
  std::vector<AlertTransition> timeline;  ///< most recent edges
};

/**
 * The engine. Single-threaded; owns no store — the caller samples the
 * store then calls Evaluate(now) on the same cadence.
 */
class AlertEngine {
 public:
  AlertEngine(const TimeSeriesStore* store, std::vector<AlertRule> rules);

  AlertEngine(const AlertEngine&) = delete;
  AlertEngine& operator=(const AlertEngine&) = delete;

  /** Optional: every edge is stamped as RecordKind::kAlert. */
  void SetRecorder(FlightRecorder* recorder) { recorder_ = recorder; }

  /**
   * Evaluates every rule at simulated time @p now_s. Deterministic:
   * reads only the store. Call on a fixed simulated cadence.
   */
  void Evaluate(double now_s);

  const std::vector<AlertStatus>& statuses() const { return statuses_; }
  const std::vector<AlertTransition>& timeline() const { return timeline_; }

  int firing_count() const;
  int pending_count() const;
  /** Highest severity among firing rules (kInfo when none fire). */
  AlertSeverity worst_firing_severity() const;
  std::uint64_t total_fired() const { return total_fired_; }
  std::uint64_t evaluations() const { return evaluations_; }

  /** FNV-1a over the full timeline + current states. */
  std::uint64_t Fingerprint() const;

  /** Deep copy; the timeline is clipped to its most recent entries. */
  AlertsSnapshot Snapshot(std::size_t timeline_tail = 256) const;

  /** Timeline as JSONL (forensic-bundle export). */
  std::string TimelineJsonl() const;

 private:
  struct RuleRuntime {
    double pending_since = 0.0;
  };

  /** True when the rule's raw condition holds; fills value/why. */
  bool Condition(const AlertRule& rule, double now_s, double* value,
                 std::string* why) const;
  void Transition(std::size_t i, double now_s, AlertState to, double value,
                  const std::string& message);

  const TimeSeriesStore* store_;
  std::vector<AlertStatus> statuses_;
  std::vector<RuleRuntime> runtime_;
  std::vector<AlertTransition> timeline_;
  FlightRecorder* recorder_ = nullptr;
  std::uint64_t total_fired_ = 0;
  std::uint64_t evaluations_ = 0;
  LogRateLimiter fired_log_;
  LogRateLimiter resolved_log_;
};

/**
 * Built-in rules wrapping the existing safety surfaces. All reference
 * metrics that the emulation/fault harnesses already export, so the
 * set is safe to enable anywhere (absent series stay inactive).
 */
AlertRule InvariantViolationRule();
AlertRule TelemetryStaleRule(double window_s = 15.0, double for_s = 5.0);
AlertRule ReactionBudgetRule(double for_s = 0.0);
AlertRule ReactionBurnRateRule();
AlertRule UpsOverloadRule(double for_s = 0.0);
std::vector<AlertRule> BuiltinAlertRules();

/**
 * Copyable harness wiring, embedded in EmulationConfig so sweep
 * variants carry it by value. An enabled harness evaluates
 * BuiltinAlertRules() over a default-shaped TimeSeriesStore.
 */
struct AlertsConfig {
  /** Off by default: existing harnesses are unchanged until opted in. */
  bool enabled = false;
};

}  // namespace flex::obs

#endif  // FLEX_OBS_ALERTS_HPP_
