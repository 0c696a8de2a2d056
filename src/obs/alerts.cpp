#include "obs/alerts.hpp"

#include <algorithm>
#include <utility>

#include "common/hash.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"

namespace flex::obs {

const char*
AlertSeverityName(AlertSeverity severity)
{
  switch (severity) {
    case AlertSeverity::kInfo:
      return "info";
    case AlertSeverity::kWarn:
      return "warn";
    case AlertSeverity::kPage:
      return "page";
  }
  return "unknown";
}

const char*
AlertRuleKindName(AlertRuleKind kind)
{
  switch (kind) {
    case AlertRuleKind::kThreshold:
      return "threshold";
    case AlertRuleKind::kStale:
      return "stale";
    case AlertRuleKind::kRateOfChange:
      return "rate_of_change";
    case AlertRuleKind::kBurnRate:
      return "burn_rate";
  }
  return "unknown";
}

const char*
AlertStateName(AlertState state)
{
  switch (state) {
    case AlertState::kInactive:
      return "inactive";
    case AlertState::kPending:
      return "pending";
    case AlertState::kFiring:
      return "firing";
  }
  return "unknown";
}

AlertEngine::AlertEngine(const TimeSeriesStore* store,
                         std::vector<AlertRule> rules)
    : store_(store)
{
  statuses_.reserve(rules.size());
  runtime_.resize(rules.size());
  for (AlertRule& rule : rules) {
    AlertStatus status;
    status.rule = std::move(rule);
    statuses_.push_back(std::move(status));
  }
}

bool
AlertEngine::Condition(const AlertRule& rule, double now_s, double* value,
                       std::string* why) const
{
  *value = 0.0;
  switch (rule.kind) {
    case AlertRuleKind::kThreshold: {
      double v = 0.0;
      if (!store_->LatestValue(rule.metric, &v))
        return false;
      double bound = rule.threshold;
      if (!rule.threshold_metric.empty() &&
          !store_->LatestValue(rule.threshold_metric, &bound))
        return false;
      *value = v;
      const bool hit = rule.compare == AlertCompare::kGreaterThan
                           ? v > bound
                           : v < bound;
      if (hit)
        *why = rule.metric + "=" + json::Num(v) + " vs bound " +
               json::Num(bound);
      return hit;
    }
    case AlertRuleKind::kStale: {
      const double changed_at = store_->LastChangeTime(rule.metric);
      if (changed_at < 0.0)
        return false;  // no data yet: fresh, not stale
      const double age = now_s - changed_at;
      *value = age;
      if (age > rule.window_s) {
        *why = rule.metric + " unchanged for " + json::Num(age) + "s";
        return true;
      }
      return false;
    }
    case AlertRuleKind::kRateOfChange: {
      if (rule.window_s <= 0.0)
        return false;
      double delta = 0.0;
      if (!store_->DeltaOver(rule.metric, rule.window_s, &delta))
        return false;
      const double rate = delta / rule.window_s;
      *value = rate;
      const bool hit = rule.compare == AlertCompare::kGreaterThan
                           ? rate > rule.threshold
                           : rate < rule.threshold;
      if (hit)
        *why = rule.metric + " rate=" + json::Num(rate) + "/s vs bound " +
               json::Num(rule.threshold);
      return hit;
    }
    case AlertRuleKind::kBurnRate: {
      const double denom = std::max(1e-9, 1.0 - rule.slo_target);
      double burn_short = 0.0;
      double burn_long = 0.0;
      const double windows[2] = {rule.short_window_s, rule.long_window_s};
      double* burns[2] = {&burn_short, &burn_long};
      for (int i = 0; i < 2; ++i) {
        double err = 0.0;
        double total = 0.0;
        if (!store_->DeltaOver(rule.metric, windows[i], &err) ||
            !store_->DeltaOver(rule.total_metric, windows[i], &total))
          return false;
        const double ratio = total > 0.0 ? err / total : 0.0;
        *burns[i] = ratio / denom;
      }
      *value = std::min(burn_short, burn_long);
      if (burn_short > rule.burn_factor && burn_long > rule.burn_factor) {
        *why = "burn short=" + json::Num(burn_short) +
               " long=" + json::Num(burn_long) + " vs factor " +
               json::Num(rule.burn_factor);
        return true;
      }
      return false;
    }
  }
  return false;
}

void
AlertEngine::Transition(std::size_t i, double now_s, AlertState to,
                        double value, const std::string& message)
{
  AlertStatus& status = statuses_[i];
  AlertTransition edge;
  edge.t = now_s;
  edge.rule = status.rule.name;
  edge.from = status.state;
  edge.to = to;
  edge.value = value;
  edge.message = message;

  status.state = to;
  status.since_s = now_s;
  if (to == AlertState::kFiring) {
    ++status.fire_count;
    ++total_fired_;
  }

  if (recorder_ != nullptr)
    recorder_->Record(Seconds(now_s), RecordKind::kAlert,
                      static_cast<int>(i), static_cast<int>(to), value,
                      status.rule.name + ": " + message);
  if (to == AlertState::kFiring) {
    const LogLevel level = status.rule.severity == AlertSeverity::kPage
                               ? LogLevel::kError
                               : LogLevel::kWarn;
    FLEX_LOG_LIMITED(fired_log_, Seconds(now_s), level, "alerts",
                     "FIRING [%s] %s: %s",
                     AlertSeverityName(status.rule.severity),
                     status.rule.name.c_str(), message.c_str());
  } else if (edge.from == AlertState::kFiring) {
    FLEX_LOG_LIMITED(resolved_log_, Seconds(now_s), LogLevel::kInfo,
                     "alerts", "resolved %s", status.rule.name.c_str());
  }

  timeline_.push_back(edge);
}

void
AlertEngine::Evaluate(double now_s)
{
  ++evaluations_;
  for (std::size_t i = 0; i < statuses_.size(); ++i) {
    AlertStatus& status = statuses_[i];
    double value = 0.0;
    std::string why;
    const bool hit = Condition(status.rule, now_s, &value, &why);
    status.last_value = value;
    switch (status.state) {
      case AlertState::kInactive:
        if (hit) {
          runtime_[i].pending_since = now_s;
          Transition(i, now_s, AlertState::kPending, value, why);
          if (now_s - runtime_[i].pending_since >= status.rule.for_s)
            Transition(i, now_s, AlertState::kFiring, value, why);
        }
        break;
      case AlertState::kPending:
        if (!hit)
          Transition(i, now_s, AlertState::kInactive, value,
                     "condition cleared");
        else if (now_s - runtime_[i].pending_since >= status.rule.for_s)
          Transition(i, now_s, AlertState::kFiring, value, why);
        break;
      case AlertState::kFiring:
        if (!hit)
          Transition(i, now_s, AlertState::kInactive, value, "resolved");
        break;
    }
  }
}

int
AlertEngine::firing_count() const
{
  int firing = 0;
  for (const AlertStatus& status : statuses_)
    if (status.state == AlertState::kFiring)
      ++firing;
  return firing;
}

int
AlertEngine::pending_count() const
{
  int pending = 0;
  for (const AlertStatus& status : statuses_)
    if (status.state == AlertState::kPending)
      ++pending;
  return pending;
}

AlertSeverity
AlertEngine::worst_firing_severity() const
{
  AlertSeverity worst = AlertSeverity::kInfo;
  for (const AlertStatus& status : statuses_)
    if (status.state == AlertState::kFiring &&
        status.rule.severity > worst)
      worst = status.rule.severity;
  return worst;
}

std::uint64_t
AlertEngine::Fingerprint() const
{
  Fnv1a hash;
  hash.AddU64(evaluations_);
  hash.AddU64(static_cast<std::uint64_t>(timeline_.size()));
  for (const AlertTransition& edge : timeline_) {
    hash.AddDouble(edge.t);
    hash.AddString(edge.rule);
    hash.AddU64(static_cast<std::uint64_t>(edge.from));
    hash.AddU64(static_cast<std::uint64_t>(edge.to));
    hash.AddDouble(edge.value);
    hash.AddString(edge.message);
  }
  for (const AlertStatus& status : statuses_) {
    hash.AddString(status.rule.name);
    hash.AddU64(static_cast<std::uint64_t>(status.state));
    hash.AddDouble(status.since_s);
    hash.AddU64(status.fire_count);
  }
  return hash.value();
}

AlertsSnapshot
AlertEngine::Snapshot(std::size_t timeline_tail) const
{
  AlertsSnapshot out;
  out.firing = firing_count();
  out.pending = pending_count();
  out.worst_firing = worst_firing_severity();
  out.statuses = statuses_;
  const std::size_t tail = std::min(timeline_tail, timeline_.size());
  out.timeline.assign(timeline_.end() - static_cast<std::ptrdiff_t>(tail),
                      timeline_.end());
  return out;
}

std::string
AlertEngine::TimelineJsonl() const
{
  std::string out;
  for (const AlertTransition& edge : timeline_) {
    out += "{\"t\":" + json::Num(edge.t);
    out += ",\"rule\":\"" + json::EscapeJson(edge.rule) + "\"";
    out += ",\"from\":\"";
    out += AlertStateName(edge.from);
    out += "\",\"to\":\"";
    out += AlertStateName(edge.to);
    out += "\",\"value\":" + json::Num(edge.value);
    out += ",\"message\":\"" + json::EscapeJson(edge.message) + "\"}\n";
  }
  return out;
}

AlertRule
InvariantViolationRule()
{
  AlertRule rule;
  rule.name = "InvariantViolation";
  rule.metric = "invariants.violations";
  rule.description = "the safety-invariant monitor flagged a violation";
  rule.severity = AlertSeverity::kPage;
  rule.kind = AlertRuleKind::kThreshold;
  rule.compare = AlertCompare::kGreaterThan;
  rule.threshold = 0.0;
  return rule;
}

AlertRule
TelemetryStaleRule(double window_s, double for_s)
{
  AlertRule rule;
  rule.name = "TelemetryStalled";
  rule.metric = "pipeline.readings_delivered";
  rule.description = "no UPS readings delivered within the staleness window";
  rule.severity = AlertSeverity::kPage;
  rule.kind = AlertRuleKind::kStale;
  rule.window_s = window_s;
  rule.for_s = for_s;
  return rule;
}

AlertRule
ReactionBudgetRule(double for_s)
{
  AlertRule rule;
  rule.name = "ReactionBudgetExceeded";
  rule.metric = "reaction.end_to_end_s";
  rule.description = "reaction end-to-end p99 above the trip-curve budget";
  rule.severity = AlertSeverity::kPage;
  rule.kind = AlertRuleKind::kThreshold;
  rule.compare = AlertCompare::kGreaterThan;
  rule.threshold_metric = "reaction.budget_s";
  rule.for_s = for_s;
  return rule;
}

AlertRule
ReactionBurnRateRule()
{
  AlertRule rule;
  rule.name = "ReactionSloBurn";
  rule.metric = "reaction.over_budget";
  rule.description = "reaction-latency SLO burning in both windows";
  rule.severity = AlertSeverity::kPage;
  rule.kind = AlertRuleKind::kBurnRate;
  rule.total_metric = "reaction.episodes";
  rule.slo_target = 0.999;
  rule.burn_factor = 2.0;
  rule.short_window_s = 60.0;
  rule.long_window_s = 300.0;
  return rule;
}

AlertRule
UpsOverloadRule(double for_s)
{
  AlertRule rule;
  rule.name = "UpsOverloaded";
  rule.metric = "emulation.max_ups_load_fraction";
  rule.description = "a UPS is loaded past its failover rating";
  rule.severity = AlertSeverity::kWarn;
  rule.kind = AlertRuleKind::kThreshold;
  rule.compare = AlertCompare::kGreaterThan;
  rule.threshold = 1.0;
  rule.for_s = for_s;
  return rule;
}

std::vector<AlertRule>
BuiltinAlertRules()
{
  return {InvariantViolationRule(), TelemetryStaleRule(),
          ReactionBudgetRule(),     ReactionBurnRateRule(),
          UpsOverloadRule()};
}

}  // namespace flex::obs
