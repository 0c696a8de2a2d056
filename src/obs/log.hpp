/**
 * @file
 * Structured leveled logging (FLEX_LOG, FLEX_LOG_AT, FLEX_LOG_LIMITED).
 *
 * Replaces ad-hoc stdio diagnostics with one levelled, filterable
 * stream. The default threshold comes from the FLEX_LOG_LEVEL
 * environment variable ("trace" | "debug" | "info" | "warn" | "error" |
 * "off", default "warn") so tests stay quiet unless a developer opts
 * in. A line logged from inside a simulation carries the simulated time
 * its caller passes (FLEX_LOG_AT), which keeps logs aligned with traces
 * and metrics from the same run; the logger itself keeps no clock.
 *
 * The level, sink and file are process-wide settings; nothing else is.
 * Rate limiters belong to the object that logs through them, so no room
 * shares log state with another.
 */
#ifndef FLEX_OBS_LOG_HPP_
#define FLEX_OBS_LOG_HPP_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include "common/units.hpp"

namespace flex::sim {
class EventQueue;
}  // namespace flex::sim

namespace flex::obs {

/** Severity levels, least to most severe. */
enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/** Short uppercase tag ("TRACE", "DEBUG", ...). */
const char* LogLevelName(LogLevel level);

/**
 * Parses a level name (case-insensitive); unknown strings fall back to
 * @p fallback so a typo in FLEX_LOG_LEVEL degrades gracefully.
 */
LogLevel ParseLogLevel(const char* name, LogLevel fallback = LogLevel::kWarn);

/** Current threshold; lazily initialized from FLEX_LOG_LEVEL. */
LogLevel GetLogLevel();

/** Overrides the threshold (tests, examples with --verbose flags). */
void SetLogLevel(LogLevel level);

/**
 * Does nothing: log lines carry the simulated time their caller passes
 * to FLEX_LOG_AT. It remains only because benchmark/flexbench.cpp still
 * calls it, and goes when that call does.
 */
void SetLogClock(const sim::EventQueue* clock);

/**
 * Redirects formatted records away from stderr, e.g. into a test
 * vector. Pass an empty function to restore the stderr sink.
 */
using LogSink =
    std::function<void(LogLevel level, const std::string& line)>;
void SetLogSink(LogSink sink);

/**
 * Tees every emitted record to @p path (append mode, same format as the
 * stderr sink), in addition to the sink/stderr output. Pass an empty
 * path to close the file sink. The file sink is lazily initialized from
 * the FLEX_LOG_FILE environment variable on the first log call; this
 * call overrides it. Returns false when the file cannot be opened.
 */
bool SetLogFile(const std::string& path);

/**
 * Calls swallowed by every LogRateLimiter over the process lifetime (an
 * atomic; readable from any thread). /metrics exports it as
 * flex_log_suppressed_total, so dropped diagnostics stay visible.
 */
std::uint64_t LogSuppressedTotal();

/** True when a record at @p level would be emitted. */
inline bool
LogEnabled(LogLevel level)
{
  return level >= GetLogLevel() && GetLogLevel() != LogLevel::kOff;
}

/** LogMessage's @p sim_time_s for a line with no simulated time. */
inline constexpr double kNoSimTime = std::numeric_limits<double>::quiet_NaN();

/**
 * Formats and emits one record, stamped "t=<sim_time_s>" unless
 * @p sim_time_s is kNoSimTime. Prefer the FLEX_LOG macros, which skip
 * argument evaluation when the level is filtered out.
 */
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 4, 5)))
#endif
void
LogMessage(double sim_time_s, LogLevel level, const char* component,
           const char* format, ...);

/**
 * Rate limiter for hot-loop diagnostics, so a storm (e.g. a no-quorum
 * warn per meter interval during an outage) cannot flood a forensic
 * dump. At most one record per @p min_interval_s of simulated time
 * passes; suppressed calls are counted, and FLEX_LOG_LIMITED annotates
 * the next passing record with the count. The object that logs owns
 * its limiter, one per log line.
 *
 * Deterministic: gating depends only on the simulated time the caller
 * passes, never on wall time, so rate-limited logs replay identically.
 */
class LogRateLimiter {
 public:
  explicit LogRateLimiter(double min_interval_s = 5.0)
      : min_interval_s_(min_interval_s)
  {
  }

  /** True when a call at simulated time @p now should emit. */
  bool Admit(Seconds now);

  /** Calls suppressed since the last admitted one. */
  std::uint64_t suppressed() const { return suppressed_; }

  /** Total calls suppressed over the limiter's lifetime. */
  std::uint64_t total_suppressed() const { return total_suppressed_; }

 private:
  double min_interval_s_;
  double last_emit_t_ = -std::numeric_limits<double>::infinity();
  std::uint64_t suppressed_ = 0;
  std::uint64_t total_suppressed_ = 0;
};

}  // namespace flex::obs

/**
 * Emits one structured record with no simulated time, for code that runs
 * outside any simulation (HTTP and watchdog threads, plan sorting, the
 * bundle writer):
 *   FLEX_LOG(flex::obs::LogLevel::kInfo, "http", "serving on %d", port);
 * renders as "[INFO ] http: serving on 8080".
 */
#define FLEX_LOG(level, component, ...)                                   \
  do {                                                                    \
    if (::flex::obs::LogEnabled(level))                                   \
      ::flex::obs::LogMessage(::flex::obs::kNoSimTime, (level),           \
                              (component), __VA_ARGS__);                  \
  } while (0)

/**
 * FLEX_LOG stamped with the caller's simulated time @p now (Seconds):
 *   FLEX_LOG_AT(queue.Now(), kInfo, "fault", "armed %d events", n);
 * renders as "[INFO ] t=12.400 fault: armed 3 events".
 */
#define FLEX_LOG_AT(now, level, component, ...)                           \
  do {                                                                    \
    if (::flex::obs::LogEnabled(level))                                   \
      ::flex::obs::LogMessage((now).value(), (level), (component),        \
                              __VA_ARGS__);                               \
  } while (0)

/**
 * FLEX_LOG_AT gated by @p limiter, a LogRateLimiter the logging object
 * owns. The limiter runs only when the level is enabled. The format
 * string gains a " (suppressed N similar)" tail when earlier calls were
 * swallowed:
 *   FLEX_LOG_LIMITED(no_quorum_log_, sampled_at, kWarn, "telemetry",
 *                    "no quorum on ups %d", u);
 */
#define FLEX_LOG_LIMITED(limiter, now, level, component, format, ...)     \
  do {                                                                    \
    if (::flex::obs::LogEnabled(level)) {                                 \
      const ::flex::Seconds flex_log_now_ = (now);                        \
      const std::uint64_t flex_suppressed_ = (limiter).suppressed();      \
      if ((limiter).Admit(flex_log_now_)) {                               \
        if (flex_suppressed_ > 0)                                         \
          ::flex::obs::LogMessage(flex_log_now_.value(), (level),         \
                                  (component),                            \
                                  format " (suppressed %llu similar)",    \
                                  ##__VA_ARGS__,                          \
                                  static_cast<unsigned long long>(        \
                                      flex_suppressed_));                 \
        else                                                              \
          ::flex::obs::LogMessage(flex_log_now_.value(), (level),         \
                                  (component), format, ##__VA_ARGS__);    \
      }                                                                   \
    }                                                                     \
  } while (0)

#endif  // FLEX_OBS_LOG_HPP_
