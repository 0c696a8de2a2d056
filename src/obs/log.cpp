#include "log.hpp"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace flex::obs {

namespace {

/**
 * Process-wide suppression tally across every LogRateLimiter. Atomic
 * because the HTTP exporter reads it from its own thread while sim
 * threads keep suppressing.
 */
std::atomic<std::uint64_t> g_suppressed_total{0};

struct LogState {
  LogLevel level;
  LogSink sink;
  std::FILE* file = nullptr;
  bool file_checked = false;  ///< FLEX_LOG_FILE consulted already?

  LogState()
      : level(ParseLogLevel(std::getenv("FLEX_LOG_LEVEL"), LogLevel::kWarn))
  {
  }

  /** The file sink, lazily opened from FLEX_LOG_FILE on first use. */
  std::FILE*
  File()
  {
    if (!file_checked) {
      file_checked = true;
      const char* path = std::getenv("FLEX_LOG_FILE");
      if (path != nullptr && path[0] != '\0')
        file = std::fopen(path, "a");
    }
    return file;
  }
};

LogState&
State()
{
  static LogState state;
  return state;
}

}  // namespace

const char*
LogLevelName(LogLevel level)
{
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF  ";
  }
  return "?????";
}

LogLevel
ParseLogLevel(const char* name, LogLevel fallback)
{
  if (name == nullptr || *name == '\0')
    return fallback;
  std::string lower;
  for (const char* p = name; *p != '\0'; ++p)
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
  if (lower == "trace")
    return LogLevel::kTrace;
  if (lower == "debug")
    return LogLevel::kDebug;
  if (lower == "info")
    return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning")
    return LogLevel::kWarn;
  if (lower == "error")
    return LogLevel::kError;
  if (lower == "off" || lower == "none" || lower == "quiet")
    return LogLevel::kOff;
  return fallback;
}

LogLevel
GetLogLevel()
{
  return State().level;
}

void
SetLogLevel(LogLevel level)
{
  State().level = level;
}

void
SetLogClock(const sim::EventQueue*)
{
}

void
SetLogSink(LogSink sink)
{
  State().sink = std::move(sink);
}

bool
SetLogFile(const std::string& path)
{
  LogState& state = State();
  if (state.file != nullptr) {
    std::fclose(state.file);
    state.file = nullptr;
  }
  state.file_checked = true;  // explicit call overrides FLEX_LOG_FILE
  if (path.empty())
    return true;
  state.file = std::fopen(path.c_str(), "a");
  return state.file != nullptr;
}

void
LogMessage(double sim_time_s, LogLevel level, const char* component,
           const char* format, ...)
{
  char message[512];
  std::va_list args;
  va_start(args, format);
  std::vsnprintf(message, sizeof(message), format, args);
  va_end(args);

  char line[640];
  LogState& state = State();
  if (!std::isnan(sim_time_s)) {
    std::snprintf(line, sizeof(line), "[%s] t=%.3f %s: %s",
                  LogLevelName(level), sim_time_s,
                  component != nullptr ? component : "-", message);
  } else {
    std::snprintf(line, sizeof(line), "[%s] %s: %s", LogLevelName(level),
                  component != nullptr ? component : "-", message);
  }
  // The file sink tees: it sees every record regardless of sink
  // redirection, so forensic log files stay complete under tests.
  if (std::FILE* file = state.File(); file != nullptr) {
    std::fprintf(file, "%s\n", line);
    std::fflush(file);
  }
  if (state.sink) {
    state.sink(level, line);
    return;
  }
  std::fprintf(stderr, "%s\n", line);
}

bool
LogRateLimiter::Admit(Seconds now)
{
  if (now.value() - last_emit_t_ >= min_interval_s_) {
    last_emit_t_ = now.value();
    suppressed_ = 0;
    return true;
  }
  ++suppressed_;
  ++total_suppressed_;
  g_suppressed_total.fetch_add(1, std::memory_order_relaxed);
  return false;
}

std::uint64_t
LogSuppressedTotal()
{
  return g_suppressed_total.load(std::memory_order_relaxed);
}

}  // namespace flex::obs
