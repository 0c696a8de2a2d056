#include "obs/json.hpp"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace flex::obs {

namespace {

std::string
Format(const char* format, double value)
{
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

int
HexDigit(char c)
{
  if (c >= '0' && c <= '9')
    return c - '0';
  if (c >= 'a' && c <= 'f')
    return c - 'a' + 10;
  if (c >= 'A' && c <= 'F')
    return c - 'A' + 10;
  return -1;
}

/**
 * True when an integer parse that stopped at @p end consumed the whole
 * number: a fraction or exponent means the value was not an integer.
 */
bool
IntegerEnds(const char* end)
{
  return *end != '.' && *end != 'e' && *end != 'E';
}

}  // namespace

std::string
json::Num(double value)
{
  return Format("%.9g", value);
}

std::string
json::ExactNum(double value)
{
  return Format("%.17g", value);
}

std::string
json::EscapeJson(const std::string& text)
{
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::size_t
json::FindValue(const std::string& json, const char* key)
{
  const std::string needle = std::string("\"") + key + "\":";
  std::size_t at = json.find(needle);
  if (at == std::string::npos)
    return std::string::npos;
  at += needle.size();
  while (at < json.size() && (json[at] == ' ' || json[at] == '\t'))
    ++at;
  return at;
}

bool
json::ReadNumber(const std::string& json, const char* key, double* out)
{
  const std::size_t at = FindValue(json, key);
  if (at == std::string::npos)
    return false;
  char* end = nullptr;
  const double value = std::strtod(json.c_str() + at, &end);
  if (end == json.c_str() + at)
    return false;
  *out = value;
  return true;
}

bool
json::ReadUint(const std::string& json, const char* key, std::uint64_t* out)
{
  const std::size_t at = FindValue(json, key);
  // strtoull would silently negate a leading '-'.
  if (at >= json.size() || json[at] < '0' || json[at] > '9')
    return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value =
      std::strtoull(json.c_str() + at, &end, 10);
  if (errno == ERANGE || !IntegerEnds(end))
    return false;
  *out = static_cast<std::uint64_t>(value);
  return true;
}

bool
json::ReadInt(const std::string& json, const char* key, int* out)
{
  const std::size_t at = FindValue(json, key);
  if (at >= json.size() ||
      !(json[at] == '-' || (json[at] >= '0' && json[at] <= '9')))
    return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(json.c_str() + at, &end, 10);
  if (end == json.c_str() + at || errno == ERANGE || !IntegerEnds(end) ||
      value < INT_MIN || value > INT_MAX)
    return false;
  *out = static_cast<int>(value);
  return true;
}

bool
json::ReadStringAt(const std::string& json, std::size_t* at, std::string* out)
{
  std::size_t i = *at;
  if (i >= json.size() || json[i] != '"')
    return false;
  std::string value;
  for (++i; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"') {
      *at = i + 1;
      *out = std::move(value);
      return true;
    }
    if (c == '\\') {
      if (++i >= json.size())
        return false;
      switch (json[i]) {
        case '"':
        case '\\':
          c = json[i];
          break;
        case 'n':
          c = '\n';
          break;
        case 't':
          c = '\t';
          break;
        case 'r':
          c = '\r';
          break;
        case 'u': {
          // EscapeJson emits \u00XX only; wider code points are rejected.
          if (i + 4 >= json.size())
            return false;
          unsigned code = 0;
          for (std::size_t k = 1; k <= 4; ++k) {
            const int digit = HexDigit(json[i + k]);
            if (digit < 0)
              return false;
            code = code * 16 + static_cast<unsigned>(digit);
          }
          if (code > 0xFF)
            return false;
          c = static_cast<char>(code);
          i += 4;
          break;
        }
        default:
          return false;
      }
    }
    value += c;
  }
  return false;  // unterminated
}

bool
json::ReadString(const std::string& json, const char* key, std::string* out)
{
  std::size_t at = FindValue(json, key);
  return at != std::string::npos && ReadStringAt(json, &at, out);
}

bool
json::ReadBool(const std::string& json, const char* key, bool* out)
{
  const std::size_t at = FindValue(json, key);
  if (at == std::string::npos)
    return false;
  if (json.compare(at, 4, "true") == 0) {
    *out = true;
    return true;
  }
  if (json.compare(at, 5, "false") == 0) {
    *out = false;
    return true;
  }
  return false;
}

bool
json::LineReader::Next()
{
  while (pos_ < text_.size()) {
    std::size_t end = text_.find('\n', pos_);
    if (end == std::string::npos)
      end = text_.size();
    ++number_;
    const std::size_t start = pos_;
    pos_ = end + 1;
    if (end > start) {
      line_.assign(text_, start, end - start);
      return true;
    }
  }
  return false;
}

}  // namespace flex::obs
