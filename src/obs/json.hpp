/**
 * @file
 * The one JSON codec of the obs and fault layers.
 *
 * Every exporter writes flat objects in a fixed key order, so a keyed
 * substring lookup is all the reading side needs — no DOM, no
 * dependency. Which number formatter to use:
 *
 *   Num       %.9g: nine significant digits. Compact and stable for equal
 *             inputs, so exports of equal seeds diff clean, but it does
 *             NOT round-trip every double. Timelines, metrics, traces.
 *   ExactNum  %.17g: bit-exact double round trip. For values a replay
 *             must reproduce exactly (fault_plan.jsonl event times).
 *
 * 64-bit ids (seeds, sequence numbers) are written with std::to_string
 * and read with ReadUint: a double holds every integer only up to 2^53.
 */
#ifndef FLEX_OBS_JSON_HPP_
#define FLEX_OBS_JSON_HPP_

#include <cstddef>
#include <cstdint>
#include <string>

namespace flex::obs::json {

/** %.9g: compact display/export formatting (see the file comment). */
std::string Num(double value);

/** %.17g: bit-exact round trip through ReadNumber. */
std::string ExactNum(double value);

/**
 * Escapes @p text for the inside of a JSON string literal: quote,
 * backslash, \n, \t, \r, and \u00XX for the other control bytes. Bytes
 * >= 0x80 pass through. ReadString inverts it for every byte value.
 */
std::string EscapeJson(const std::string& text);

/**
 * Offset of the value of the first `"key":` in @p json, past any spaces
 * or tabs after the colon (the manifest is pretty-printed); npos when
 * the key is absent.
 */
std::size_t FindValue(const std::string& json, const char* key);

/** strtod of the value of @p key; false when absent or not numeric. */
bool ReadNumber(const std::string& json, const char* key, double* out);

/**
 * Exact unsigned 64-bit read of the value of @p key (strtoull). False
 * when absent, signed, fractional, or above UINT64_MAX.
 */
bool ReadUint(const std::string& json, const char* key, std::uint64_t* out);

/**
 * Exact int read of the value of @p key (strtoll). False when absent,
 * fractional, or outside the range of int.
 */
bool ReadInt(const std::string& json, const char* key, int* out);

/** Unescaped string value of @p key; false when absent or malformed. */
bool ReadString(const std::string& json, const char* key, std::string* out);

/**
 * Reads the string literal starting at @p json[*at] (which must be '"')
 * and advances *at past its closing quote. The building block of
 * ReadString, also used to walk string arrays.
 */
bool ReadStringAt(const std::string& json, std::size_t* at, std::string* out);

/** `true` / `false` value of @p key; false when absent or neither. */
bool ReadBool(const std::string& json, const char* key, bool* out);

/**
 * Walks the non-empty lines of a JSONL text. number() is the 1-based
 * physical line of the current line, blank lines included, so error
 * messages point at the right line of the file. The reader keeps a
 * reference to @p text, which must outlive it (so no temporaries).
 */
class LineReader {
 public:
  explicit LineReader(const std::string& text) : text_(text) {}
  explicit LineReader(std::string&&) = delete;

  /** Advances to the next non-empty line; false at the end. */
  bool Next();

  const std::string& line() const { return line_; }
  std::size_t number() const { return number_; }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t number_ = 0;
  std::string line_;
};

}  // namespace flex::obs::json

#endif  // FLEX_OBS_JSON_HPP_
