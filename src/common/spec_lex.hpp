// One lexer for every hand-written text grammar outside the JSON readers
// (DESIGN.md §16): the --fault-spec, --elastic, --tenants, --forecast and
// --arrivals specs, the flag values of esg_sim and esg_tracegen, and the
// fields of esg.trace.v1 files.
//
// Two layers:
//   - per-field primitives (trim, to_number, to_integer, to_on_off) take a
//     string_view, allocate nothing and return std::nullopt on bad input;
//   - Field/Fields/Where wrap them with checked conversions that throw
//     std::invalid_argument naming the grammar, the line, the clause and
//     the key:  fault-spec line 2 'dispatch:prob=2': prob must be in [0, 1]
//
// The spec grammars share one shape. Clauses are separated by ';' or
// newlines; a clause starting with '#' is a comment. A clause is a head,
// optionally followed by ':' and a ','-separated `key=value` list whose
// keys must be unique. A flag value `@path` reads the clauses from a file
// (CRLF and CR line ends read as LF).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace esg::lex {

/// Largest id or count the grammars take: one below UINT32_MAX, which the
/// strong id types reserve as "invalid".
inline constexpr std::uint64_t kMaxId = 0xfffffffeu;

/// `s` without leading and trailing spaces, tabs and carriage returns.
[[nodiscard]] inline std::string_view trim(std::string_view s) noexcept {
  const std::size_t first = s.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return {};
  return s.substr(first, s.find_last_not_of(" \t\r") - first + 1);
}

/// The finite number spelled by all of `v` in std::from_chars syntax (no
/// leading '+' or blanks, no hex), or nullopt. NaN and infinities, which
/// from_chars accepts, would slip through every range check, so they fail.
[[nodiscard]] inline std::optional<double> to_number(
    std::string_view v) noexcept {
  double out = 0.0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (ec != std::errc{} || ptr != end || !std::isfinite(out)) {
    return std::nullopt;
  }
  return out;
}

/// The integer in [lo, hi] spelled by all of `v`, or nullopt. Digit strings
/// convert exactly over all 64 bits; an integral number in another spelling
/// ("1e3", "2.0", "-0") converts too.
[[nodiscard]] inline std::optional<std::uint64_t> to_integer(
    std::string_view v, std::uint64_t lo, std::uint64_t hi) noexcept {
  std::uint64_t n = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, n);
  if (ec != std::errc{} || ptr != end) {
    const std::optional<double> d = to_number(v);
    // Below 2^64 every non-negative integral double converts exactly.
    if (!d || *d < 0.0 || *d != std::floor(*d) || *d >= 0x1p64) {
      return std::nullopt;
    }
    n = static_cast<std::uint64_t>(*d);
  }
  if (n < lo || n > hi) return std::nullopt;
  return n;
}

/// on|true|1 and off|false|0; anything else is nullopt.
[[nodiscard]] inline std::optional<bool> to_on_off(
    std::string_view v) noexcept {
  if (v == "on" || v == "true" || v == "1") return true;
  if (v == "off" || v == "false" || v == "0") return false;
  return std::nullopt;
}

/// printf("%g", v): the canonical number spelling of every to_string.
[[nodiscard]] std::string fmt_g(double v);

/// The interval [lo, hi] (or (lo, hi] when `lo_open`) a number must lie
/// in; range errors render it.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;

  [[nodiscard]] bool contains(double v) const noexcept {
    return (lo_open ? v > lo : v >= lo) && v <= hi;
  }
};

inline constexpr Range kAnyNumber{};
inline constexpr Range kNonNegative{0.0};                 // [0, inf)
inline constexpr Range kPositive{0.0, Range{}.hi, true};  // (0, inf)
inline constexpr Range kProbability{0.0, 1.0};            // [0, 1]
inline constexpr Range kFraction{0.0, 1.0, true};         // (0, 1]

/// Where a token was read: the grammar ("fault-spec"), the 1-based line
/// (0 when the input is not line-oriented) and the clause text. Empty
/// parts are left out of error messages.
struct Where {
  std::string_view grammar;
  std::string_view clause{};
  std::size_t line = 0;

  /// Throws std::invalid_argument("<grammar> line <N> '<clause>': <why>").
  [[noreturn]] void fail(const std::string& why) const;
};

/// One `key=value` item, or one flag value keyed by its flag. The checked
/// conversions throw through `at` with the key in the message.
struct Field {
  std::string_view key;
  std::string_view value;
  Where at{};

  [[nodiscard]] double number(const Range& range = kAnyNumber) const {
    const std::optional<double> v = to_number(value);
    if (!v) bad_number();
    if (!range.contains(*v)) out_of(range);
    return *v;
  }

  [[nodiscard]] std::uint64_t integer(std::uint64_t lo,
                                      std::uint64_t hi) const {
    const std::optional<std::uint64_t> v = to_integer(value, lo, hi);
    if (!v) bad_integer(lo, hi);
    return *v;
  }

  [[nodiscard]] bool on_off() const {
    const std::optional<bool> v = to_on_off(value);
    if (!v) bad_on_off();
    return *v;
  }

 private:
  [[noreturn]] void bad_number() const;
  [[noreturn]] void out_of(const Range& range) const;
  [[noreturn]] void bad_integer(std::uint64_t lo, std::uint64_t hi) const;
  [[noreturn]] void bad_on_off() const;
};

/// The items of ','-separated `key=value` lists: keys and values trimmed,
/// empty items skipped, a repeated key rejected. take()/need() consume
/// items; finish() rejects whatever is left as unknown keys.
class Fields {
 public:
  Fields() = default;
  Fields(const Where& at, std::string_view list) { add(at, list); }

  /// Appends the items of another list (a later clause of the same spec).
  void add(const Where& at, std::string_view list);

  /// Consumes `key`; nullopt when the lists do not carry it.
  [[nodiscard]] std::optional<Field> take(std::string_view key);
  /// take() for a key the clause must carry.
  [[nodiscard]] Field need(std::string_view key);
  void finish() const;

 private:
  Where at_;
  std::vector<Field> items_;
};

/// `s` split at every `sep`, empty pieces kept, nothing trimmed.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char sep);

/// The text before the first `sep` of `s` (trimmed) and the text after it;
/// `tail` is nullopt when `s` has no `sep`.
struct Split {
  std::string_view head;
  std::optional<std::string_view> tail;
};
[[nodiscard]] Split split_first(std::string_view s, char sep);

/// The clauses of `text`, split at ';' and newlines and trimmed, each with
/// its line; empty clauses and '#' comments are skipped.
[[nodiscard]] std::vector<Where> clauses(std::string_view grammar,
                                         std::string_view text);

/// The text behind a spec flag value: `@path` reads the file with CRLF and
/// CR line ends turned into LF (throwing when it is unreadable); any other
/// value is the text itself.
[[nodiscard]] std::string load_text(std::string_view grammar,
                                    std::string_view arg);

}  // namespace esg::lex
