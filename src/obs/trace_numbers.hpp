// How the trace and stats files spell numbers. ChromeTraceSink and
// JsonlStatsSink write times in fixed precision 3 and counter values in
// general precision 6 through std::to_chars, which spells a double exactly
// as printf's "%.3f" and "%.6g" do; quantize_ms (analysis/dataset.hpp)
// spells times the same way before reading them back.
#pragma once

#include <charconv>
#include <cstddef>

namespace esg::obs {

/// Room for any double in fixed precision 3: a sign, 309 integer digits,
/// the point and three decimals ("inf" and "nan" are shorter).
inline constexpr std::size_t kFixed3Chars = 314;
/// Room for any double in general precision 6, e.g. "-1.79769e+308".
inline constexpr std::size_t kGeneral6Chars = 16;

/// Writes `v` as "%.3f" spells it into [first, first + kFixed3Chars) and
/// returns one past its last byte.
inline char* format_fixed3(char* first, double v) {
  return std::to_chars(first, first + kFixed3Chars, v,
                       std::chars_format::fixed, 3)
      .ptr;
}

/// Writes `v` as "%.6g" spells it into [first, first + kGeneral6Chars) and
/// returns one past its last byte.
inline char* format_general6(char* first, double v) {
  return std::to_chars(first, first + kGeneral6Chars, v,
                       std::chars_format::general, 6)
      .ptr;
}

}  // namespace esg::obs
