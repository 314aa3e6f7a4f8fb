//===- support/StringUtils.h - Small string helpers ----------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string plus join/pad helpers used by
/// the IR printers and the benchmark tables, and the strict number parser
/// behind the tools' numeric flags.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_SUPPORT_STRINGUTILS_H
#define UNIT_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace unit {

/// printf-style formatting returning a std::string.
std::string formatStr(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Renders a shape like [2, 3, 4] as "2x3x4".
std::string shapeStr(const std::vector<int64_t> &Shape);

/// Left-pads \p S with spaces to \p Width characters.
std::string padLeft(const std::string &S, size_t Width);

/// Right-pads \p S with spaces to \p Width characters.
std::string padRight(const std::string &S, size_t Width);

/// Parses all of \p Text as one decimal number in [\p Min, \p Max]: the
/// integer overload takes digits only, the real one any finite decimal.
/// Empty input, a leading '+' or space, trailing bytes, and values
/// outside the range (a negative one included, when \p Min is 0) are
/// rejected: the function returns false, leaves \p Out alone, and sets
/// \p Err to the reason.
bool parseNumber(std::string_view Text, int64_t Min, int64_t Max,
                 int64_t &Out, std::string &Err);
bool parseNumber(std::string_view Text, double Min, double Max, double &Out,
                 std::string &Err);

} // namespace unit

#endif // UNIT_SUPPORT_STRINGUTILS_H
