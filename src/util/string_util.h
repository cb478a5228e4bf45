#ifndef SDS_UTIL_STRING_UTIL_H_
#define SDS_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace sds {

/// \brief Splits `input` on `delim`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view input, char delim);

/// \brief Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view input);

/// \brief True if `input` starts with `prefix`.
bool StartsWith(std::string_view input, std::string_view prefix);

/// \brief True if `input` ends with `suffix`.
bool EndsWith(std::string_view input, std::string_view suffix);

/// \brief Lower-cases ASCII characters.
std::string ToLowerAscii(std::string_view input);

/// \brief Parses a signed integer; rejects trailing garbage.
Result<int64_t> ParseInt64(std::string_view input);

/// \brief Parses a double; rejects trailing garbage.
Result<double> ParseDouble(std::string_view input);

/// \brief Joins strings with a separator.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// \brief Appends `input` to `*out` as the body of a JSON string literal
/// (quotes not included). `"` and `\` get their two-character escapes,
/// control characters use the short forms (\n, \t, ...) or \u00XX, and
/// bytes >= 0x7F are escaped byte-wise as \u00XX (Latin-1 interpretation),
/// so the output is always pure-ASCII valid JSON even when the input is
/// not valid UTF-8 (e.g. hostile bytes from a CLF log).
void AppendJsonEscaped(std::string* out, std::string_view input);

/// \brief Returns `input` escaped as by AppendJsonEscaped.
std::string JsonEscape(std::string_view input);

/// \brief Appends `value` formatted with `%.17g`: enough digits that the
/// JSON, CSV and Prometheus exports round-trip every double exactly.
void AppendNumber(std::string* out, double value);

/// \brief Writes `contents` to the file at `path`, replacing it. False
/// when the file cannot be opened or the write fails.
bool WriteStringToFile(const std::string& path, std::string_view contents);

}  // namespace sds

#endif  // SDS_UTIL_STRING_UTIL_H_
