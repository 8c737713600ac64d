#ifndef ASTERIX_COMMON_STRING_UTILS_H_
#define ASTERIX_COMMON_STRING_UTILS_H_

#include <string>
#include <string_view>
#include <vector>

namespace asterix {

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> SplitString(std::string_view s, char delim);

/// Strips leading/trailing ASCII whitespace.
std::string_view TrimString(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// SQL-style LIKE match: '%' matches any run, '_' matches one character.
bool LikeMatch(std::string_view text, std::string_view pattern);

/// Minimal glob-free regex subset used by AQL `matches`: supports '.',
/// '*', '+', '?', character classes `[...]`, anchors '^'/'$', and literals.
bool RegexMatch(std::string_view text, std::string_view pattern);

/// Appends `s` to `out` as a quoted JSON string: quotes and backslashes are
/// escaped, and every control byte below 0x20 becomes an escape, so text
/// from clients (statements, labels, names) always yields valid JSON.
void AppendJsonString(std::string_view s, std::string* out);

}  // namespace asterix

#endif  // ASTERIX_COMMON_STRING_UTILS_H_
