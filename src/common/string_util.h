// Small string helpers shared across modules.
#ifndef XREFINE_COMMON_STRING_UTIL_H_
#define XREFINE_COMMON_STRING_UTIL_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace xrefine {

/// Transparent string hash: with `std::equal_to<>` it lets a
/// std::string-keyed unordered container be probed with a string_view,
/// without allocating a std::string per probe.
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Splits `s` on `sep`, omitting empty pieces.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// ASCII lowercase copy.
std::string ToLowerAscii(std::string_view s);

/// True iff `prefix` is a prefix of `s`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True iff `suffix` is a suffix of `s`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Strips leading/trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

}  // namespace xrefine

#endif  // XREFINE_COMMON_STRING_UTIL_H_
