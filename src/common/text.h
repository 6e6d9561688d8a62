// Reading untrusted text: every hand-editable format (fault plans, grey
// specs, chaos artifacts, trace CSV) and every command line splits and
// reads numbers here. A number token is accepted only when the whole of it
// parses once surrounding ASCII whitespace is dropped; reals must be
// finite, and counts are unsigned decimals with no sign. The parsers return
// nullopt otherwise, and each caller throws its own format's typed error.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace nu {

/// Malformed outside input with no format-specific error: a command line,
/// an enum name, a trace CSV, or a truncated or out-of-range binary read.
class CorruptInput : public std::runtime_error {
 public:
  explicit CorruptInput(const std::string& what)
      : std::runtime_error("corrupt input: " + what) {}
};

/// Whitespace-separated tokens of `line`, as views into it.
[[nodiscard]] std::vector<std::string_view> Tokens(std::string_view line);

/// Splits `text` on `sep`, keeping empty fields: "" gives one empty field.
[[nodiscard]] std::vector<std::string_view> Split(std::string_view text,
                                                  char sep);

[[nodiscard]] std::optional<double> ParseReal(std::string_view token);
/// An unsigned decimal no greater than `max`.
[[nodiscard]] std::optional<std::uint64_t> ParseCount(
    std::string_view token,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
[[nodiscard]] std::optional<std::int64_t> ParseInt(std::string_view token);

/// `*parsed`, or throws Error(what + " '" + token + "'") when `token` did
/// not parse: each format adds its own context and typed error.
template <typename Error, typename T>
T Require(const std::optional<T>& parsed, std::string_view token,
          const std::string& what) {
  if (!parsed) throw Error(what + " '" + std::string(token) + "'");
  return *parsed;
}

/// The shortest decimal that parses back to exactly `value` (same bytes on
/// every platform).
[[nodiscard]] std::string FormatReal(double value);

}  // namespace nu
