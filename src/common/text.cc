#include "common/text.h"

#include <charconv>
#include <cmath>

#include "common/check.h"

namespace nu {
namespace {

constexpr std::string_view kSpace = " \t\n\v\f\r";

// std::from_chars over the whole token once surrounding whitespace is
// dropped: no leading '+', no hex prefix, no locale, and a partial parse
// such as "7x" is a failure.
template <typename T>
std::optional<T> ParseWhole(std::string_view token) {
  const std::size_t first = token.find_first_not_of(kSpace);
  if (first == std::string_view::npos) return std::nullopt;
  token = token.substr(first, token.find_last_not_of(kSpace) + 1 - first);
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

std::vector<std::string_view> Tokens(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t end = 0;
  while (true) {
    const std::size_t start = line.find_first_not_of(kSpace, end);
    if (start == std::string_view::npos) return out;
    end = line.find_first_of(kSpace, start);  // npos ends the next search
    out.push_back(line.substr(start, end - start));
  }
}

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const std::size_t at = text.find(sep);
    out.push_back(text.substr(0, at));
    if (at == std::string_view::npos) return out;
    text.remove_prefix(at + 1);
  }
}

std::optional<double> ParseReal(std::string_view token) {
  const std::optional<double> value = ParseWhole<double>(token);
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> ParseCount(std::string_view token,
                                        std::uint64_t max) {
  const std::optional<std::uint64_t> value = ParseWhole<std::uint64_t>(token);
  if (!value || *value > max) return std::nullopt;
  return value;
}

std::optional<std::int64_t> ParseInt(std::string_view token) {
  return ParseWhole<std::int64_t>(token);
}

std::string FormatReal(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  NU_CHECK(ec == std::errc{});
  return std::string(buf, end);
}

}  // namespace nu
