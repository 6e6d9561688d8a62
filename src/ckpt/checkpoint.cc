#include "ckpt/checkpoint.h"

#include <algorithm>
#include <cstdio>

#include "common/text.h"

namespace nu::ckpt {
namespace {

std::string RoundStem(std::uint64_t round) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%010llu",
                static_cast<unsigned long long>(round));
  return buf;
}

}  // namespace

std::filesystem::path SnapshotPath(const std::filesystem::path& dir,
                                   std::uint64_t round) {
  return dir / ("snap-" + RoundStem(round) + ".nuck");
}

std::filesystem::path JournalPath(const std::filesystem::path& dir,
                                  std::uint64_t round) {
  return dir / ("wal-" + RoundStem(round) + ".nuwal");
}

std::vector<std::uint64_t> ListSnapshotRounds(
    const std::filesystem::path& dir) {
  std::vector<std::uint64_t> rounds;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view prefix = "snap-";
    constexpr std::string_view suffix = ".nuck";
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string_view digits = std::string_view(name).substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    if (const auto round = ParseCount(digits)) rounds.push_back(*round);
  }
  std::sort(rounds.begin(), rounds.end(), std::greater<>());
  return rounds;
}

}  // namespace nu::ckpt
