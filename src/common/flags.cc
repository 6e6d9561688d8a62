#include "common/flags.h"

#include <string_view>

#include "common/text.h"

namespace nu {

Flags Flags::Parse(int argc, char** argv) {
  const auto is_flag = [](std::string_view arg) {
    return arg.starts_with("--");
  };
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!is_flag(arg)) {
      flags.positionals_.emplace_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    std::string value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && !is_flag(argv[i + 1])) {
      value = argv[++i];  // `--name value`; a bare `--name` is boolean
    }
    flags.values_[std::string(arg.substr(2, eq - 2))] = {value, false};
  }
  return flags;
}

const std::string* Flags::Find(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return nullptr;
  it->second.second = true;
  return &it->second.first;
}

bool Flags::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  const std::string* value = Find(name);
  return value != nullptr ? *value : fallback;
}

template <typename T, typename Reader>
T Flags::Get(const std::string& name, T fallback, Reader read) const {
  const std::string* value = Find(name);
  if (value == nullptr) return fallback;
  return Require<CorruptInput>(read(*value), *value,
                               "flag --" + name + ": bad value");
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  return Get(name, fallback, ParseReal);
}

std::int64_t Flags::GetInt(const std::string& name,
                           std::int64_t fallback) const {
  return Get(name, fallback, ParseInt);
}

std::uint64_t Flags::GetUint(const std::string& name,
                             std::uint64_t fallback) const {
  return Get(name, fallback, [](std::string_view v) { return ParseCount(v); });
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  const std::string* value = Find(name);
  if (value == nullptr) return fallback;
  if (value->empty() || *value == "true" || *value == "1") return true;
  if (*value == "false" || *value == "0") return false;
  throw CorruptInput("flag --" + name + ": bad value '" + *value + "'");
}

std::vector<std::string> Flags::UnqueriedFlags() const {
  std::vector<std::string> unqueried;
  for (const auto& [name, entry] : values_) {
    if (!entry.second) unqueried.push_back(name);
  }
  return unqueried;
}

}  // namespace nu
