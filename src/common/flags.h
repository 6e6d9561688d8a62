// Command-line flag parsing for every tool, bench and example binary:
// `--name=value` and `--name value` forms, and typed getters with defaults
// that read values by the number rule of common/text.h. No global state.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nu {

class Flags {
 public:
  /// Parses argv: `--name=value`, `--name value` (when the next argument
  /// is not a flag) or boolean `--name`; every other argument is a
  /// positional. Never fails: the getters check values.
  static Flags Parse(int argc, char** argv);

  [[nodiscard]] bool Has(const std::string& name) const;

  /// Typed getters; return `fallback` when absent. Throw CorruptInput
  /// naming the flag when its value does not parse as the type.
  [[nodiscard]] std::string GetString(const std::string& name,
                                      const std::string& fallback) const;
  [[nodiscard]] double GetDouble(const std::string& name,
                                 double fallback) const;
  [[nodiscard]] std::int64_t GetInt(const std::string& name,
                                    std::int64_t fallback) const;
  [[nodiscard]] std::uint64_t GetUint(const std::string& name,
                                      std::uint64_t fallback) const;
  /// Boolean: present without value (or "true"/"1") => true;
  /// "false"/"0" => false.
  [[nodiscard]] bool GetBool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  /// Names given on the command line that were never queried — typo guard
  /// for CLI tools (call after all getters).
  [[nodiscard]] std::vector<std::string> UnqueriedFlags() const;

 private:
  /// The value of `name` marked queried, or nullptr when absent.
  [[nodiscard]] const std::string* Find(const std::string& name) const;
  /// `read` of the value, `fallback` when absent; CorruptInput otherwise.
  template <typename T, typename Reader>
  T Get(const std::string& name, T fallback, Reader read) const;

  mutable std::map<std::string, std::pair<std::string, bool>> values_;
  std::vector<std::string> positionals_;
};

}  // namespace nu
