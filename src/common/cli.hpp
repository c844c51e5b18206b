// Tiny command-line flag parser shared by benches and examples.
// Accepts --name=value, --name value, and boolean --name forms.
//
// The flags a binary accepts are exactly the ones it reads: once every
// flag is read, exit_on_errors() rejects any other flag on the command
// line, and any number that did not parse in full.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace soc {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  // Comma-separated list forms (sweep grids: --lambdas 0.3,0.5).  The
  // fallback is given in the same comma-separated syntax; empty elements
  // are skipped, so a trailing comma is harmless.  The numeric forms are
  // strict — any element that does not parse in full (a ';' typo, a
  // negative count, trailing junk) returns nullopt with a message on
  // stderr, because a silently truncated grid axis would merge wrong
  // sweep numbers.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& name, const std::string& fallback) const;
  [[nodiscard]] std::optional<std::vector<double>> get_double_list(
      const std::string& name, const std::string& fallback) const;
  [[nodiscard]] std::optional<std::vector<std::size_t>> get_size_list(
      const std::string& name, const std::string& fallback) const;

  /// Exit with status 2 and a message on stderr if the command line holds
  /// a flag that no accessor has read, or get_int/get_double met a value
  /// that does not parse in full.  Call it after reading every flag the
  /// binary takes and before starting work.
  void exit_on_errors() const;

 private:
  /// `name`'s value, or nullptr when absent; either way `name` is read.
  [[nodiscard]] const std::string* find(const std::string& name) const;
  void reject(const std::string& name, const char* what) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  mutable std::vector<std::string> errors_;
};

}  // namespace soc
