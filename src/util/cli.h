#pragma once

#include <map>
#include <string>
#include <vector>

/// \file cli.h
/// Minimal command-line flag parser for benchmark and example binaries.
/// Accepts `--name=value`, `--name value`, and bare `--flag` booleans.
/// A flag's type is that of its default: "true"/"false" makes a boolean, an
/// integer an integer, any other number a double, anything else a string.
/// Unknown flags, repeated flags and values of the wrong type are errors, so
/// that typos in sweep scripts fail loudly instead of dropping input.

namespace dtnic::util {

class Cli {
 public:
  /// Declare flags before parse(); \p help is printed by usage().
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parse argv. Throws std::invalid_argument on an unknown or repeated
  /// flag, a value flag without a value, or a value that does not parse as
  /// the flag's type. Recognizes --help by returning false (caller should
  /// print usage()).
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  /// parse() for a program's main: --help prints usage() to stdout and
  /// exits 0; a parse error prints the error and usage() to stderr and
  /// exits 2.
  void parse_or_exit(int argc, const char* const* argv, const std::string& program);

  [[nodiscard]] std::string usage(const std::string& program) const;

  [[nodiscard]] const std::string& get(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] long long get_int(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] bool was_set(const std::string& name) const;

 private:
  enum class Type { kString, kBool, kInt, kDouble };
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
    Type type = Type::kString;
    bool set = false;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace dtnic::util
