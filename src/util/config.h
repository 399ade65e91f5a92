#pragma once

#include <map>
#include <optional>
#include <string>

/// \file config.h
/// Key/value configuration store in ONE-simulator style `Key = value` syntax
/// with `#` comments. Scenario files and example programs use this to
/// override ScenarioConfig defaults without recompiling.

namespace dtnic::util {

class Config {
 public:
  Config() = default;

  /// Parse `key = value` entries separated by newlines or semicolons
  /// (semicolons allow inline overrides like "nodes=30; sim_hours=2").
  /// `#` starts a comment that runs to end of line. Throws
  /// std::invalid_argument on malformed entries (line number in message)
  /// and on a key given twice in \p text (both line numbers in message).
  [[nodiscard]] static Config parse(const std::string& text);

  /// Load from a file; throws std::runtime_error if unreadable.
  [[nodiscard]] static Config load_file(const std::string& path);

  /// \p line is the 1-based source line for error reporting; 0 (the default)
  /// means "not from a file" (programmatic set, CLI override).
  void set(const std::string& key, const std::string& value, int line = 0);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  /// Source line recorded for \p key; 0 when unknown or not file-sourced.
  [[nodiscard]] int line_of(const std::string& key) const;

  /// Typed getters with defaults; throw std::invalid_argument when the value
  /// exists but cannot be parsed as the requested type.
  [[nodiscard]] std::string get_string(const std::string& key, const std::string& dflt) const;
  [[nodiscard]] double get_double(const std::string& key, double dflt) const;
  [[nodiscard]] long long get_int(const std::string& key, long long dflt) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool dflt) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const { return values_; }

  /// Overlay: entries in \p other replace entries here.
  void merge(const Config& other);

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, int> lines_;  ///< 1-based source line per key (if any)
};

}  // namespace dtnic::util
