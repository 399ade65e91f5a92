#include "util/config.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/string_util.h"

namespace dtnic::util {

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    for (const std::string& piece : split(line, ';')) {
      const std::string entry = trim(piece);
      if (entry.empty()) continue;
      const auto eq = entry.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("config line " + std::to_string(line_no) +
                                    ": expected 'key = value', got '" + entry + "'");
      }
      const std::string key = trim(entry.substr(0, eq));
      const std::string value = trim(entry.substr(eq + 1));
      if (key.empty()) {
        throw std::invalid_argument("config line " + std::to_string(line_no) + ": empty key");
      }
      if (cfg.has(key)) {
        throw std::invalid_argument("config line " + std::to_string(line_no) + ": key '" + key +
                                    "' already set on line " +
                                    std::to_string(cfg.line_of(key)));
      }
      cfg.set(key, value, line_no);
    }
  }
  return cfg;
}

Config Config::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open config file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

void Config::set(const std::string& key, const std::string& value, int line) {
  values_[key] = value;
  if (line > 0) {
    lines_[key] = line;
  } else {
    lines_.erase(key);  // the latest (programmatic) source wins
  }
}

int Config::line_of(const std::string& key) const {
  const auto it = lines_.find(key);
  return it == lines_.end() ? 0 : it->second;
}

bool Config::has(const std::string& key) const { return values_.count(key) > 0; }

std::optional<std::string> Config::get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key, const std::string& dflt) const {
  return get(key).value_or(dflt);
}

double Config::get_double(const std::string& key, double dflt) const {
  auto v = get(key);
  return v ? parse_double(*v) : dflt;
}

long long Config::get_int(const std::string& key, long long dflt) const {
  auto v = get(key);
  return v ? parse_int(*v) : dflt;
}

bool Config::get_bool(const std::string& key, bool dflt) const {
  auto v = get(key);
  return v ? parse_bool(*v) : dflt;
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.values_) set(k, v, other.line_of(k));
}

}  // namespace dtnic::util
