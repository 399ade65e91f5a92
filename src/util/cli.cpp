#include "util/cli.h"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/assert.h"
#include "util/string_util.h"

namespace dtnic::util {

namespace {

/// True when \p parse accepts \p text.
template <class ParseFn>
bool parses(ParseFn parse, const std::string& text) {
  try {
    (void)parse(text);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

}  // namespace

void Cli::add_flag(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  DTNIC_REQUIRE_MSG(!flags_.count(name), "duplicate flag: " + name);
  Type type = Type::kString;
  if (default_value == "true" || default_value == "false") {
    type = Type::kBool;
  } else if (parses(parse_int, default_value)) {
    type = Type::kInt;
  } else if (parses(parse_double, default_value)) {
    type = Type::kDouble;
  }
  flags_[name] = Flag{default_value, default_value, help, type, false};
  order_.push_back(name);
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return false;
    if (!starts_with(arg, "--")) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    } else {
      name = arg;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) throw std::invalid_argument("unknown flag: --" + name);
    Flag& flag = it->second;
    if (flag.set) {
      throw std::invalid_argument("flag --" + name +
                                  " given twice; pass each flag once (join several --set "
                                  "assignments with ';', e.g. --set \"a=1;b=2\")");
    }
    if (!has_value) {
      // `--flag value` unless the next token is another flag; only booleans
      // may stand bare, meaning "true".
      if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        value = argv[++i];
      } else if (flag.type == Type::kBool) {
        value = "true";
      } else {
        throw std::invalid_argument("flag --" + name + " needs a value");
      }
    }
    try {
      switch (flag.type) {
        case Type::kBool: (void)parse_bool(value); break;
        case Type::kInt: (void)parse_int(value); break;
        case Type::kDouble: (void)parse_double(value); break;
        case Type::kString: break;
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("flag --" + name + ": " + e.what());
    }
    flag.value = value;
    flag.set = true;
  }
  return true;
}

void Cli::parse_or_exit(int argc, const char* const* argv, const std::string& program) {
  bool proceed = false;
  try {
    proceed = parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << program << ": " << e.what() << "\n" << usage(program);
    std::exit(2);
  }
  if (!proceed) {
    std::cout << usage(program);
    std::exit(0);
  }
}

std::string Cli::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    os << "  --" << name << " (default: " << f.default_value << ")\n      " << f.help << "\n";
  }
  return os.str();
}

const std::string& Cli::get(const std::string& name) const {
  auto it = flags_.find(name);
  DTNIC_REQUIRE_MSG(it != flags_.end(), "undeclared flag: " + name);
  return it->second.value;
}

double Cli::get_double(const std::string& name) const { return parse_double(get(name)); }
long long Cli::get_int(const std::string& name) const { return parse_int(get(name)); }
bool Cli::get_bool(const std::string& name) const { return parse_bool(get(name)); }

bool Cli::was_set(const std::string& name) const {
  auto it = flags_.find(name);
  DTNIC_REQUIRE_MSG(it != flags_.end(), "undeclared flag: " + name);
  return it->second.set;
}

}  // namespace dtnic::util
