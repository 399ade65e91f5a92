#include "scenario/config_io.h"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "scenario/router_factory.h"
#include "util/string_util.h"

namespace dtnic::scenario {

namespace {

/// One registry drives both directions: key name -> (writer, reader).
struct Field {
  std::function<std::string(const ScenarioConfig&)> write;
  std::function<void(ScenarioConfig&, const std::string&)> read;
};

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

const std::map<std::string, Field>& registry() {
  static const std::map<std::string, Field> fields = [] {
    std::map<std::string, Field> f;
    auto add_double = [&f](const std::string& key, auto member) {
      f[key] = Field{[member](const ScenarioConfig& c) { return fmt(c.*member); },
                     [member](ScenarioConfig& c, const std::string& v) {
                       c.*member = util::parse_double(v);
                     }};
    };
    auto add_size = [&f](const std::string& key, auto member) {
      f[key] = Field{
          [member](const ScenarioConfig& c) { return std::to_string(c.*member); },
          [member, key](ScenarioConfig& c, const std::string& v) {
            const long long parsed = util::parse_int(v);
            if (parsed < 0) throw std::invalid_argument(key + " must be non-negative");
            c.*member = static_cast<std::decay_t<decltype(c.*member)>>(parsed);
          }};
    };
    auto add_int = [&f](const std::string& key, auto member) {
      f[key] = Field{[member](const ScenarioConfig& c) { return std::to_string(c.*member); },
                     [member](ScenarioConfig& c, const std::string& v) {
                       c.*member = static_cast<int>(util::parse_int(v));
                     }};
    };
    auto add_bool = [&f](const std::string& key, auto member) {
      f[key] = Field{
          [member](const ScenarioConfig& c) { return (c.*member) ? "true" : "false"; },
          [member](ScenarioConfig& c, const std::string& v) {
            c.*member = util::parse_bool(v);
          }};
    };

    add_size("nodes", &ScenarioConfig::num_nodes);
    add_size("keyword_pool", &ScenarioConfig::keyword_pool_size);
    add_size("interests_per_node", &ScenarioConfig::interests_per_node);
    add_size("buffer_bytes", &ScenarioConfig::buffer_capacity_bytes);
    add_size("message_bytes", &ScenarioConfig::message_size_bytes);
    add_double("area_side_m", &ScenarioConfig::area_side_m);
    add_double("sim_hours", &ScenarioConfig::sim_hours);
    add_bool("enrichment", &ScenarioConfig::enrichment_enabled);
    add_int("spray_copies", &ScenarioConfig::spray_copies);
    add_double("selfish_fraction", &ScenarioConfig::selfish_fraction);
    add_double("malicious_fraction", &ScenarioConfig::malicious_fraction);
    add_double("selfish_participation", &ScenarioConfig::selfish_participation);
    add_double("enrich_probability", &ScenarioConfig::enrich_probability);
    add_int("honest_max_tags", &ScenarioConfig::honest_max_tags);
    add_int("malicious_tags", &ScenarioConfig::malicious_tags);
    add_double("officer_fraction", &ScenarioConfig::officer_fraction);
    add_double("battery_conscious_fraction", &ScenarioConfig::battery_conscious_fraction);
    add_double("battery_capacity_j", &ScenarioConfig::battery_capacity_j);
    add_double("battery_threshold", &ScenarioConfig::battery_threshold);
    add_double("battery_participation", &ScenarioConfig::battery_participation);
    add_double("messages_per_node_per_hour", &ScenarioConfig::messages_per_node_per_hour);
    add_int("keywords_per_message", &ScenarioConfig::keywords_per_message);
    add_int("latent_extra_keywords", &ScenarioConfig::latent_extra_keywords);
    add_double("ttl_hours", &ScenarioConfig::ttl_hours);
    add_bool("priority_workload", &ScenarioConfig::priority_workload);
    add_double("min_speed_mps", &ScenarioConfig::min_speed_mps);
    add_double("max_speed_mps", &ScenarioConfig::max_speed_mps);
    add_double("max_pause_s", &ScenarioConfig::max_pause_s);
    add_double("scan_interval_s", &ScenarioConfig::scan_interval_s);
    add_double("ttl_sweep_interval_s", &ScenarioConfig::ttl_sweep_interval_s);
    add_double("sample_interval_s", &ScenarioConfig::sample_interval_s);
    add_size("exchange_threads", &ScenarioConfig::exchange_threads);
    f["seed"] = Field{[](const ScenarioConfig& c) { return std::to_string(c.seed); },
                      [](ScenarioConfig& c, const std::string& v) {
                        c.seed = static_cast<std::uint64_t>(util::parse_int(v));
                      }};
    f["scheme"] = Field{
        [](const ScenarioConfig& c) { return scheme_name(c.scheme); },
        [](ScenarioConfig& c, const std::string& v) { c.scheme = parse_scheme(v); }};
    f["mobility"] = Field{
        [](const ScenarioConfig& c) { return mobility_name(c.mobility); },
        [](ScenarioConfig& c, const std::string& v) {
          if (v == "random-waypoint") c.mobility = MobilityKind::kRandomWaypoint;
          else if (v == "random-walk") c.mobility = MobilityKind::kRandomWalk;
          else if (v == "hotspot") c.mobility = MobilityKind::kHotspot;
          else throw std::invalid_argument("unknown mobility model: '" + v + "'");
        }};
    f["contact_trace_file"] = Field{
        [](const ScenarioConfig& c) { return c.contact_trace_file; },
        [](ScenarioConfig& c, const std::string& v) { c.contact_trace_file = v; }};
    add_size("hotspot_count", &ScenarioConfig::hotspot_count);
    add_double("hotspot_radius_m", &ScenarioConfig::hotspot_radius_m);
    add_double("hotspot_probability", &ScenarioConfig::hotspot_probability);

    // Radio.
    f["radio.range_m"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.radio.range_m); },
        [](ScenarioConfig& c, const std::string& v) {
          c.radio.range_m = util::parse_double(v);
        }};
    f["radio.bitrate_bps"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.radio.bitrate_bps); },
        [](ScenarioConfig& c, const std::string& v) {
          c.radio.bitrate_bps = util::parse_double(v);
        }};
    f["radio.tx_power_w"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.radio.tx_power_w); },
        [](ScenarioConfig& c, const std::string& v) {
          c.radio.tx_power_w = util::parse_double(v);
        }};

    // ChitChat.
    f["chitchat.decay_beta"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.chitchat.decay_beta); },
        [](ScenarioConfig& c, const std::string& v) {
          c.chitchat.decay_beta = util::parse_double(v);
        }};
    f["chitchat.growth_rate"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.chitchat.growth_rate); },
        [](ScenarioConfig& c, const std::string& v) {
          c.chitchat.growth_rate = util::parse_double(v);
        }};
    f["chitchat.forward_margin"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.chitchat.forward_margin); },
        [](ScenarioConfig& c, const std::string& v) {
          c.chitchat.forward_margin = util::parse_double(v);
        }};

    // Incentives.
    f["incentive.initial_tokens"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.incentive.initial_tokens); },
        [](ScenarioConfig& c, const std::string& v) {
          c.incentive.initial_tokens = util::parse_double(v);
        }};
    f["incentive.max_incentive"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.incentive.max_incentive); },
        [](ScenarioConfig& c, const std::string& v) {
          c.incentive.max_incentive = util::parse_double(v);
        }};
    f["incentive.relay_threshold"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.incentive.relay_threshold); },
        [](ScenarioConfig& c, const std::string& v) {
          c.incentive.relay_threshold = util::parse_double(v);
        }};
    f["incentive.relay_prepay_fraction"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.incentive.relay_prepay_fraction); },
        [](ScenarioConfig& c, const std::string& v) {
          c.incentive.relay_prepay_fraction = util::parse_double(v);
        }};
    f["incentive.tag_reward_z"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.incentive.tag_reward_z); },
        [](ScenarioConfig& c, const std::string& v) {
          c.incentive.tag_reward_z = util::parse_double(v);
        }};
    f["incentive.tag_reward_cap"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.incentive.tag_reward_cap); },
        [](ScenarioConfig& c, const std::string& v) {
          c.incentive.tag_reward_cap = util::parse_double(v);
        }};

    // DRM.
    f["drm.enabled"] = Field{
        [](const ScenarioConfig& c) { return c.drm.enabled ? "true" : "false"; },
        [](ScenarioConfig& c, const std::string& v) {
          c.drm.enabled = util::parse_bool(v);
        }};
    f["drm.alpha"] = Field{[](const ScenarioConfig& c) { return fmt(c.drm.alpha); },
                           [](ScenarioConfig& c, const std::string& v) {
                             c.drm.alpha = util::parse_double(v);
                           }};
    f["drm.trust_threshold"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.drm.trust_threshold); },
        [](ScenarioConfig& c, const std::string& v) {
          c.drm.trust_threshold = util::parse_double(v);
        }};
    f["drm.confidence"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.drm.confidence); },
        [](ScenarioConfig& c, const std::string& v) {
          c.drm.confidence = util::parse_double(v);
        }};
    f["drm.rating_noise_sd"] = Field{
        [](const ScenarioConfig& c) { return fmt(c.drm.rating_noise_sd); },
        [](ScenarioConfig& c, const std::string& v) {
          c.drm.rating_noise_sd = util::parse_double(v);
        }};
    return f;
  }();
  return fields;
}

/// Levenshtein distance, single-row DP; key names are short so this is cheap.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
    }
  }
  return row[b.size()];
}

/// Closest registered key, or empty when nothing is plausibly close (more
/// than a third of the key would have to change).
std::string closest_key(const std::string& key) {
  std::string best;
  std::size_t best_dist = std::max<std::size_t>(2, key.size() / 3) + 1;
  for (const auto& [candidate, field] : registry()) {
    const std::size_t d = edit_distance(key, candidate);
    if (d < best_dist) {
      best_dist = d;
      best = candidate;
    }
  }
  return best;
}

std::string at_line(int line) {
  return line > 0 ? " (line " + std::to_string(line) + ")" : "";
}

}  // namespace

Scheme parse_scheme(const std::string& name) {
  const RouterSpec* spec = find_router_spec(name);
  if (spec == nullptr) throw std::invalid_argument("unknown scheme: '" + name + "'");
  return spec->scheme;
}

ScenarioConfig apply_config(ScenarioConfig base, const util::Config& kv) {
  const auto& fields = registry();
  for (const auto& [key, value] : kv.entries()) {
    auto it = fields.find(key);
    if (it == fields.end()) {
      std::string msg = "unknown scenario config key: '" + key + "'" + at_line(kv.line_of(key));
      if (const std::string hint = closest_key(key); !hint.empty()) {
        msg += " — did you mean '" + hint + "'?";
      }
      throw std::invalid_argument(msg);
    }
    try {
      it->second.read(base, value);
    } catch (const std::exception& e) {
      // Re-throw with the offending key (and source line when file-sourced)
      // so a bad value is attributable without bisecting the config.
      throw std::invalid_argument("config key '" + key + "'" + at_line(kv.line_of(key)) +
                                  ": " + e.what());
    }
  }
  base.validate();
  return base;
}

std::string to_config_text(const ScenarioConfig& cfg) {
  std::ostringstream os;
  for (const auto& [key, field] : registry()) {
    os << key << " = " << field.write(cfg) << "\n";
  }
  return os.str();
}

}  // namespace dtnic::scenario
