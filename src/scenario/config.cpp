#include "scenario/config.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "scenario/router_factory.h"
#include "util/assert.h"

namespace dtnic::scenario {

const char* scheme_name(Scheme s) {
  // Single source of truth: the router registry row for the scheme.
  return router_spec(s).name;
}

void ScenarioConfig::validate() const {
  DTNIC_REQUIRE_MSG(num_nodes >= 2, "need at least two nodes");
  DTNIC_REQUIRE_MSG(keyword_pool_size >= 1, "keyword pool must be non-empty");
  DTNIC_REQUIRE_MSG(interests_per_node >= 1, "nodes need at least one interest");
  DTNIC_REQUIRE_MSG(interests_per_node <= keyword_pool_size,
                    "more interests per node than keywords in the pool");
  DTNIC_REQUIRE_MSG(area_side_m > 0.0, "area must be positive");
  DTNIC_REQUIRE_MSG(sim_hours > 0.0, "simulated time must be positive");
  DTNIC_REQUIRE_MSG(message_size_bytes > 0, "message size must be positive");
  DTNIC_REQUIRE_MSG(message_size_bytes <= buffer_capacity_bytes,
                    "a single message must fit in the buffer");
  // NaN fails every comparison, so these reject it too.
  const std::pair<const char*, double> fractions[] = {
      {"selfish_fraction", selfish_fraction},
      {"malicious_fraction", malicious_fraction},
      {"battery_conscious_fraction", battery_conscious_fraction},
      {"officer_fraction", officer_fraction},
      {"selfish_participation", selfish_participation},
      {"enrich_probability", enrich_probability},
      {"battery_threshold", battery_threshold},
      {"battery_participation", battery_participation},
  };
  for (const auto& [name, value] : fractions) {
    DTNIC_REQUIRE_MSG(value >= 0.0 && value <= 1.0, std::string(name) + " must be in [0,1]");
  }
  DTNIC_REQUIRE_MSG(selfish_fraction + malicious_fraction + battery_conscious_fraction <= 1.0,
                    "behavior fractions exceed the population");
  DTNIC_REQUIRE_MSG(battery_capacity_j > 0.0, "battery capacity must be positive");
  DTNIC_REQUIRE_MSG(messages_per_node_per_hour > 0.0, "workload rate must be positive");
  DTNIC_REQUIRE_MSG(keywords_per_message >= 1, "messages need at least one keyword");
  DTNIC_REQUIRE_MSG(min_speed_mps > 0.0 && max_speed_mps >= min_speed_mps,
                    "speed range invalid");
  DTNIC_REQUIRE_MSG(scan_interval_s > 0.0, "scan interval must be positive");
  const std::pair<const char*, double> intervals[] = {
      {"sample_interval_s", sample_interval_s},
      {"ttl_sweep_interval_s", ttl_sweep_interval_s},
  };
  for (const auto& [name, value] : intervals) {
    DTNIC_REQUIRE_MSG(std::isfinite(value) && value > 0.0,
                      std::string(name) + " must be finite and positive");
  }
  DTNIC_REQUIRE_MSG(spray_copies >= 1, "spray copies must be >= 1");
  if (mobility == MobilityKind::kHotspot) {
    DTNIC_REQUIRE_MSG(hotspot_count >= 1, "hotspot mobility needs at least one hotspot");
    DTNIC_REQUIRE_MSG(hotspot_radius_m > 0.0, "hotspot radius must be positive");
    DTNIC_REQUIRE_MSG(hotspot_probability >= 0.0 && hotspot_probability <= 1.0,
                      "hotspot probability in [0,1]");
  }
  DTNIC_REQUIRE_MSG(drm.alpha > 0.5 && drm.alpha < 1.0, "DRM requires 0.5 < alpha < 1");
}

const char* mobility_name(MobilityKind k) {
  switch (k) {
    case MobilityKind::kRandomWaypoint: return "random-waypoint";
    case MobilityKind::kRandomWalk: return "random-walk";
    case MobilityKind::kHotspot: return "hotspot";
  }
  return "?";
}

ScenarioConfig ScenarioConfig::paper_defaults() { return ScenarioConfig{}; }

ScenarioConfig ScenarioConfig::scaled_defaults(std::size_t nodes, double hours) {
  ScenarioConfig cfg;
  cfg.num_nodes = nodes;
  cfg.sim_hours = hours;
  // Preserve Table 5.1's node density (500 nodes / 5 km² = 100 per km²).
  const double density_per_m2 = 500.0 / (2236.0 * 2236.0);
  cfg.area_side_m = std::sqrt(static_cast<double>(nodes) / density_per_m2);
  return cfg;
}

}  // namespace dtnic::scenario
