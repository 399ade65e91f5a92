#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "live/live_node.h"
#include "obs/trace_replay.h"
#include "obs/trace_sink.h"
#include "scenario/config.h"
#include "scenario/router_factory.h"
#include "util/cli.h"
#include "util/num_format.h"

/// \file dtnic_main.cpp
/// `dtnic` — the live overlay daemon. Runs one DTN node (the real Host +
/// router stack) over loopback/LAN UDP for a fixed duration, optionally
/// publishing an annotated message and subscribing to keywords, and emits
/// the same `dtnic.trace.v1` JSONL stream as the simulator, so the obs
/// tooling (replay_trace, validators) works on live runs unchanged.
///
/// Two-daemon loopback quickstart: see README.md ("Live overlay").

namespace {

using dtnic::live::Endpoint;
using dtnic::live::LiveNode;
using dtnic::live::LiveNodeConfig;
using dtnic::util::SimTime;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// "1=127.0.0.1:47612,2=127.0.0.1:47613" -> [(node, endpoint), ...]
std::vector<std::pair<dtnic::routing::NodeId, Endpoint>> parse_peers(const std::string& s) {
  std::vector<std::pair<dtnic::routing::NodeId, Endpoint>> out;
  for (const std::string& item : split_csv(s)) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("--peers entry needs id=ip:port, got: " + item);
    }
    const long id = std::stol(item.substr(0, eq));
    const auto ep = dtnic::live::parse_endpoint(item.substr(eq + 1));
    if (id < 0 || !ep) throw std::invalid_argument("bad --peers entry: " + item);
    out.emplace_back(dtnic::routing::NodeId(static_cast<std::uint32_t>(id)), *ep);
  }
  return out;
}

int run(int argc, char** argv) {
  dtnic::util::Cli cli;
  cli.add_flag("node", "0", "this node's id");
  cli.add_flag("listen", "0", "UDP port to bind on 127.0.0.1 (0 = ephemeral)");
  cli.add_flag("peers", "", "seed peers as id=ip:port[,id=ip:port...]");
  cli.add_flag("keywords", "kw0,kw1,kw2,kw3", "agreed keyword pool, in order (comma list)");
  cli.add_flag("subscribe", "", "keywords this node's user subscribes to (comma list)");
  cli.add_flag("publish", "", "keywords of one message to publish at startup (comma list)");
  cli.add_flag("publish-size", "65536", "published message size in bytes");
  cli.add_flag("duration-s", "10.0", "wall-clock run duration in seconds");
  cli.add_flag("hello-interval-s", "0.5", "keepalive HELLO interval");
  cli.add_flag("scheme", "incentive", "routing scheme: incentive or chitchat");
  cli.add_flag("rank", "1", "hardware/user rank R_u (1 = highest)");
  cli.add_flag("seed", "1", "seed for this node's judgement/noise streams");
  cli.add_flag("trace-out", "", "write a dtnic.trace.v1 JSONL trace to this path");
  cli.add_flag("metrics-out", "", "write a key=value metrics summary to this path");
  cli.add_flag("replay-check", "", "after the run, replay the trace and verify counters");
  cli.parse_or_exit(argc, argv, "dtnic");

  LiveNodeConfig cfg;
  cfg.node = dtnic::routing::NodeId(static_cast<std::uint32_t>(cli.get_int("node")));
  cfg.listen_port = static_cast<std::uint16_t>(cli.get_int("listen"));
  cfg.rank = static_cast<int>(cli.get_int("rank"));
  cfg.hello_interval_s = cli.get_double("hello-interval-s");
  cfg.peer_timeout_s = 4.0 * cfg.hello_interval_s;
  cfg.keywords = split_csv(cli.get("keywords"));
  cfg.scenario.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::string scheme = cli.get("scheme");
  const dtnic::scenario::RouterSpec* spec = dtnic::scenario::find_router_spec(scheme);
  if (spec == nullptr) throw std::invalid_argument("unknown --scheme: " + scheme);
  cfg.scenario.scheme = spec->scheme;

  LiveNode node(cfg);
  for (const auto& [peer_id, endpoint] : parse_peers(cli.get("peers"))) {
    node.add_seed_peer(peer_id, endpoint);
  }

  const std::string trace_path = cli.get("trace-out");
  std::unique_ptr<dtnic::obs::TraceSink> trace;
  dtnic::obs::SinkHandle trace_handle;
  if (!trace_path.empty()) {
    dtnic::obs::TraceOptions options;
    options.seed = cfg.scenario.seed;
    options.scheme = scheme;
    options.clock = [&node]() { return node.now(); };
    trace = dtnic::obs::open_trace_file(trace_path, std::move(options));
    trace_handle = node.events().add_sink(*trace);
  }

  const SimTime t0 = SimTime::zero();
  if (!cli.get("subscribe").empty()) node.subscribe(split_csv(cli.get("subscribe")), t0);

  const auto start = std::chrono::steady_clock::now();
  auto now = [&start]() {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return SimTime::seconds(std::chrono::duration<double>(elapsed).count());
  };

  if (!cli.get("publish").empty()) {
    node.publish(split_csv(cli.get("publish")), now(),
                 static_cast<std::uint64_t>(cli.get_int("publish-size")),
                 dtnic::msg::Priority::kHigh, 1.0);
  }

  const double duration_s = cli.get_double("duration-s");
  while (now().sec() < duration_s) {
    node.service(now());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::size_t links_at_end = node.links_up();
  node.shutdown(now());

  const auto& m = node.metrics();
  std::ostringstream summary;
  summary << "node=" << node.host().id() << "\n"
          << "links_up=" << links_at_end << "\n"
          << "created=" << m.created() << "\n"
          << "delivered_unique=" << m.delivered_unique() << "\n"
          << "relayed=" << m.relay_arrivals() << "\n"
          << "traffic=" << m.traffic() << "\n"
          << "tokens_paid=" << dtnic::util::format_double(m.tokens_paid_total()) << "\n"
          << "tokens_balance=" << dtnic::util::format_double(node.tokens()) << "\n"
          << "rejected_frames=" << node.rejected_frames() << "\n";
  std::cout << summary.str();
  if (!cli.get("metrics-out").empty()) {
    std::ofstream out(cli.get("metrics-out"));
    out << summary.str();
  }

  if (trace) {
    trace_handle.reset();
    trace->flush();
    if (!trace->ok()) {
      std::cerr << "dtnic: trace write failed: " << trace_path << "\n";
      return 1;
    }
    trace.reset();
  }

  // Self-check: replaying our own trace into a fresh collector must
  // reproduce this run's counters exactly (the obs layer's contract).
  if (!cli.get("replay-check").empty()) {
    if (trace_path.empty()) {
      std::cerr << "dtnic: --replay-check needs --trace-out\n";
      return 1;
    }
    std::ifstream in(trace_path);
    dtnic::stats::MetricsCollector replayed;
    dtnic::obs::replay_trace(in, replayed);
    const bool same = replayed.created() == m.created() &&
                      replayed.delivered_unique() == m.delivered_unique() &&
                      replayed.relay_arrivals() == m.relay_arrivals() &&
                      replayed.traffic() == m.traffic() &&
                      replayed.tokens_paid_total() == m.tokens_paid_total() &&
                      replayed.reputation_updates() == m.reputation_updates();
    if (!same) {
      std::cerr << "dtnic: replay-check FAILED: trace does not reproduce live counters\n";
      return 1;
    }
    std::cout << "replay_check=ok\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A reader that exits first (e.g. the next stage of a shell pipeline) must
  // not kill the daemon before its trace and metrics files are complete.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dtnic: " << e.what() << "\n";
    return 1;
  }
}
