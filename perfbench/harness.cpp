/// End-to-end benchmark harness for the dtnic simulator.
///
///   perfbench_harness --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///                     [--size full|tiny]
///
/// A run executes a fixed list of single-threaded Scenarios derived from
/// --seed (the workload's sub-runs), then repeats sub-runs from the start of
/// the list while the --seconds budget allows. Each Scenario is constructed
/// and run in a fresh child process, so no measurement inherits the heap
/// left by an earlier one, and the child reports its sample back over a
/// pipe. A traced run measures the first half of the list, each sub-run
/// once untraced and once traced.
///
/// Every Scenario's outputs are checked: token conservation, delivered <=
/// created, identical statistics on every repetition of a seed, and a
/// committed fingerprint at the default seed. The last line of stdout is
/// one JSON object: the end-to-end metrics with --trace 0, the per-layer
/// metrics of a separate traced run with --trace 1.
///
/// Only the program's public surface is used: the Scenario constructor and
/// run(), RunResult/PhaseTimings, Scenario::events(), the simulator's event
/// count, the routers' plan_into/accept, and getrusage.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/trace_sink.h"
#include "routing/router.h"
#include "scenario/scenario.h"

namespace {

using namespace dtnic;
using scenario::RunResult;
using scenario::Scenario;
using scenario::ScenarioConfig;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr const char* kTraceFile = "perfbench_trace.jsonl";
/// Post-run probes: the first kProbePairs end-state links, both directions,
/// walked kProbeRounds times.
constexpr std::size_t kProbePairs = 256;
constexpr int kProbeRounds = 5;

// --- workloads ----------------------------------------------------------------
// Scenario parameters only: no workload sets shard_threads or
// exchange_threads, so every run is the serial program.

ScenarioConfig table51(bool tiny) {
  // examples/configs/paper_table51.cfg (Table 5.1 exactly: 500 nodes,
  // 2236 m side, incentive scheme, 200 tokens) with the 24 h horizon cut.
  ScenarioConfig cfg = tiny ? ScenarioConfig::scaled_defaults(100, 0.5)
                            : ScenarioConfig::paper_defaults();
  if (!tiny) cfg.sim_hours = 1.0;
  return cfg;
}

ScenarioConfig sparse_crowd(bool tiny) {
  // Table 5.1 density with ten times the nodes and scarce messages.
  ScenarioConfig cfg = tiny ? ScenarioConfig::scaled_defaults(1000, 0.1)
                            : ScenarioConfig::scaled_defaults(5000, 0.3);
  // Tiny keeps a few messages per sub-run in its shorter, smaller world.
  cfg.messages_per_node_per_hour = tiny ? 0.05 : 0.01;
  return cfg;
}

ScenarioConfig hostile_economy(bool tiny) {
  // Table 5.1 base with selfish and malicious populations, the priority
  // workload, expiring messages and small buffers.
  ScenarioConfig cfg = tiny ? ScenarioConfig::scaled_defaults(100, 1.0)
                            : ScenarioConfig::paper_defaults();
  if (!tiny) cfg.sim_hours = 2.0;
  cfg.selfish_fraction = 0.3;
  cfg.malicious_fraction = 0.2;
  cfg.priority_workload = true;
  cfg.ttl_hours = 1.5;
  cfg.buffer_capacity_bytes = 20ull * 1024 * 1024;
  cfg.messages_per_node_per_hour = 1.0;
  return cfg;
}

struct Workload {
  const char* name;
  ScenarioConfig (*make)(bool tiny);
  std::size_t sub_runs;  ///< Scenarios per run; their sim outputs are pooled
  /// Committed fingerprints of the first half of the sub-run list (the part
  /// both modes run) at kDefaultSeed.
  std::uint64_t fingerprint_full;
  std::uint64_t fingerprint_tiny;
};

// Many short sub-runs rather than a few long ones: each metric averages
// over as many seeds and host-noise samples as the run length allows.
constexpr std::array<Workload, 3> kWorkloads{{
    {"table51", table51, 6, 0xe1949b669c019711ull, 0x52938de59403bb2cull},
    {"sparse_crowd", sparse_crowd, 8, 0x659992f09a05a03aull, 0x15c5ac185d6c3a04ull},
    {"hostile_economy", hostile_economy, 8, 0x02b749f15264980full, 0xf66873dd7da2b326ull},
}};

// --- command line -------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

constexpr const char* kUsage =
    "usage: perfbench_harness --workload table51|sparse_crowd|hostile_economy\n"
    "                         [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]\n";

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "perfbench_harness: " << why << "\n" << kUsage;
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    usage_error("--" + flag + " expects a number, got '" + text + "'");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage_error("unexpected argument '" + arg + "'");
    std::string key = arg.substr(2);
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      value = argv[++i];
    }
    if (key != "workload" && key != "seed" && key != "seconds" && key != "trace" &&
        key != "size") {
      usage_error("unknown flag --" + key);
    }
    if (!given.emplace(key, value).second) usage_error("repeated flag --" + key);
  }

  Options opt;
  const auto workload = given.find("workload");
  if (workload == given.end()) usage_error("--workload is required");
  for (const Workload& w : kWorkloads) {
    if (workload->second == w.name) opt.workload = &w;
  }
  if (opt.workload == nullptr) usage_error("unknown workload '" + workload->second + "'");
  if (auto it = given.find("seed"); it != given.end()) {
    opt.seed = parse_number<std::uint64_t>("seed", it->second);
  }
  if (auto it = given.find("seconds"); it != given.end()) {
    opt.seconds = parse_number<double>("seconds", it->second);
    if (!(opt.seconds > 0.0 && opt.seconds <= 3600.0)) usage_error("--seconds out of range");
  }
  if (auto it = given.find("trace"); it != given.end()) {
    if (it->second != "0" && it->second != "1") usage_error("--trace expects 0 or 1");
    opt.trace = it->second == "1";
  }
  if (auto it = given.find("size"); it != given.end()) {
    if (it->second != "full" && it->second != "tiny") usage_error("--size expects full or tiny");
    opt.tiny = it->second == "tiny";
  }
  return opt;
}

// --- measurement helpers --------------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string shortest(double v) {
  std::array<char, 32> buf{};
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return ec == std::errc() ? std::string(buf.data(), ptr) : std::string("0");
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 14695981039346656037ull) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// The simulated statistics a run is fingerprinted on.
std::string stats_line(const RunResult& r, std::uint64_t events) {
  std::string s;
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(r.created), static_cast<std::uint64_t>(r.delivered),
        r.traffic, r.contacts, r.refused_no_tokens, r.refused_untrusted, r.payments,
        r.dropped_buffer, r.dropped_ttl, r.aborted, events}) {
    s += std::to_string(v);
    s += ' ';
  }
  s += shortest(r.tokens_paid);
  return s;
}

/// Empty when \p r passes the per-run output checks, else the reason.
std::string check_outputs(const ScenarioConfig& cfg, const RunResult& r) {
  if (r.created == 0) return "no messages created";
  if (r.delivered > r.created) return "delivered > created";
  const double expected = static_cast<double>(cfg.num_nodes) * cfg.incentive.initial_tokens;
  if (std::fabs(r.total_tokens - expected) > 1e-9 * expected) {
    return "tokens not conserved: " + shortest(r.total_tokens) + " vs " + shortest(expected);
  }
  return {};
}

/// Event counts of the traced run.
struct Counts {
  std::uint64_t started = 0, completed = 0, refused = 0, refused_no_tokens = 0,
                refused_untrusted = 0, aborted = 0, dropped_buffer = 0, dropped_ttl = 0,
                payments = 0, reputation_updates = 0, enrichments = 0;

  void add(const Counts& o) {
    started += o.started;
    completed += o.completed;
    refused += o.refused;
    refused_no_tokens += o.refused_no_tokens;
    refused_untrusted += o.refused_untrusted;
    aborted += o.aborted;
    dropped_buffer += o.dropped_buffer;
    dropped_ttl += o.dropped_ttl;
    payments += o.payments;
    reputation_updates += o.reputation_updates;
    enrichments += o.enrichments;
  }

  /// Empty when these counts agree with the run's own counters.
  [[nodiscard]] std::string disagreement(const RunResult& r) const {
    if (started != r.traffic) return "transfers started";
    if (refused_no_tokens != r.refused_no_tokens) return "no-token refusals";
    if (refused_untrusted != r.refused_untrusted) return "untrusted refusals";
    if (aborted != r.aborted) return "aborts";
    if (dropped_buffer != r.dropped_buffer || dropped_ttl != r.dropped_ttl) return "drops";
    if (payments != r.payments) return "payments";
    return {};
  }
};

/// Harness-owned sink registered on Scenario::events() in the traced run.
class CountingSink final : public routing::RoutingEvents {
 public:
  Counts counts;

  void on_transfer_started(routing::NodeId, routing::NodeId, const msg::Message&,
                           routing::TransferRole) override {
    ++counts.started;
  }
  void on_relayed(routing::NodeId, routing::NodeId, const msg::Message&) override {
    ++counts.completed;
  }
  void on_delivered(routing::NodeId, routing::NodeId, const msg::Message&) override {
    ++counts.completed;
  }
  void on_refused(routing::NodeId, routing::NodeId, const msg::Message&,
                  routing::AcceptDecision why) override {
    ++counts.refused;
    if (why == routing::AcceptDecision::kNoTokens) ++counts.refused_no_tokens;
    if (why == routing::AcceptDecision::kUntrustedSender) ++counts.refused_untrusted;
  }
  void on_aborted(routing::NodeId, routing::NodeId, routing::MessageId) override {
    ++counts.aborted;
  }
  void on_dropped(routing::NodeId, const msg::Message&, routing::DropReason why) override {
    ++(why == routing::DropReason::kBufferFull ? counts.dropped_buffer : counts.dropped_ttl);
  }
  void on_tokens_paid(routing::NodeId, routing::NodeId, double) override { ++counts.payments; }
  void on_reputation_updated(routing::NodeId, routing::NodeId, double) override {
    ++counts.reputation_updates;
  }
  void on_enriched(routing::NodeId, const msg::Message&, int) override {
    ++counts.enrichments;
  }
};

/// Post-run probe totals: plan_into and accept timed over end-state links.
struct Probe {
  double plan_ns = 0.0;
  std::uint64_t plan_calls = 0;
  double accept_ns = 0.0;
  std::uint64_t accept_calls = 0;
};

/// Times plan_into and accept over a fixed-order sample of the connected
/// pairs after run() returned. The plan-side purity contract (router.h)
/// makes both calls free of observable side effects.
Probe probe_routers(Scenario& s) {
  Probe out;
  auto pairs = s.contacts().connected_pairs();
  if (pairs.size() > kProbePairs) pairs.resize(kProbePairs);
  const util::SimTime now = s.simulator().now();
  std::vector<routing::ForwardPlan> plans;
  for (int round = 0; round < kProbeRounds; ++round) {
    for (const auto& [a, b] : pairs) {
      for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
        routing::Host& sender = s.host(from);
        routing::Host& receiver = s.host(to);
        const auto t0 = Clock::now();
        sender.router().plan_into(sender, receiver, now, plans);
        out.plan_ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
        ++out.plan_calls;
        for (const routing::ForwardPlan& plan : plans) {
          const msg::Message* m = sender.buffer().find(plan.message);
          if (m == nullptr) continue;
          const auto t1 = Clock::now();
          (void)receiver.router().accept(receiver, sender, *m, plan, now);
          out.accept_ns += std::chrono::duration<double, std::nano>(Clock::now() - t1).count();
          ++out.accept_calls;
        }
      }
    }
  }
  return out;
}

// --- one Scenario, in a child process ---------------------------------------------

/// One Scenario's measurements; plain data, so the child can hand it to the
/// parent as raw bytes over a pipe.
struct Sample {
  char error[256] = {};  ///< empty when the run and its checks succeeded
  std::size_t sub_run = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t events = 0;
  std::uint64_t stats_hash = 0;  ///< fnv1a of stats_line
  std::uint64_t created = 0;
  std::uint64_t delivered = 0;
  double latency_sum_s = 0.0;
  std::uint64_t contacts = 0;
  scenario::PhaseTimings timing;
  // Traced runs only.
  Counts counts;
  Probe probe;
};
static_assert(std::is_trivially_copyable_v<Sample>);

enum class Mode {
  kSetup,   ///< construct only
  kRun,     ///< construct and run
  kTraced,  ///< construct and run with sinks attached, then probe
};

/// Construct and (unless \p mode is kSetup) run one Scenario. kTraced
/// attaches the counting sink and a TraceSink writing kTraceFile, and probes
/// the routers afterwards.
Sample run_scenario(const ScenarioConfig& cfg, Mode mode) {
  Sample sample;
  const auto t0 = Clock::now();
  Scenario s(cfg);
  sample.setup_s = seconds_between(t0, Clock::now());
  if (mode == Mode::kSetup) return sample;

  const bool traced = mode == Mode::kTraced;
  CountingSink counter;
  obs::SinkHandle count_handle;
  obs::SinkHandle trace_handle;
  std::unique_ptr<obs::TraceSink> trace;
  if (traced) {
    count_handle = s.events().add_sink(counter);
    obs::TraceOptions opt;
    opt.clock = [&sim = s.simulator()] { return sim.now(); };
    opt.seed = cfg.seed;
    opt.scheme = scenario::scheme_name(cfg.scheme);
    trace = obs::open_trace_file(kTraceFile, std::move(opt));
    trace_handle = s.events().add_sink(*trace);
  }

  const double cpu0 = cpu_seconds();
  const auto t2 = Clock::now();
  const RunResult r = s.run();
  const auto t3 = Clock::now();
  sample.cpu_s = cpu_seconds() - cpu0;
  sample.wall_s = seconds_between(t2, t3);
  sample.peak_rss_mb = peak_rss_mb();
  sample.events = s.simulator().events_processed();
  const std::string stats = stats_line(r, sample.events);
  sample.stats_hash = fnv1a(stats);
  sample.created = r.created;
  sample.delivered = r.delivered;
  sample.latency_sum_s = r.mean_latency_s * static_cast<double>(r.delivered);
  sample.contacts = r.contacts;
  sample.timing = r.timing;
  std::printf("  seed %llu%s: setup %.4f s, wall %.4f s, stats %s\n",
              static_cast<unsigned long long>(cfg.seed), traced ? " traced" : "",
              sample.setup_s, sample.wall_s, stats.c_str());

  std::string why = check_outputs(cfg, r);
  if (traced) {
    trace->flush();
    if (why.empty() && !trace->ok()) why = "trace sink failed to write";
    trace_handle.reset();
    trace.reset();
    std::filesystem::remove(kTraceFile);
    sample.counts = counter.counts;
    if (const std::string d = sample.counts.disagreement(r); why.empty() && !d.empty()) {
      why = "counting sink disagrees on " + d;
    }
    sample.probe = probe_routers(s);
  }
  std::snprintf(sample.error, sizeof sample.error, "%s", why.c_str());
  return sample;
}

/// Run one Scenario in a forked child and collect its Sample. A child that
/// throws, crashes or reports a failed check yields a non-empty error.
Sample run_in_child(const ScenarioConfig& cfg, Mode mode) {
  Sample sample;
  int fds[2];
  if (pipe(fds) != 0) {
    std::snprintf(sample.error, sizeof sample.error, "pipe: %s", std::strerror(errno));
    return sample;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    std::snprintf(sample.error, sizeof sample.error, "fork: %s", std::strerror(errno));
    return sample;
  }
  if (pid == 0) {
    close(fds[0]);
    Sample out;
    try {
      out = run_scenario(cfg, mode);
    } catch (const std::exception& e) {
      std::snprintf(out.error, sizeof out.error, "exception: %s", e.what());
    }
    std::fflush(stdout);
    const char* p = reinterpret_cast<const char*>(&out);
    std::size_t left = sizeof out;
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(3);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  char* p = reinterpret_cast<char*>(&sample);
  std::size_t got = 0;
  while (got < sizeof sample) {
    const ssize_t n = read(fds[0], p + got, sizeof sample - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof sample || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    sample = Sample{};
    std::snprintf(sample.error, sizeof sample.error, "child died (status %d)", status);
  }
  return sample;
}

// --- reporting ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %-20s %s\n", m.name.c_str(), shortest(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + shortest(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// wall_s and cpu_s are per-Scenario times: each sub-run's median over its
/// repetitions, averaged over the sub-run list. \p samples opens with one
/// sample per sub-run, in order; setup_s is the median over \p samples and
/// the construct-only \p setups.
std::vector<Metric> end_to_end_metrics(const std::vector<Sample>& samples,
                                       const std::vector<Sample>& setups,
                                       std::size_t sub_runs) {
  std::vector<std::vector<double>> wall(sub_runs), cpu(sub_runs);
  std::vector<double> setup, rss;
  for (const Sample& s : samples) {
    wall[s.sub_run].push_back(s.wall_s);
    cpu[s.sub_run].push_back(s.cpu_s);
    setup.push_back(s.setup_s);
    rss.push_back(s.peak_rss_mb);
  }
  for (const Sample& s : setups) setup.push_back(s.setup_s);
  double wall_mean = 0.0, cpu_mean = 0.0, created = 0.0, delivered = 0.0;
  for (std::size_t i = 0; i < sub_runs; ++i) {
    wall_mean += median(wall[i]) / static_cast<double>(sub_runs);
    cpu_mean += median(cpu[i]) / static_cast<double>(sub_runs);
    created += static_cast<double>(samples[i].created);
    delivered += static_cast<double>(samples[i].delivered);
  }
  return {
      {"wall_s", wall_mean, "s"},
      {"setup_s", median(setup), "s"},
      {"cpu_s", cpu_mean, "s"},
      {"peak_rss_mb", median(rss), "MB"},
      {"mdr", ratio(delivered, created), "ratio"},
  };
}

/// Per-layer split, summed over the traced sub-runs; \p untraced holds the
/// same sub-runs without sinks, for the tracing overhead.
std::vector<Metric> per_layer_metrics(const std::vector<Sample>& traced,
                                      const std::vector<Sample>& untraced) {
  double scan = 0, pre = 0, exchange = 0, transfer = 0, workload = 0, wall = 0,
         untraced_wall = 0, scans = 0, contacts = 0, events = 0, delivered = 0,
         latency_sum = 0;
  Counts c;
  Probe probe;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Sample& s = traced[i];
    const scenario::PhaseTimings& t = s.timing;
    scan += static_cast<double>(t.scan_ns) * 1e-9;
    pre += static_cast<double>(t.routing_pre_ns) * 1e-9;
    exchange += static_cast<double>(t.routing_plan_ns + t.routing_commit_ns) * 1e-9;
    transfer += static_cast<double>(t.transfer_ns) * 1e-9;
    workload += static_cast<double>(t.workload_ns) * 1e-9;
    scans += static_cast<double>(t.scans);
    wall += s.wall_s;
    untraced_wall += untraced[i].wall_s;
    contacts += static_cast<double>(s.contacts);
    events += static_cast<double>(s.events);
    delivered += static_cast<double>(s.delivered);
    latency_sum += s.latency_sum_s;
    c.add(s.counts);
    probe.plan_ns += s.probe.plan_ns;
    probe.plan_calls += s.probe.plan_calls;
    probe.accept_ns += s.probe.accept_ns;
    probe.accept_calls += s.probe.accept_calls;
  }
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double offers = n(c.started + c.refused);
  return {
      {"net.scan_s", scan, "s"},
      {"net.scan_us_per_tick", ratio(scan * 1e6, scans), "us"},
      {"net.contacts", contacts, "count"},
      {"net.transfers_completed", n(c.completed), "count"},
      {"net.abort_ratio", ratio(n(c.aborted), n(c.started)), "ratio"},
      {"scenario.linkup_s", pre, "s"},
      {"scenario.linkup_us_per_contact", ratio(pre * 1e6, contacts), "us"},
      {"scenario.exchange_s", exchange, "s"},
      {"scenario.exchange_us_per_tick", ratio(exchange * 1e6, scans), "us"},
      {"scenario.transfer_s", transfer, "s"},
      {"scenario.transfer_us_per_completion", ratio(transfer * 1e6, n(c.completed)), "us"},
      {"scenario.workload_s", workload, "s"},
      {"routing.plan_into_us", ratio(probe.plan_ns * 1e-3, n(probe.plan_calls)), "us"},
      {"core.accept_us", ratio(probe.accept_ns * 1e-3, n(probe.accept_calls)), "us"},
      {"core.offers", offers, "count"},
      {"core.accept_ratio", ratio(n(c.started), offers), "ratio"},
      {"core.refused_no_tokens", n(c.refused_no_tokens), "count"},
      {"core.refused_untrusted", n(c.refused_untrusted), "count"},
      {"core.payments", n(c.payments), "count"},
      {"core.reputation_updates", n(c.reputation_updates), "count"},
      {"core.enrichments", n(c.enrichments), "count"},
      {"msg.dropped_buffer", n(c.dropped_buffer), "count"},
      {"msg.dropped_ttl", n(c.dropped_ttl), "count"},
      {"mean_latency_sim_s", ratio(latency_sum, delivered), "s"},
      {"sim.events", events, "count"},
      {"sim.ns_per_event", ratio(wall * 1e9, events), "ns"},
      {"sim.residual_s", wall - (scan + pre + exchange + transfer + workload), "s"},
      {"obs.trace_overhead_pct", 100.0 * (ratio(wall, untraced_wall) - 1.0), "%"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const Workload& w = *opt.workload;
  const auto start = Clock::now();

  std::vector<ScenarioConfig> configs;
  for (std::size_t i = 0; i < w.sub_runs; ++i) {
    ScenarioConfig cfg = w.make(opt.tiny);
    cfg.seed = opt.seed * w.sub_runs + i;
    configs.push_back(cfg);
  }
  std::printf("perfbench %s (%s) seed %llu: %zu nodes, %g h, %zu sub-runs, %s\n", w.name,
              opt.tiny ? "tiny" : "full", static_cast<unsigned long long>(opt.seed),
              configs[0].num_nodes, configs[0].sim_hours, configs.size(),
              opt.trace ? "traced" : "untraced");

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Sample> setups;   // construct-only
  std::vector<Sample> samples;  // untraced, in run order: one per sub-run leads
  std::vector<Sample> traced;
  std::vector<std::uint64_t> reference(configs.size());  // first stats_hash per sub-run
  const auto measure = [&](std::size_t i, Mode mode) {
    ++attempted;
    Sample s = run_in_child(configs[i], mode);
    s.sub_run = i;
    if (mode != Mode::kSetup && s.error[0] == '\0' && reference[i] != 0 &&
        s.stats_hash != reference[i]) {
      std::snprintf(s.error, sizeof s.error, "statistics differ from the first run of seed");
    }
    if (s.error[0] != '\0') {
      std::fprintf(stderr, "perfbench: seed %llu failed: %s\n",
                   static_cast<unsigned long long>(configs[i].seed), s.error);
      ++failed;
      return;
    }
    if (mode == Mode::kSetup) {
      setups.push_back(s);
      return;
    }
    if (reference[i] == 0) reference[i] = s.stats_hash;
    (mode == Mode::kTraced ? traced : samples).push_back(s);
  };

  // Set-up is milliseconds, so an untraced run also constructs the list's
  // Scenarios a further kSetupSamples times, each in a fresh child.
  constexpr std::size_t kSetupSamples = 16;
  if (!opt.trace) {
    for (std::size_t i = 0; i < kSetupSamples; ++i) measure(i % configs.size(), Mode::kSetup);
  }
  const auto list_start = Clock::now();
  const std::size_t listed = opt.trace ? (configs.size() + 1) / 2 : configs.size();
  for (std::size_t i = 0; i < listed; ++i) {
    measure(i, Mode::kRun);
    if (opt.trace) measure(i, Mode::kTraced);
  }

  // The fingerprint covers the first half of the list, which both modes run.
  std::uint64_t fingerprint = 14695981039346656037ull;
  for (std::size_t i = 0; i < (configs.size() + 1) / 2; ++i) {
    fingerprint = fnv1a(
        std::string_view(reinterpret_cast<const char*>(&reference[i]), sizeof reference[i]),
        fingerprint);
  }
  std::printf("  fingerprint 0x%016llx\n", static_cast<unsigned long long>(fingerprint));
  if (opt.seed == kDefaultSeed) {
    const std::uint64_t committed = opt.tiny ? w.fingerprint_tiny : w.fingerprint_full;
    if (fingerprint != committed) {
      std::fprintf(stderr, "perfbench: fingerprint 0x%016llx != committed 0x%016llx\n",
                   static_cast<unsigned long long>(fingerprint),
                   static_cast<unsigned long long>(committed));
      ++failed;
    }
  }

  // Untraced runs repeat sub-runs from the start of the list while the
  // budget allows another Scenario of the average length so far.
  if (!opt.trace) {
    const double per_run_s =
        seconds_between(list_start, Clock::now()) / static_cast<double>(configs.size());
    for (std::size_t i = 0;
         failed == 0 && seconds_between(start, Clock::now()) + per_run_s <= opt.seconds;
         i = (i + 1) % configs.size()) {
      measure(i, Mode::kRun);
    }
  }

  if (failed > 0) {
    print_result(false, attempted, failed, {});
    return 1;
  }
  print_result(true, attempted, 0,
               opt.trace ? per_layer_metrics(traced, samples)
                         : end_to_end_metrics(samples, setups, configs.size()));
  return 0;
}
