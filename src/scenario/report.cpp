#include "scenario/report.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "util/num_format.h"
#include "util/summary.h"

namespace dtnic::scenario {

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Flat JSON object builder for report sections. Every report object leads
/// with {"schema":"dtnic.report.v1","kind":...}.
class JsonObject {
 public:
  explicit JsonObject(const std::string& kind) {
    buf_ = "{\"schema\":\"dtnic.report.v1\",\"kind\":";
    append_json_string(buf_, kind);
  }
  void str(const std::string& key, const std::string& value) {
    key_(key);
    append_json_string(buf_, value);
  }
  void num(const std::string& key, double value) {
    key_(key);
    util::append_double(buf_, value);
  }
  void u64(const std::string& key, std::uint64_t value) {
    key_(key);
    util::append_u64(buf_, value);
  }
  void raw(const std::string& key, const std::string& json) {
    key_(key);
    buf_ += json;
  }
  void write(std::ostream& os) {
    buf_ += "}\n";
    os.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  }

 private:
  void key_(const std::string& key) {
    buf_.push_back(',');
    append_json_string(buf_, key);
    buf_.push_back(':');
  }
  std::string buf_;
};

}  // namespace

void Reporter::emit_table(const util::Table& table) {
  if (fmt_ == ReportFormat::kCsv) {
    table.print_csv(os_);
  } else {
    table.print(os_);
  }
}

void Reporter::run_report(const RunResult& result) {
  if (fmt_ == ReportFormat::kJson) {
    JsonObject o("run");
    o.str("scheme", result.scheme);
    o.u64("seed", result.seed);
    o.u64("created", result.created);
    o.u64("delivered", result.delivered);
    o.num("mdr", result.mdr);
    o.u64("deliveries_total", result.deliveries_total);
    o.num("mean_hops", result.mean_hops);
    o.num("mean_latency_s", result.mean_latency_s);
    o.u64("traffic", result.traffic);
    o.u64("contacts", result.contacts);
    o.u64("contacts_suppressed", result.contacts_suppressed);
    o.num("mdr_high", result.mdr_high);
    o.num("mdr_medium", result.mdr_medium);
    o.num("mdr_low", result.mdr_low);
    o.num("tokens_paid", result.tokens_paid);
    o.u64("payments", result.payments);
    o.num("avg_final_tokens", result.avg_final_tokens);
    o.u64("refused_no_tokens", result.refused_no_tokens);
    o.u64("refused_untrusted", result.refused_untrusted);
    o.u64("aborted", result.aborted);
    o.u64("dropped_buffer", result.dropped_buffer);
    o.u64("dropped_ttl", result.dropped_ttl);
    o.num("energy_j", result.total_energy_j);
    o.write(os_);
    return;
  }
  util::Table table({"metric", "value"});
  auto row = [&table](const std::string& name, const std::string& value) {
    table.add_row({name, value});
  };
  row("scheme", result.scheme);
  row("seed", std::to_string(result.seed));
  row("created", util::Table::cell(result.created));
  row("delivered (unique)", util::Table::cell(result.delivered));
  row("MDR", util::Table::cell(result.mdr, 4));
  row("deliveries total", util::Table::cell(static_cast<std::size_t>(result.deliveries_total)));
  row("mean hops", util::Table::cell(result.mean_hops, 2));
  row("mean latency (s)", util::Table::cell(result.mean_latency_s, 1));
  row("traffic (transfers started)", util::Table::cell(static_cast<std::size_t>(result.traffic)));
  row("contacts", util::Table::cell(static_cast<std::size_t>(result.contacts)));
  row("contacts suppressed", util::Table::cell(static_cast<std::size_t>(result.contacts_suppressed)));
  row("MDR high / medium / low",
      util::Table::cell(result.mdr_high, 3) + " / " + util::Table::cell(result.mdr_medium, 3) +
          " / " + util::Table::cell(result.mdr_low, 3));
  row("tokens paid", util::Table::cell(result.tokens_paid, 1));
  row("payments", util::Table::cell(static_cast<std::size_t>(result.payments)));
  row("avg final tokens", util::Table::cell(result.avg_final_tokens, 2));
  row("refused: no tokens", util::Table::cell(static_cast<std::size_t>(result.refused_no_tokens)));
  row("refused: untrusted", util::Table::cell(static_cast<std::size_t>(result.refused_untrusted)));
  row("aborted transfers", util::Table::cell(static_cast<std::size_t>(result.aborted)));
  row("drops: buffer / ttl",
      util::Table::cell(static_cast<std::size_t>(result.dropped_buffer)) + " / " +
          util::Table::cell(static_cast<std::size_t>(result.dropped_ttl)));
  row("energy (J)", util::Table::cell(result.total_energy_j, 1));
  emit_table(table);
}

void Reporter::timing_report(const PhaseTimings& timing) {
  constexpr double kMs = 1e-6;
  if (fmt_ == ReportFormat::kJson) {
    JsonObject o("timing");
    o.num("scan_ms", static_cast<double>(timing.scan_ns) * kMs);
    o.num("routing_ms", static_cast<double>(timing.routing_ns) * kMs);
    o.num("routing_pre_ms", static_cast<double>(timing.routing_pre_ns) * kMs);
    o.num("routing_commit_ms", static_cast<double>(timing.routing_commit_ns) * kMs);
    o.num("transfer_ms", static_cast<double>(timing.transfer_ns) * kMs);
    o.num("workload_ms", static_cast<double>(timing.workload_ns) * kMs);
    o.num("wall_ms", static_cast<double>(timing.wall_ns) * kMs);
    o.u64("scans", timing.scans);
    o.write(os_);
    return;
  }
  const double wall_ms = static_cast<double>(timing.wall_ns) * kMs;
  util::Table table({"phase", "ms", "% wall"});
  auto row = [&table, wall_ms](const std::string& name, std::uint64_t ns) {
    const double ms = static_cast<double>(ns) * kMs;
    const double pct = wall_ms > 0.0 ? 100.0 * ms / wall_ms : 0.0;
    table.add_row({name, util::Table::cell(ms, 2), util::Table::cell(pct, 1)});
  };
  row("contact scan", timing.scan_ns);
  row("routing", timing.routing_ns);
  row("  pre-exchange", timing.routing_pre_ns);
  row("  exchange", timing.routing_commit_ns);
  row("transfer", timing.transfer_ns);
  row("workload", timing.workload_ns);
  table.add_row({"wall", util::Table::cell(wall_ms, 2), util::Table::cell(100.0, 1)});
  emit_table(table);
  if (fmt_ == ReportFormat::kTable) {
    os_ << "scans: " << timing.scans;
    if (timing.scans > 0) {
      os_ << "  (" << util::Table::cell(
                          static_cast<double>(timing.scan_ns) /
                              static_cast<double>(timing.scans) * 1e-3,
                          2)
          << " us/scan)";
    }
    os_ << "\n";
  }
}

void Reporter::series(const stats::TimeSeries& series, const std::string& value_name) {
  if (fmt_ == ReportFormat::kJson) {
    JsonObject o("series");
    o.str("name", value_name);
    std::string samples = "[";
    bool first = true;
    for (const stats::Sample& s : series.samples()) {
      if (!first) samples.push_back(',');
      first = false;
      samples.push_back('[');
      util::append_double(samples, s.time.sec());
      samples.push_back(',');
      util::append_double(samples, s.value);
      samples.push_back(']');
    }
    samples.push_back(']');
    o.raw("samples", samples);
    o.write(os_);
    return;
  }
  if (fmt_ == ReportFormat::kCsv) {
    // Hot-path-adjacent export: one buffered write, shortest round-trip
    // decimal forms (the golden-file tests pin this byte layout).
    std::string buf;
    buf.reserve(32 * (series.samples().size() + 1));
    buf += "time_s,";
    buf += value_name;
    buf.push_back('\n');
    for (const stats::Sample& s : series.samples()) {
      util::append_double(buf, s.time.sec());
      buf.push_back(',');
      util::append_double(buf, s.value);
      buf.push_back('\n');
    }
    os_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    return;
  }
  util::Table table({"time_s", value_name});
  for (const stats::Sample& s : series.samples()) {
    table.add_row({util::format_double(s.time.sec()), util::format_double(s.value)});
  }
  table.print(os_);
}

void Reporter::contact_summary(const ContactSummary& summary) {
  if (fmt_ == ReportFormat::kJson) {
    JsonObject o("contacts");
    o.u64("contacts", summary.contacts);
    o.num("mean_duration_s", summary.mean_duration_s);
    o.num("median_duration_s", summary.median_duration_s);
    o.num("mean_intercontact_s", summary.mean_intercontact_s);
    o.num("total_contact_time_s", summary.total_contact_time_s);
    o.write(os_);
    return;
  }
  util::Table table({"contact metric", "value"});
  table.add_row({"contacts", util::Table::cell(summary.contacts)});
  table.add_row({"mean duration (s)", util::Table::cell(summary.mean_duration_s, 1)});
  table.add_row({"median duration (s)", util::Table::cell(summary.median_duration_s, 1)});
  table.add_row({"mean inter-contact (s)", util::Table::cell(summary.mean_intercontact_s, 1)});
  table.add_row({"total contact time (s)", util::Table::cell(summary.total_contact_time_s, 1)});
  emit_table(table);
}

void Reporter::comparison(const std::vector<RunResult>& results) {
  if (fmt_ == ReportFormat::kJson) {
    for (const RunResult& r : results) {
      JsonObject o("comparison-row");
      o.str("scheme", r.scheme);
      o.u64("seed", r.seed);
      o.num("mdr", r.mdr);
      o.u64("traffic", r.traffic);
      o.num("mean_latency_s", r.mean_latency_s);
      o.num("mean_hops", r.mean_hops);
      o.num("tokens_paid", r.tokens_paid);
      o.u64("aborted", r.aborted);
      o.write(os_);
    }
    return;
  }
  emit_table(comparison_table(results));
}

void write_run_report(std::ostream& os, const RunResult& result) {
  Reporter(os, ReportFormat::kTable).run_report(result);
}

void write_timing_report(std::ostream& os, const PhaseTimings& timing) {
  Reporter(os, ReportFormat::kTable).timing_report(timing);
}

util::Table comparison_table(const std::vector<RunResult>& results) {
  util::Table table({"scheme", "seed", "MDR", "traffic", "latency s", "hops",
                     "tokens paid", "aborted"});
  for (const RunResult& r : results) {
    table.add_row({r.scheme, std::to_string(r.seed), util::Table::cell(r.mdr, 4),
                   util::Table::cell(static_cast<std::size_t>(r.traffic)),
                   util::Table::cell(r.mean_latency_s, 1), util::Table::cell(r.mean_hops, 2),
                   util::Table::cell(r.tokens_paid, 1),
                   util::Table::cell(static_cast<std::size_t>(r.aborted))});
  }
  return table;
}

void write_series_csv(std::ostream& os, const stats::TimeSeries& series,
                      const std::string& value_name) {
  Reporter(os, ReportFormat::kCsv).series(series, value_name);
}

ContactSummary summarize_contacts(const net::ContactTrace& trace) {
  ContactSummary summary;
  summary.contacts = trace.count();
  summary.mean_duration_s = trace.mean_duration_s();
  summary.total_contact_time_s = trace.total_contact_time_s();
  if (trace.contacts().empty()) return summary;

  std::vector<double> durations;
  durations.reserve(trace.count());
  for (const auto& c : trace.contacts()) durations.push_back(c.duration().sec());
  summary.median_duration_s = util::percentile(durations, 0.5);

  // Inter-contact gaps per pair (contacts are sorted by start time).
  std::unordered_map<std::uint64_t, double> last_down;
  util::RunningStats gaps;
  for (const auto& c : trace.contacts()) {
    const std::uint64_t key = (static_cast<std::uint64_t>(c.a.value()) << 32) | c.b.value();
    if (auto it = last_down.find(key); it != last_down.end()) {
      const double gap = c.up.sec() - it->second;
      if (gap > 0.0) gaps.add(gap);
    }
    last_down[key] = std::max(last_down[key], c.down.sec());
  }
  summary.mean_intercontact_s = gaps.mean();
  return summary;
}

void write_contact_summary(std::ostream& os, const ContactSummary& summary) {
  Reporter(os, ReportFormat::kTable).contact_summary(summary);
}

}  // namespace dtnic::scenario
