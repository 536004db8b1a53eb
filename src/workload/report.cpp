#include "workload/report.h"

#include <cinttypes>
#include <cstdio>
#include <string>

namespace dq::workload::report {

namespace {

// Minimal JSON building: every name in this schema is a plain identifier,
// but message-type and metric names are escaped anyway for safety.
std::string esc(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string num(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

std::string num(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  return buf;
}

std::string hist_json(const obs::HistogramData& h) {
  std::string out = "{";
  out += "\"count\":" + num(h.count);
  out += ",\"mean\":" + num(h.mean());
  out += ",\"min\":" + num(h.min);
  out += ",\"max\":" + num(h.max);
  out += ",\"p50\":" + num(h.quantile(0.50));
  out += ",\"p95\":" + num(h.quantile(0.95));
  out += ",\"p99\":" + num(h.quantile(0.99));
  out += "}";
  return out;
}

// {"k1":v1,"k2":v2,...} from a map, with per-value renderer.
template <typename Map, typename Render>
std::string obj_json(const Map& m, Render render) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ",";
    first = false;
    out += "\"" + esc(k) + "\":" + render(v);
  }
  out += "}";
  return out;
}

}  // namespace

std::string to_json(const ExperimentParams& params,
                    const ExperimentResult& result) {
  const obs::MetricsSnapshot& m = result.metrics;
  std::string out = "{";
  out += "\"schema\":\"dq.report.v1\"";
  out += ",\"protocol\":\"" + esc(protocol_name(params.protocol)) + "\"";

  out += ",\"config\":{";
  out += "\"iqs\":\"" + esc(params.iqs.describe()) + "\"";
  out += ",\"oqs_read_quorum\":" + num(std::uint64_t(params.oqs_read_quorum));
  out += ",\"servers\":" + num(std::uint64_t(params.topo.num_servers));
  out += ",\"clients\":" + num(std::uint64_t(params.topo.num_clients));
  out += ",\"requests_per_client\":" +
         num(std::uint64_t(params.requests_per_client));
  out += ",\"write_ratio\":" + num(params.write_ratio);
  out += ",\"locality\":" + num(params.locality);
  out += ",\"lease_ms\":" + num(sim::to_ms(params.lease_length));
  out += ",\"num_volumes\":" + num(std::uint64_t(params.num_volumes));
  out += ",\"max_drift\":" + num(params.max_drift);
  out += ",\"loss\":" + num(params.loss);
  // Durability / crash-plane keys appear only when the corresponding knob
  // is set, so reports from WAL-less runs keep their exact bytes (the
  // golden determinism suite and checked-in baselines depend on that; the
  // schema validator tolerates extra keys).
  if (params.wal) {
    out += ",\"wal\":{";
    out += "\"policy\":\"" + std::string(store::to_string(params.wal->policy)) +
           "\"";
    out += ",\"sync_ms\":" + num(sim::to_ms(params.wal->sync_latency));
    out += ",\"flush_ms\":" + num(sim::to_ms(params.wal->flush_interval));
    out += ",\"torn_tail\":";
    out += params.wal->torn_tail_faults ? "true" : "false";
    out += "}";
  }
  if (params.crashes) {
    out += ",\"crash_mttc_ms\":" +
           num(sim::to_ms(params.crashes->mean_time_to_crash));
    out += ",\"crash_downtime_ms\":" +
           num(sim::to_ms(params.crashes->mean_downtime));
  }
  out += ",\"seed\":" + num(std::uint64_t(params.seed));
  out += "}";

  out += ",\"requests\":{";
  out += "\"completed_reads\":" + num(result.completed_reads);
  out += ",\"completed_writes\":" + num(result.completed_writes);
  out += ",\"rejected_reads\":" + num(result.rejected_reads);
  out += ",\"rejected_writes\":" + num(result.rejected_writes);
  out += ",\"total\":" + num(result.total_requests());
  out += "}";

  out += ",\"availability\":" + num(result.availability());

  out += ",\"latency_ms\":{";
  out += "\"read\":" + hist_json(result.read_ms);
  out += ",\"write\":" + hist_json(result.write_ms);
  out += ",\"all\":" + hist_json(result.all_ms);
  out += "}";

  out += ",\"messages\":{";
  out += "\"total\":" + num(result.total_messages);
  out += ",\"bytes\":" + num(result.total_bytes);
  out += ",\"per_request\":" + num(result.messages_per_request);
  out += ",\"bytes_per_request\":" + num(result.bytes_per_request);
  out += ",\"by_type\":" +
         obj_json(result.message_table,
                  [](std::uint64_t v) { return num(v); });
  out += "}";

  // DQVL write-phase breakdown; an empty object for baseline protocols
  // (no dqvl.write.* histograms registered).
  out += ",\"write_phases\":{";
  {
    bool first = true;
    const std::pair<const char*, const char*> kPhases[] = {
        {"suppress", "dqvl.write.suppress_ms"},
        {"invalidate", "dqvl.write.invalidate_ms"},
        {"lease_wait", "dqvl.write.lease_wait_ms"},
    };
    for (const auto& [key, metric] : kPhases) {
      const obs::HistogramData* h = m.histogram(metric);
      if (h == nullptr) continue;
      if (!first) out += ",";
      first = false;
      out += "\"" + std::string(key) + "\":" + hist_json(*h);
    }
  }
  out += "}";

  out += ",\"iqs_load\":" +
         obj_json(m.counters_with_prefix("iqs.load."),
                  [](std::uint64_t v) { return num(v); });

  out += ",\"metrics\":{";
  out += "\"counters\":" +
         obj_json(m.counters, [](std::uint64_t v) { return num(v); });
  out += ",\"gauges\":" +
         obj_json(m.gauges, [](const obs::GaugeSnapshot& g) {
           return "{\"value\":" + num(g.value) + ",\"max\":" + num(g.max) +
                  "}";
         });
  out += ",\"histograms\":" +
         obj_json(m.histograms,
                  [](const obs::HistogramData& h) { return hist_json(h); });
  out += "}";

  out += ",\"sim_duration_ms\":" + num(sim::to_ms(result.sim_duration));
  // Staleness section, present only when the run recorded read ages
  // (--staleness): absent-by-default keeps the exact bytes of reports from
  // runs without it, like the wal/crash config keys above.
  if (const obs::HistogramData* ages = m.histogram("staleness.read_age_ms")) {
    out += ",\"staleness\":{";
    out += "\"reads\":" + num(m.counter("staleness.reads"));
    out += ",\"stale_reads\":" + num(m.counter("staleness.stale_reads"));
    out += ",\"read_age_ms\":" + hist_json(*ages);
    out += "}";
  }
  // Open-loop section, present only for open-loop runs, like staleness.
  // Offered / completed / failed come from the generators' counters; the
  // per-site block carries each site's offered load and latency tail, and
  // load_skew is max-site-offered over mean-site-offered (1.0 = perfectly
  // even).
  if (params.open_loop) {
    const OpenLoopParams& ol = *params.open_loop;
    const std::size_t sites = params.topo.num_clients;
    out += ",\"open_loop\":{";
    out += "\"sites\":" + num(std::uint64_t(sites));
    out += ",\"clients_per_site\":" + num(std::uint64_t(ol.clients_per_site));
    out += ",\"logical_clients\":" +
           num(std::uint64_t(ol.clients_per_site * sites));
    out += ",\"objects\":" + num(std::uint64_t(ol.objects));
    out += ",\"zipf_s\":" + num(ol.zipf_s);
    out += ",\"site_rate_hz\":" + num(ol.site_rate_hz());
    out += ",\"horizon_ms\":" + num(sim::to_ms(ol.horizon));
    out += ",\"offered\":" + num(m.counter("open_loop.offered"));
    out += ",\"completed\":" + num(m.counter("open_loop.completed"));
    out += ",\"failed\":" + num(m.counter("open_loop.failed"));
    out += ",\"batches\":" + num(m.counter("open_loop.batches"));
    std::uint64_t max_offered = 0, total_offered = 0;
    for (std::size_t i = 0; i < sites; ++i) {
      const std::uint64_t v =
          m.counter("site.offered.s" + std::to_string(i));
      max_offered = v > max_offered ? v : max_offered;
      total_offered += v;
    }
    const double mean_offered =
        sites == 0 ? 0.0
                   : static_cast<double>(total_offered) /
                         static_cast<double>(sites);
    out += ",\"load_skew\":" +
           num(mean_offered > 0.0
                   ? static_cast<double>(max_offered) / mean_offered
                   : 0.0);
    out += ",\"per_site\":{";
    for (std::size_t i = 0; i < sites; ++i) {
      const std::string key = "s" + std::to_string(i);
      if (i != 0) out += ",";
      out += "\"" + key + "\":{";
      out += "\"offered\":" + num(m.counter("site.offered." + key));
      out += ",\"completed\":" + num(m.counter("site.completed." + key));
      const obs::HistogramData* h = m.histogram("site.latency_ms." + key);
      if (h != nullptr) out += ",\"latency_ms\":" + hist_json(*h);
      out += "}";
    }
    out += "}";
    out += "}";
  }
  out += ",\"violations\":" + num(std::uint64_t(result.violations.size()));
  out += "}";
  return out;
}

bool write_json(const ExperimentParams& params, const ExperimentResult& result,
                const std::string& path, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const std::string doc = to_json(params, result);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

void print_table(const ExperimentResult& result, std::FILE* out) {
  const obs::MetricsSnapshot& m = result.metrics;
  if (m.empty()) {
    std::fprintf(out, "(no metrics recorded)\n");
    return;
  }
  std::fprintf(out, "counters:\n");
  for (const auto& [name, v] : m.counters) {
    std::fprintf(out, "  %-32s %12" PRIu64 "\n", name.c_str(), v);
  }
  if (!m.gauges.empty()) {
    std::fprintf(out, "gauges (value / max):\n");
    for (const auto& [name, g] : m.gauges) {
      std::fprintf(out, "  %-32s %12" PRId64 " / %" PRId64 "\n", name.c_str(),
                   g.value, g.max);
    }
  }
  if (!m.histograms.empty()) {
    std::fprintf(out, "histograms (count / mean / p50 / p99 ms):\n");
    for (const auto& [name, h] : m.histograms) {
      std::fprintf(out, "  %-32s %8" PRIu64 "  %10.3f %10.3f %10.3f\n",
                   name.c_str(), h.count, h.mean(), h.quantile(0.5),
                   h.quantile(0.99));
    }
  }
}

}  // namespace dq::workload::report
