// obs_report: renders bench observability artifacts as a markdown report.
//
// Usage:
//   obs_report [--out report.md] [--trace chrome_trace.json]
//              [--journeys journeys.json] BENCH_a.json [BENCH_b.json ...]
//
// Reads the BENCH_<name>.json reports the bench binaries emit (flat timing
// keys plus an optional nested "metrics" snapshot), and optionally a Chrome
// trace (--chrome-trace-out format; its stage spans) and a journey dump
// (--journeys-out format), and writes one markdown document: per-bench
// timing tables, counter and distribution summaries (count / mean / p50 /
// p95 / p99), the costliest trace stages, and a journey service-time
// breakdown. Exits non-zero with a clear message when any input cannot be
// read or parsed or the output cannot be written.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/string_util.h"

namespace {

using sds::JsonValue;

void AppendNumberCell(std::string* out, double value) {
  char buf[64];
  // %g keeps the table readable; full precision lives in the JSON inputs.
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  *out += buf;
}

/// One markdown table row: `| a | b | ... |`.
void AppendRow(std::string* out, const std::vector<std::string>& cells) {
  for (const std::string& cell : cells) {
    *out += "| " + cell + " ";
  }
  *out += "|\n";
}

void AppendHeader(std::string* out, const std::vector<std::string>& cells) {
  AppendRow(out, cells);
  *out += "|";
  for (size_t i = 0; i < cells.size(); ++i) *out += "---|";
  *out += "\n";
}

std::string Cell(double value) {
  std::string s;
  AppendNumberCell(&s, value);
  return s;
}

void RenderBenchReport(const JsonValue& report, std::string* out) {
  const JsonValue* name = report.Find("name");
  *out += "## Bench: " +
          (name != nullptr && name->is_string() ? name->AsString()
                                                : std::string("(unnamed)")) +
          "\n\n";

  // Flat timing/metric keys (everything numeric except the nested
  // "metrics" object).
  bool any = false;
  for (const auto& [key, value] : report.members()) {
    if (!value.is_number()) continue;
    if (!any) {
      AppendHeader(out, {"metric", "value"});
      any = true;
    }
    AppendRow(out, {key, Cell(value.AsNumber())});
  }
  if (any) *out += "\n";

  const JsonValue* metrics = report.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return;

  const JsonValue* counters = metrics->Find("counters");
  if (counters != nullptr && counters->is_object() &&
      !counters->members().empty()) {
    *out += "### Counters\n\n";
    AppendHeader(out, {"counter", "total"});
    for (const auto& [key, value] : counters->members()) {
      AppendRow(out, {key, Cell(value.AsNumber())});
    }
    *out += "\n";
  }

  const JsonValue* dists = metrics->Find("distributions");
  if (dists != nullptr && dists->is_object() && !dists->members().empty()) {
    *out += "### Distributions\n\n";
    AppendHeader(out,
                 {"distribution", "count", "mean", "p50", "p95", "p99",
                  "max"});
    for (const auto& [key, d] : dists->members()) {
      const auto field = [&](const char* f) {
        const JsonValue* v = d.Find(f);
        return v != nullptr ? v->AsNumber() : 0.0;
      };
      AppendRow(out, {key, Cell(field("count")), Cell(field("mean")),
                      Cell(field("p50")), Cell(field("p95")),
                      Cell(field("p99")), Cell(field("max"))});
    }
    *out += "\n";
  }
}

/// Aggregates the wall-clock stage spans of a Chrome trace: the complete
/// ("X") events of virtual process 0, whose `dur` is in microseconds.
void RenderTrace(const JsonValue& trace, std::string* out) {
  const JsonValue* events = trace.Find("traceEvents");
  if (events == nullptr || !events->is_array()) return;
  struct Agg {
    double total_s = 0.0;
    double max_s = 0.0;
    uint64_t count = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const JsonValue& event : events->items()) {
    const JsonValue* ph = event.Find("ph");
    const JsonValue* pid = event.Find("pid");
    const JsonValue* name = event.Find("name");
    const JsonValue* dur = event.Find("dur");
    if (ph == nullptr || ph->AsString() != "X" || pid == nullptr ||
        pid->AsNumber(-1.0) != 0.0 || name == nullptr || dur == nullptr) {
      continue;
    }
    const double dur_s = dur->AsNumber() / 1e6;
    Agg& agg = by_name[name->AsString()];
    agg.total_s += dur_s;
    agg.max_s = std::max(agg.max_s, dur_s);
    ++agg.count;
  }
  if (by_name.empty()) return;
  std::vector<std::pair<std::string, Agg>> order(by_name.begin(),
                                                 by_name.end());
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second.total_s > b.second.total_s;
  });
  *out += "## Trace stages (by total wall time)\n\n";
  AppendHeader(out, {"stage", "count", "total s", "max s"});
  for (const auto& [name, agg] : order) {
    AppendRow(out, {name, Cell(static_cast<double>(agg.count)),
                    Cell(agg.total_s), Cell(agg.max_s)});
  }
  *out += "\n";
}

void RenderJourneys(const JsonValue& doc, std::string* out) {
  const JsonValue* journeys = doc.Find("journeys");
  if (journeys == nullptr || !journeys->is_array()) return;
  struct Agg {
    uint64_t count = 0;
    uint64_t cache_hits = 0;
    uint64_t proxy_hits = 0;
    uint64_t failed = 0;
    uint64_t failovers = 0;
    double queue_s = 0.0;
    double transfer_s = 0.0;
    double backoff_s = 0.0;
  };
  std::map<std::string, Agg> by_stream;
  for (const JsonValue& j : journeys->items()) {
    const JsonValue* stream = j.Find("stream");
    Agg& agg = by_stream[stream != nullptr ? stream->AsString() : "?"];
    ++agg.count;
    const auto num = [&](const char* f) {
      const JsonValue* v = j.Find(f);
      return v != nullptr ? v->AsNumber() : 0.0;
    };
    const double served_by = num("served_by");
    if (served_by == -2.0) ++agg.cache_hits;
    if (served_by == -3.0) ++agg.failed;
    if (served_by >= 0.0) ++agg.proxy_hits;
    if (num("failover_depth") > 0.0) ++agg.failovers;
    agg.queue_s += num("queue_s");
    agg.transfer_s += num("transfer_s");
    agg.backoff_s += num("backoff_s");
  }
  if (by_stream.empty()) return;
  *out += "## Sampled journeys\n\n";
  const JsonValue* period = doc.Find("sample_period");
  if (period != nullptr) {
    *out += "Sample period: 1 in " + Cell(period->AsNumber()) + "\n\n";
  }
  AppendHeader(out, {"stream", "sampled", "cache", "proxy", "failed",
                     "failovers", "mean queue s", "mean transfer",
                     "mean backoff s"});
  for (const auto& [stream, agg] : by_stream) {
    const double n = static_cast<double>(agg.count);
    AppendRow(out,
              {stream, Cell(n), Cell(static_cast<double>(agg.cache_hits)),
               Cell(static_cast<double>(agg.proxy_hits)),
               Cell(static_cast<double>(agg.failed)),
               Cell(static_cast<double>(agg.failovers)),
               Cell(agg.queue_s / n), Cell(agg.transfer_s / n),
               Cell(agg.backoff_s / n)});
  }
  *out += "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string trace_path;
  std::string journeys_path;
  std::vector<std::string> reports;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--journeys") == 0 && i + 1 < argc) {
      journeys_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: obs_report [--out report.md] [--trace chrome_trace.json]\n"
          "                  [--journeys journeys.json] BENCH_*.json...\n");
      return 0;
    } else {
      reports.emplace_back(argv[i]);
    }
  }
  if (reports.empty() && trace_path.empty() && journeys_path.empty()) {
    std::fprintf(stderr,
                 "error: no inputs; pass BENCH_*.json files and/or --trace "
                 "/ --journeys (see --help)\n");
    return 1;
  }

  std::string md = "# Observability report\n\n";
  for (const std::string& path : reports) {
    const sds::Result<JsonValue> parsed = sds::ParseJsonFile(path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    RenderBenchReport(parsed.value(), &md);
  }
  if (!trace_path.empty()) {
    const sds::Result<JsonValue> parsed = sds::ParseJsonFile(trace_path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    RenderTrace(parsed.value(), &md);
  }
  if (!journeys_path.empty()) {
    const sds::Result<JsonValue> parsed = sds::ParseJsonFile(journeys_path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    RenderJourneys(parsed.value(), &md);
  }

  if (out_path.empty()) {
    std::fputs(md.c_str(), stdout);
    return 0;
  }
  if (!sds::WriteStringToFile(out_path, md)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
