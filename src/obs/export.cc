#include "obs/export.h"

#include <algorithm>

#include "util/string_util.h"

namespace sds::obs {

double DistQuantile(const DistData& dist, double q) {
  if (dist.count <= 0.0) return 0.0;
  if (q <= 0.0) return dist.min;
  if (q >= 1.0) return dist.max;

  size_t lowest = kDistBuckets;
  size_t highest = 0;
  for (size_t b = 0; b < kDistBuckets; ++b) {
    if (dist.buckets[b] <= 0.0) continue;
    if (lowest == kDistBuckets) lowest = b;
    highest = b;
  }
  if (lowest == kDistBuckets) return dist.min;  // buckets lost, best effort

  const double rank = q * dist.count;
  double cum = 0.0;
  for (size_t b = lowest; b <= highest; ++b) {
    const double weight = dist.buckets[b];
    if (weight <= 0.0) continue;
    if (cum + weight >= rank) {
      double lo = DistBucketLo(b);
      double hi =
          b + 1 < kDistBuckets ? DistBucketLo(b + 1) : dist.max;
      // Tighten the outermost occupied buckets to the observed extremes
      // (bucket 0 in particular has no finite lower edge of its own).
      if (b == lowest) lo = dist.min;
      if (b == highest) hi = dist.max;
      double v = lo;
      if (hi > lo) v = lo + (rank - cum) / weight * (hi - lo);
      return std::min(std::max(v, dist.min), dist.max);
    }
    cum += weight;
  }
  return dist.max;
}

std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out = "_" + out;
  return out;
}

std::string MetricsToPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;

  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = "sds_" + PrometheusName(name) + "_total";
    out += "# HELP " + prom + " counter " + PrometheusName(name) + "\n";
    out += "# TYPE " + prom + " counter\n";
    out += prom + "{point=\"all\"} ";
    AppendNumber(&out, value);
    out += "\n";
    for (const auto& [point, counters_at_point] : snapshot.point_counters) {
      const auto it = counters_at_point.find(name);
      if (it == counters_at_point.end()) continue;
      out += prom + "{point=\"" + std::to_string(point) + "\"} ";
      AppendNumber(&out, it->second);
      out += "\n";
    }
  }

  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = "sds_" + PrometheusName(name);
    out += "# HELP " + prom + " gauge " + PrometheusName(name) + "\n";
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " ";
    AppendNumber(&out, value);
    out += "\n";
  }

  for (const auto& [name, dist] : snapshot.distributions) {
    if (dist.count <= 0.0) continue;
    const std::string prom = "sds_" + PrometheusName(name);
    out += "# HELP " + prom + " histogram " + PrometheusName(name) + "\n";
    out += "# TYPE " + prom + " histogram\n";
    double cum = 0.0;
    for (size_t b = 0; b < kDistBuckets; ++b) {
      if (dist.buckets[b] <= 0.0) continue;
      cum += dist.buckets[b];
      out += prom + "_bucket{le=\"";
      // The bucket's inclusive upper bound. The top log2 bucket absorbs
      // everything above its lower edge, so its finite bound is the
      // observed max.
      const double le = b + 1 < kDistBuckets
                            ? DistBucketLo(b + 1)
                            : std::max(dist.max, DistBucketLo(b));
      AppendNumber(&out, le);
      out += "\"} ";
      AppendNumber(&out, cum);
      out += "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} ";
    AppendNumber(&out, dist.count);
    out += "\n" + prom + "_sum ";
    AppendNumber(&out, dist.sum);
    out += "\n" + prom + "_count ";
    AppendNumber(&out, dist.count);
    out += "\n";
  }
  return out;
}

namespace {

/// Appends one trace event; `fields` is the pre-rendered body after the
/// common "ph"/"pid" prefix.
void AppendEvent(std::string* out, bool* first, const std::string& event) {
  *out += *first ? "\n    " : ",\n    ";
  *first = false;
  *out += event;
}

std::string MetadataEvent(int pid, const std::string& process_name) {
  std::string e = "{\"ph\": \"M\", \"pid\": " + std::to_string(pid) +
                  ", \"tid\": 0, \"name\": \"process_name\", \"args\": "
                  "{\"name\": \"";
  AppendJsonEscaped(&e, process_name);
  e += "\"}}";
  return e;
}

}  // namespace

std::string ChromeTraceJson(const TraceSnapshot& trace,
                            const TimeSeriesSnapshot& timeseries,
                            const JourneySnapshot& journeys) {
  std::string out = "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool first = true;
  AppendEvent(&out, &first, MetadataEvent(0, "wall-clock stages"));
  AppendEvent(&out, &first, MetadataEvent(1, "sim-time series"));
  AppendEvent(&out, &first, MetadataEvent(2, "sim-time journeys"));

  for (const TraceSpan& span : trace.spans) {
    std::string e = "{\"ph\": \"X\", \"pid\": 0, \"tid\": " +
                    std::to_string(span.tid) + ", \"name\": \"";
    AppendJsonEscaped(&e, span.name);
    e += "\", \"cat\": \"stage\", \"ts\": ";
    AppendNumber(&e, span.start_s * 1e6);
    e += ", \"dur\": ";
    AppendNumber(&e, span.dur_s * 1e6);
    e += ", \"args\": {\"bytes\": ";
    AppendNumber(&e, span.bytes);
    e += ", \"point\": " + std::to_string(span.point) + "}}";
    AppendEvent(&out, &first, e);
  }

  for (const auto& [name, windows] : timeseries.total) {
    for (const auto& [window, value] : windows) {
      std::string e = "{\"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"name\": \"";
      AppendJsonEscaped(&e, name);
      e += "\", \"ts\": ";
      AppendNumber(&e, static_cast<double>(window) * timeseries.window_s *
                           1e6);
      e += ", \"args\": {\"value\": ";
      AppendNumber(&e, value);
      e += "}}";
      AppendEvent(&out, &first, e);
    }
  }

  for (const JourneyRecord& j : journeys.journeys) {
    std::string e = "{\"ph\": \"X\", \"pid\": 2, \"tid\": " +
                    std::to_string(j.client < 0 ? 0 : j.client) +
                    ", \"name\": \"";
    AppendJsonEscaped(&e, j.stream);
    e += "\", \"cat\": \"journey\", \"ts\": ";
    AppendNumber(&e, j.time_s * 1e6);
    // Zero-duration slices vanish in the UI; floor at 1 us.
    const double dur_us =
        std::max(1.0, (j.queue_s + j.transfer_s + j.backoff_s) * 1e6);
    e += ", \"dur\": ";
    AppendNumber(&e, dur_us);
    e += ", \"args\": {\"request\": " + std::to_string(j.request);
    e += ", \"point\": " + std::to_string(j.point);
    e += ", \"run\": " + std::to_string(j.run);
    e += ", \"doc\": " + std::to_string(j.doc);
    e += ", \"served_by\": " + std::to_string(j.served_by);
    e += ", \"hops\": " + std::to_string(j.hops);
    e += ", \"failover_depth\": " + std::to_string(j.failover_depth);
    e += ", \"retries\": " + std::to_string(j.retries);
    e += ", \"pushed_docs\": " + std::to_string(j.pushed_docs);
    e += ", \"response_bytes\": ";
    AppendNumber(&e, j.response_bytes);
    e += ", \"queue_s\": ";
    AppendNumber(&e, j.queue_s);
    e += ", \"transfer_s\": ";
    AppendNumber(&e, j.transfer_s);
    e += ", \"backoff_s\": ";
    AppendNumber(&e, j.backoff_s);
    e += "}}";
    AppendEvent(&out, &first, e);
  }

  out += first ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

#ifndef SDS_OBS_DISABLED

bool WritePrometheus(const std::string& path) {
  return WriteStringToFile(path, MetricsToPrometheus(SnapshotMetrics()));
}

bool WriteChromeTrace(const std::string& path) {
  return WriteStringToFile(
      path, ChromeTraceJson(SnapshotTrace(), SnapshotTimeSeries(),
                            SnapshotJourneys()));
}

#endif  // !SDS_OBS_DISABLED

}  // namespace sds::obs
