#include "obs/metrics.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/export.h"
#include "obs/shards.h"
#include "util/string_util.h"

namespace sds::obs {

// ---------------------------------------------------------------------------
// Shared by both build flavors: bucket math and snapshot JSON.
// ---------------------------------------------------------------------------

size_t DistBucketIndex(double value) {
  if (!(value > 0.0)) return 0;  // also catches NaN
  int exponent = 0;
  std::frexp(value, &exponent);  // value = m * 2^exponent, m in [0.5, 1)
  const int index = exponent + 32;
  if (index < 0) return 0;
  if (index >= static_cast<int>(kDistBuckets)) return kDistBuckets - 1;
  return static_cast<size_t>(index);
}

double DistBucketLo(size_t bucket) {
  if (bucket == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(bucket) - 33);
}

void DistData::Add(double value, double weight) {
  count += weight;
  sum += value * weight;
  if (value < min) min = value;
  if (value > max) max = value;
  buckets[DistBucketIndex(value)] += weight;
}

void DistData::Merge(const DistData& other) {
  count += other.count;
  sum += other.sum;
  if (other.min < min) min = other.min;
  if (other.max > max) max = other.max;
  for (size_t b = 0; b < kDistBuckets; ++b) buckets[b] += other.buckets[b];
}

namespace {

void AppendScalarMap(std::string* out, const std::map<std::string, double>& m,
                     const std::string& pad) {
  *out += "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    *out += first ? "\n" : ",\n";
    first = false;
    *out += pad + "  \"";
    AppendJsonEscaped(out, name);
    *out += "\": ";
    AppendNumber(out, value);
  }
  *out += first ? "}" : "\n" + pad + "}";
}

}  // namespace

std::string MetricsSnapshot::ToJson(const std::string& indent) const {
  std::string out = "{\n";
  out += indent + "  \"counters\": ";
  AppendScalarMap(&out, counters, indent + "  ");
  out += ",\n" + indent + "  \"gauges\": ";
  AppendScalarMap(&out, gauges, indent + "  ");

  out += ",\n" + indent + "  \"distributions\": {";
  bool first = true;
  for (const auto& [name, dist] : distributions) {
    if (dist.count <= 0.0) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += indent + "    \"";
    AppendJsonEscaped(&out, name);
    out += "\": {\"count\": ";
    AppendNumber(&out, dist.count);
    out += ", \"sum\": ";
    AppendNumber(&out, dist.sum);
    out += ", \"min\": ";
    AppendNumber(&out, dist.min);
    out += ", \"max\": ";
    AppendNumber(&out, dist.max);
    out += ", \"mean\": ";
    AppendNumber(&out, dist.mean());
    out += ", \"p50\": ";
    AppendNumber(&out, DistQuantile(dist, 0.50));
    out += ", \"p95\": ";
    AppendNumber(&out, DistQuantile(dist, 0.95));
    out += ", \"p99\": ";
    AppendNumber(&out, DistQuantile(dist, 0.99));
    // Sparse buckets as [lower_edge, weight] pairs.
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (size_t b = 0; b < kDistBuckets; ++b) {
      if (dist.buckets[b] <= 0.0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += "[";
      AppendNumber(&out, DistBucketLo(b));
      out += ", ";
      AppendNumber(&out, dist.buckets[b]);
      out += "]";
    }
    out += "]}";
  }
  out += first ? "}" : "\n" + indent + "  }";

  out += ",\n" + indent + "  \"points\": {";
  first = true;
  for (const auto& [point, counters_at_point] : point_counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += indent + "    \"" + std::to_string(point) + "\": ";
    AppendScalarMap(&out, counters_at_point, indent + "    ");
  }
  out += first ? "}" : "\n" + indent + "  }";
  out += "\n" + indent + "}";
  return out;
}

#ifndef SDS_OBS_DISABLED

// ---------------------------------------------------------------------------
// Recording machinery (compiled out under SDS_OBS_DISABLED).
// ---------------------------------------------------------------------------

namespace {

bool EnabledFromEnv() {
  const char* env = std::getenv("SDS_OBS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace

std::atomic<bool> internal::g_enabled{EnabledFromEnv()};

namespace {

thread_local int64_t tls_point = kNoPoint;

struct Key {
  const char* name;
  int64_t point;
  bool operator==(const Key& other) const {
    return name == other.name && point == other.point;
  }
};

struct KeyHash {
  size_t operator()(const Key& key) const {
    // splitmix64-style finalizer over the pointer and the point index.
    uint64_t x = reinterpret_cast<uintptr_t>(key.name) ^
                 (static_cast<uint64_t>(key.point) * 0x9e3779b97f4a7c15ull);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

/// One thread's private accumulation. Keys hold string-literal pointers;
/// they are resolved to strings when merged into a snapshot.
struct MetricsShard {
  std::unordered_map<Key, double, KeyHash> counters;
  std::unordered_map<Key, double, KeyHash> gauges;
  std::unordered_map<Key, DistData, KeyHash> dists;

  void Clear() {
    counters.clear();
    gauges.clear();
    dists.clear();
  }
};

/// Totals per (name, point). Names are keyed by string, so literals with
/// equal text from different translation units merge.
using NamePoint = std::pair<std::string, int64_t>;
struct PointTotals {
  std::map<NamePoint, double> counters;
  std::map<NamePoint, double> gauges;
  std::map<NamePoint, DistData> dists;
};

struct MetricsSink {
  using Shard = MetricsShard;
  using Retired = PointTotals;
  static void Fold(const MetricsShard& shard, PointTotals* totals) {
    for (const auto& [key, value] : shard.counters) {
      totals->counters[{key.name, key.point}] += value;
    }
    for (const auto& [key, value] : shard.gauges) {
      auto [it, inserted] = totals->gauges.emplace(
          NamePoint{key.name, key.point}, value);
      if (!inserted && value > it->second) it->second = value;
    }
    for (const auto& [key, dist] : shard.dists) {
      totals->dists[{key.name, key.point}].Merge(dist);
    }
  }
};
using Metrics = internal::Registry<MetricsSink>;

/// Rolls the per-point totals up in (name, point) order. A sweep point
/// records on one thread, so every (name, point) total is the same at any
/// worker count, and folding them in a fixed order keeps the rolled-up
/// floating-point sums bit-identical too.
MetricsSnapshot FoldTotals(const PointTotals& totals) {
  MetricsSnapshot snapshot;
  for (const auto& [key, value] : totals.counters) {
    snapshot.counters[key.first] += value;
    if (key.second != kNoPoint) {
      snapshot.point_counters[key.second][key.first] += value;
    }
  }
  for (const auto& [key, value] : totals.gauges) {
    auto [it, inserted] = snapshot.gauges.emplace(key.first, value);
    if (!inserted && value > it->second) it->second = value;
  }
  for (const auto& [key, dist] : totals.dists) {
    snapshot.distributions[key.first].Merge(dist);
  }
  return snapshot;
}

// Out of line, so Observe's disabled early-out saves no registers.
[[gnu::noinline]] void ObserveSlow(const char* name, double value) {
  Metrics::Local().dists[Key{name, tls_point}].Add(value);
}

}  // namespace

bool Enabled() { return internal::Enabled(); }

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

void Count(const char* name, double delta) {
  if (!Enabled()) return;
  Metrics::Local().counters[Key{name, tls_point}] += delta;
}

void GaugeMax(const char* name, double value) {
  if (!Enabled()) return;
  auto [it, inserted] =
      Metrics::Local().gauges.emplace(Key{name, tls_point}, value);
  if (!inserted && value > it->second) it->second = value;
}

void Observe(const char* name, double value) {
  if (!Enabled()) return;
  ObserveSlow(name, value);
}

ScopedPoint::ScopedPoint(int64_t point) : previous_(tls_point) {
  tls_point = point;
}

ScopedPoint::~ScopedPoint() { tls_point = previous_; }

int64_t CurrentPoint() { return tls_point; }

MetricsSnapshot SnapshotMetrics() { return FoldTotals(Metrics::Snapshot()); }

void ResetMetrics() { Metrics::Reset(); }

#endif  // !SDS_OBS_DISABLED

}  // namespace sds::obs
