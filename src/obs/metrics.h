#ifndef SDS_OBS_METRICS_H_
#define SDS_OBS_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace sds::obs {

/// \brief Lightweight metrics registry for the simulators.
///
/// Recording is a relaxed atomic load + branch when observability is
/// disabled (the default), so instrumented hot paths cost nothing
/// measurable and simulation results are bit-identical either way — the
/// instrumentation only ever *reads* simulator state. When enabled, each
/// thread accumulates into a private shard (open hash keyed by the name
/// pointer, no locks); shards merge into a global accumulator under a
/// mutex when their thread exits, which is exactly the sweep-join point
/// for `core::RunSweep` workers. Accumulation stays per (name, point) up
/// to the snapshot, which rolls the totals up in (name, point) order: a
/// snapshot is bit-identical at any worker count.
///
/// Names must be string literals (they are kept by pointer and resolved
/// to strings only at snapshot time; duplicates across translation units
/// merge by value then).
///
/// SnapshotMetrics/ResetMetrics must not race with recording threads:
/// call them at join points (end of a bench main, after RunSweep
/// returns). Compile the whole layer out with -DSDS_OBS_DISABLED (CMake
/// option SDS_OBS=OFF).

/// Sentinel for "not inside a sweep point".
inline constexpr int64_t kNoPoint = -1;

/// Distributions use power-of-two buckets: bucket b covers
/// [2^(b-33), 2^(b-32)), i.e. ~2.3e-10 .. 2^31, with bucket 0 also
/// absorbing all values <= 0. Wide enough for both seconds and bytes.
inline constexpr size_t kDistBuckets = 64;

size_t DistBucketIndex(double value);
/// Inclusive lower edge of bucket `bucket` (0 for bucket 0).
double DistBucketLo(size_t bucket);

/// \brief Merged state of one distribution.
struct DistData {
  double count = 0.0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::array<double, kDistBuckets> buckets{};

  void Add(double value, double weight = 1.0);
  void Merge(const DistData& other);
  double mean() const { return count > 0.0 ? sum / count : 0.0; }
};

/// \brief Point-in-time merged view of every shard (live + retired).
struct MetricsSnapshot {
  /// Counters, with per-point recordings rolled up into the global total.
  std::map<std::string, double> counters;
  /// Gauges merge across shards by max (a high-water-mark semantic).
  std::map<std::string, double> gauges;
  std::map<std::string, DistData> distributions;
  /// Counters recorded inside a ScopedPoint, keyed by point index.
  std::map<int64_t, std::map<std::string, double>> point_counters;

  bool empty() const {
    return counters.empty() && gauges.empty() && distributions.empty() &&
           point_counters.empty();
  }
  /// Multi-line JSON object; every line after the first is prefixed with
  /// `indent`. Stable key order (std::map), %.17g numbers.
  std::string ToJson(const std::string& indent = "  ") const;
};

#ifdef SDS_OBS_DISABLED

inline bool Enabled() { return false; }
inline void SetEnabled(bool) {}
inline void Count(const char*, double = 1.0) {}
inline void GaugeMax(const char*, double) {}
inline void Observe(const char*, double) {}
inline int64_t CurrentPoint() { return kNoPoint; }
class ScopedPoint {
 public:
  explicit ScopedPoint(int64_t) {}
  ScopedPoint(const ScopedPoint&) = delete;
  ScopedPoint& operator=(const ScopedPoint&) = delete;
};
inline MetricsSnapshot SnapshotMetrics() { return {}; }
inline void ResetMetrics() {}

#else  // SDS_OBS_DISABLED

/// Runtime switch; initialised from the SDS_OBS environment variable
/// ("", "0" = off) and flipped by SetEnabled (benches: --obs).
bool Enabled();
void SetEnabled(bool enabled);

/// Adds `delta` to the named counter (and to the current point's copy
/// when inside a ScopedPoint). No-op while disabled.
void Count(const char* name, double delta = 1.0);
/// Raises the named gauge to `value` if larger (high-water mark).
void GaugeMax(const char* name, double value);
/// Records one sample of the named distribution.
void Observe(const char* name, double value);

/// \brief Attributes counters recorded on this thread to a sweep point.
/// The sweep engine wraps every point body in one of these; nesting
/// restores the previous point on destruction.
class ScopedPoint {
 public:
  explicit ScopedPoint(int64_t point);
  ~ScopedPoint();
  ScopedPoint(const ScopedPoint&) = delete;
  ScopedPoint& operator=(const ScopedPoint&) = delete;

 private:
  int64_t previous_;
};

/// The point the current thread is recording under (kNoPoint outside).
int64_t CurrentPoint();

/// Merged view of everything recorded since the last ResetMetrics. Only
/// call at join points (no concurrent recorders).
MetricsSnapshot SnapshotMetrics();
/// Clears all shards (live and retired). Only call at join points.
void ResetMetrics();

#endif  // SDS_OBS_DISABLED

}  // namespace sds::obs

#endif  // SDS_OBS_METRICS_H_
