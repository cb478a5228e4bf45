#ifndef SDS_OBS_TIMESERIES_H_
#define SDS_OBS_TIMESERIES_H_

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.h"

namespace sds::obs {

/// \brief Simulated-clock time-series recorder.
///
/// The metrics registry aggregates over a whole run; this layer buckets
/// counters into fixed windows of *simulated* time (default 1 h), so a
/// replayed trace exposes its diurnal load peaks, failover storms and
/// speculation bursts the way an operator's dashboard would. Recording
/// follows the metrics-registry design exactly: thread-local shards keyed
/// by (literal name pointer, window index, sweep point), merged under a
/// mutex at thread exit — the sweep-join point — so parallel sweeps stay
/// bit-identical across worker counts. Obeys the same Enabled() runtime
/// switch and SDS_OBS_DISABLED compile switch as the registry.
///
/// Every TsCount of a series that also has a run-level obs::Count of the
/// same name must use the same deltas, so per-window sums equal the
/// run-level counter (pinned by tests/obs/timeseries_test.cc).

/// Default window width: one simulated hour.
inline constexpr double kDefaultTimeSeriesWindowS = 3600.0;

/// \brief Merged view of every time series recorded since the last
/// ResetTimeSeries. Window `w` of a series covers simulated time
/// [w * window_s, (w + 1) * window_s).
struct TimeSeriesSnapshot {
  double window_s = kDefaultTimeSeriesWindowS;
  /// Series name -> window index -> summed deltas (rollup over points).
  std::map<std::string, std::map<int64_t, double>> total;
  /// Deltas recorded inside a ScopedPoint, keyed by point index.
  std::map<int64_t, std::map<std::string, std::map<int64_t, double>>>
      by_point;

  bool empty() const { return total.empty() && by_point.empty(); }
  /// Multi-line JSON object `{"window_s": W, "series": {name: {window:
  /// value}}, "points": {point: {name: {window: value}}}}`; every line
  /// after the first is prefixed with `indent`.
  std::string ToJson(const std::string& indent = "  ") const;
  /// Long-form CSV with header `series,point,window_start_s,value`; the
  /// rollup rows carry an empty point field, per-point rows its index.
  std::string ToCsv() const;
};

#ifdef SDS_OBS_DISABLED

inline void TsCount(const char*, double, double = 1.0) {}
inline void SetTimeSeriesWindow(double) {}
inline double TimeSeriesWindow() { return kDefaultTimeSeriesWindowS; }
inline TimeSeriesSnapshot SnapshotTimeSeries() { return {}; }
inline void ResetTimeSeries() {}
inline bool WriteTimeSeriesCsv(const std::string&) { return false; }

#else  // SDS_OBS_DISABLED

/// Adds `delta` to window floor(sim_time_s / window) of the named series
/// (and to the current point's copy when inside a ScopedPoint). The name
/// must be a string literal. No-op while disabled.
void TsCount(const char* name, double sim_time_s, double delta = 1.0);

/// Sets the window width in simulated seconds (> 0). Only call at join
/// points: samples already recorded keep their old window index, so mixing
/// widths within one run makes the snapshot meaningless. Starts at
/// kDefaultTimeSeriesWindowS.
void SetTimeSeriesWindow(double seconds);
double TimeSeriesWindow();

/// Merged view of everything recorded since the last ResetTimeSeries.
/// Only call at join points (no concurrent recorders).
TimeSeriesSnapshot SnapshotTimeSeries();
/// Clears all shards (live and retired). Only call at join points.
void ResetTimeSeries();
/// Writes SnapshotTimeSeries().ToCsv() to `path`; false on I/O error.
bool WriteTimeSeriesCsv(const std::string& path);

#endif  // SDS_OBS_DISABLED

}  // namespace sds::obs

#endif  // SDS_OBS_TIMESERIES_H_
