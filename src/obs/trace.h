#ifndef SDS_OBS_TRACE_H_
#define SDS_OBS_TRACE_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace sds::obs {

/// \brief Structured stage tracer.
///
/// A SpanGuard records one begin/end span: stage name, wall-clock start
/// and duration, an optional byte count, the sweep point active on the
/// recording thread, and a small thread id. Spans land in a per-thread
/// ring buffer (capacity kSpanRingCapacity, oldest overwritten first)
/// and are moved into a capped retired list when the thread exits — the
/// recorder lifecycle every obs sink shares. Obeys the same Enabled()
/// runtime switch and SDS_OBS_DISABLED compile switch as the metrics
/// registry; a disabled SpanGuard does not even read the clock. The
/// Chrome trace exporter (obs/export.h) renders the spans.

/// Per-thread ring capacity; older spans are dropped (and counted) once
/// a thread records more than this between snapshots.
inline constexpr size_t kSpanRingCapacity = 4096;

/// \brief One completed span.
struct TraceSpan {
  const char* name;   ///< Stage name (string literal).
  double start_s;     ///< Seconds since the process trace epoch.
  double dur_s;       ///< Wall-clock duration in seconds.
  double bytes;       ///< Optional payload size (0 when unused).
  int64_t point;      ///< Sweep point active at begin, or kNoPoint.
  int32_t tid;        ///< Small per-process thread index.
};

/// \brief Everything recorded since the last ResetTrace.
struct TraceSnapshot {
  std::vector<TraceSpan> spans;  ///< Sorted by start_s.
  uint64_t dropped = 0;          ///< Spans lost to ring overflow.
};

#ifdef SDS_OBS_DISABLED

class SpanGuard {
 public:
  explicit SpanGuard(const char*) {}
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  void AddBytes(double) {}
};
inline TraceSnapshot SnapshotTrace() { return {}; }
inline void ResetTrace() {}

#else  // SDS_OBS_DISABLED

/// \brief RAII span: clocks begin at construction, emits at destruction.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name);
  ~SpanGuard();
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Attributes a payload size to the span (accumulates).
  void AddBytes(double bytes) { bytes_ += bytes; }

 private:
  const char* name_;
  double start_s_;
  double bytes_ = 0.0;
  bool active_;
};

/// Merged, start-time-sorted view of all rings (live + retired). Only
/// call at join points (no concurrent recorders).
TraceSnapshot SnapshotTrace();
/// Clears all rings and the retired list. Only call at join points.
void ResetTrace();

#endif  // SDS_OBS_DISABLED

}  // namespace sds::obs

#endif  // SDS_OBS_TRACE_H_
