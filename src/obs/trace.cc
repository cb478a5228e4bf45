#include "obs/trace.h"

#ifndef SDS_OBS_DISABLED

#include <algorithm>
#include <chrono>

#include "obs/shards.h"

namespace sds::obs {

namespace {

/// Seconds since the first call in this process (the trace epoch).
double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

struct SpanSink {
  using Shard = internal::Ring<TraceSpan, kSpanRingCapacity>;
  using Retired = TraceSnapshot;
  static void Fold(const Shard& ring, TraceSnapshot* into) {
    ring.AppendTo(&into->spans, &into->dropped);
  }
  static void Retire(const Shard& ring, TraceSnapshot* into) {
    ring.AppendTo(&into->spans, &into->dropped, internal::kRetiredCapacity);
  }
  static void Clear(TraceSnapshot* retired) {
    retired->spans.clear();
    retired->dropped = 0;
  }
};
using Spans = internal::Registry<SpanSink>;

}  // namespace

SpanGuard::SpanGuard(const char* name)
    : name_(name), start_s_(0.0), active_(Enabled()) {
  if (active_) start_s_ = NowSeconds();
}

SpanGuard::~SpanGuard() {
  if (!active_) return;
  SpanSink::Shard& ring = Spans::Local();
  ring.Push(TraceSpan{name_, start_s_, NowSeconds() - start_s_, bytes_,
                      CurrentPoint(), ring.tid});
}

TraceSnapshot SnapshotTrace() {
  TraceSnapshot snapshot = Spans::Snapshot();
  std::stable_sort(snapshot.spans.begin(), snapshot.spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     return a.start_s < b.start_s;
                   });
  return snapshot;
}

void ResetTrace() { Spans::Reset(); }

}  // namespace sds::obs

#endif  // !SDS_OBS_DISABLED
