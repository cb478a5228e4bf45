#ifndef SDS_OBS_JOURNEY_H_
#define SDS_OBS_JOURNEY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace sds::obs {

/// \brief Sampled per-request journey tracing.
///
/// A journey is the full path of one simulated request through the
/// hierarchy: who issued it, which proxy or server served it, how deep the
/// failover chain went, how many speculative pushes rode along, and a
/// decomposition of its service time (queueing vs transfer vs retry
/// backoff). Recording every request would dwarf the simulation, so a
/// deterministic hash-based sampler keeps 1-in-`period` requests, keyed on
/// (request index, journey seed) — no RNG draws, so enabling journeys
/// never perturbs simulated numbers, and the sampled set is identical
/// across sweep worker counts (the sweep engine scopes the per-point seed
/// via ScopedJourneySeed).
///
/// Runs are disambiguated by a per-(sweep point) run ordinal handed out by
/// a global registry: a sweep point executes entirely on one thread, so
/// the Nth simulator run at a point is the same run regardless of worker
/// count, which makes the snapshot's (point, run, request) sort order
/// deterministic. Obeys the Enabled() runtime switch and SDS_OBS_DISABLED
/// compile switch of the metrics registry.

/// `served_by` values other than a proxy index (>= 0).
inline constexpr int32_t kServedByServer = -1;  ///< Home/origin server.
inline constexpr int32_t kServedByCache = -2;   ///< Client-cache hit.
inline constexpr int32_t kServedByNone = -3;    ///< Request failed.

/// Default sampling period (1-in-N requests).
inline constexpr uint64_t kDefaultJourneySamplePeriod = 64;

/// Per-thread journey capacity between snapshots; further records are
/// dropped (and counted) so a pathological run cannot grow without bound.
inline constexpr size_t kJourneyCapacity = 1 << 16;

/// \brief One sampled request's journey.
struct JourneyRecord {
  // Filled by JourneyRun::Record.
  const char* stream = "";  ///< Recording site (string literal).
  int64_t point = kNoPoint;
  uint32_t run = 0;  ///< Run ordinal within the point.

  uint64_t request = 0;  ///< Request index within the run (sample key).
  double time_s = 0.0;   ///< Simulated arrival time.
  int64_t client = -1;   ///< Client id or attachment node (-1 unknown).
  int64_t doc = -1;      ///< Document id (-1 unknown).
  int32_t served_by = kServedByServer;
  uint32_t hops = 0;            ///< Network hops to whoever served it.
  uint32_t failover_depth = 0;  ///< Position in the failover chain (0 =
                                ///< primary candidate).
  uint32_t retries = 0;         ///< Failed attempts before service.
  uint32_t pushed_docs = 0;     ///< Speculative documents on the response.
  double response_bytes = 0.0;
  // Service-time decomposition. queue_s/backoff_s are simulated seconds;
  // transfer_s is in the recording site's transfer units (the speculation
  // simulator's abstract cost model, seconds for the queueing model).
  double queue_s = 0.0;
  double transfer_s = 0.0;
  double backoff_s = 0.0;
};

/// \brief Everything recorded since the last ResetJourneys.
struct JourneySnapshot {
  uint64_t sample_period = kDefaultJourneySamplePeriod;
  /// Sorted by (point, run, request) — deterministic across threads.
  std::vector<JourneyRecord> journeys;
  uint64_t dropped = 0;  ///< Records lost to the per-thread capacity cap.

  /// Standalone JSON object `{"sample_period": N, "journeys": [...],
  /// "dropped": D}`.
  std::string ToJson() const;
};

#ifdef SDS_OBS_DISABLED

class JourneyRun {
 public:
  explicit JourneyRun(const char*) {}
  JourneyRun(const JourneyRun&) = delete;
  JourneyRun& operator=(const JourneyRun&) = delete;
  bool active() const { return false; }
  bool Sample(uint64_t) const { return false; }
  void Record(const JourneyRecord&) {}
};
class ScopedJourneySeed {
 public:
  explicit ScopedJourneySeed(uint64_t) {}
  ScopedJourneySeed(const ScopedJourneySeed&) = delete;
  ScopedJourneySeed& operator=(const ScopedJourneySeed&) = delete;
};
inline void SetJourneySamplePeriod(uint64_t) {}
inline uint64_t JourneySamplePeriod() { return kDefaultJourneySamplePeriod; }
inline JourneySnapshot SnapshotJourneys() { return {}; }
inline void ResetJourneys() {}
inline bool WriteJourneys(const std::string&) { return false; }

#else  // SDS_OBS_DISABLED

/// \brief One simulator run's recording scope. Construct at the top of a
/// run; while observability is enabled it claims the next run ordinal for
/// the current sweep point and snapshots the sampling seed/period.
class JourneyRun {
 public:
  explicit JourneyRun(const char* stream);
  JourneyRun(const JourneyRun&) = delete;
  JourneyRun& operator=(const JourneyRun&) = delete;

  bool active() const { return active_; }
  /// True when `request_index` is in the deterministic sample. Constant
  /// per (journey seed, request index, period); false while disabled.
  bool Sample(uint64_t request_index) const;
  /// Stores `record` (stream/point/run fields are overwritten with this
  /// run's identity). Call only for sampled requests.
  void Record(JourneyRecord record);

 private:
  const char* stream_;
  int64_t point_;
  uint32_t run_ = 0;
  uint64_t seed_ = 0;
  uint64_t period_ = kDefaultJourneySamplePeriod;
  bool active_;
};

/// \brief Scopes the journey sampling seed of the current thread; the sweep
/// engine installs SweepPointSeed(base, index) around every point body so
/// the sampled set is a pure function of (base seed, point, request).
class ScopedJourneySeed {
 public:
  explicit ScopedJourneySeed(uint64_t seed);
  ~ScopedJourneySeed();
  ScopedJourneySeed(const ScopedJourneySeed&) = delete;
  ScopedJourneySeed& operator=(const ScopedJourneySeed&) = delete;

 private:
  uint64_t previous_;
};

/// Sets the 1-in-N sampling period (>= 1; 1 = every request). Only call at
/// join points. Starts at kDefaultJourneySamplePeriod.
void SetJourneySamplePeriod(uint64_t period);
uint64_t JourneySamplePeriod();

/// Merged, (point, run, request)-sorted view of all shards. Only call at
/// join points (no concurrent recorders).
JourneySnapshot SnapshotJourneys();
/// Clears all shards and the run-ordinal registry. Only call at join
/// points.
void ResetJourneys();
/// Writes SnapshotJourneys().ToJson() to `path`; false on I/O error.
bool WriteJourneys(const std::string& path);

#endif  // SDS_OBS_DISABLED

}  // namespace sds::obs

#endif  // SDS_OBS_JOURNEY_H_
