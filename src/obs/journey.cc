#include "obs/journey.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <vector>

#include "obs/shards.h"
#include "util/string_util.h"

namespace sds::obs {

std::string JourneySnapshot::ToJson() const {
  std::string out = "{\n  \"sample_period\": ";
  out += std::to_string(sample_period);
  out += ",\n  \"journeys\": [";
  bool first = true;
  for (const JourneyRecord& j : journeys) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"stream\": \"";
    AppendJsonEscaped(&out, j.stream);
    out += "\", \"point\": " + std::to_string(j.point);
    out += ", \"run\": " + std::to_string(j.run);
    out += ", \"request\": " + std::to_string(j.request);
    out += ", \"time_s\": ";
    AppendNumber(&out, j.time_s);
    out += ", \"client\": " + std::to_string(j.client);
    out += ", \"doc\": " + std::to_string(j.doc);
    out += ", \"served_by\": " + std::to_string(j.served_by);
    out += ", \"hops\": " + std::to_string(j.hops);
    out += ", \"failover_depth\": " + std::to_string(j.failover_depth);
    out += ", \"retries\": " + std::to_string(j.retries);
    out += ", \"pushed_docs\": " + std::to_string(j.pushed_docs);
    out += ", \"response_bytes\": ";
    AppendNumber(&out, j.response_bytes);
    out += ", \"queue_s\": ";
    AppendNumber(&out, j.queue_s);
    out += ", \"transfer_s\": ";
    AppendNumber(&out, j.transfer_s);
    out += ", \"backoff_s\": ";
    AppendNumber(&out, j.backoff_s);
    out += "}";
  }
  out += first ? "]" : "\n  ]";
  out += ",\n  \"dropped\": " + std::to_string(dropped) + "\n}\n";
  return out;
}

#ifndef SDS_OBS_DISABLED

// ---------------------------------------------------------------------------
// Recording machinery (compiled out under SDS_OBS_DISABLED).
// ---------------------------------------------------------------------------

namespace {

uint64_t PeriodFromEnv() {
  if (const char* env = std::getenv("SDS_OBS_JOURNEY_PERIOD")) {
    char* end = nullptr;
    const long long value = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && value > 0) {
      return static_cast<uint64_t>(value);
    }
  }
  return kDefaultJourneySamplePeriod;
}

std::atomic<uint64_t> g_period{PeriodFromEnv()};

thread_local uint64_t tls_journey_seed = 0;

/// splitmix64 finalizer (same mix as Rng::Mix; duplicated so obs does not
/// depend on util/rng).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct JourneyShard {
  std::vector<JourneyRecord> records;
  uint64_t dropped = 0;

  void Clear() {
    records.clear();
    dropped = 0;
  }
};

struct JourneyState {
  JourneySnapshot recorded;
  /// Next run ordinal per sweep point. Shared (not per shard) so the
  /// ordinal sequence of a point is independent of which worker ran it.
  std::map<int64_t, uint32_t> next_run;
};

struct JourneySink {
  using Shard = JourneyShard;
  using Retired = JourneyState;
  static void Fold(const JourneyShard& shard, JourneyState* into) {
    into->recorded.journeys.insert(into->recorded.journeys.end(),
                                   shard.records.begin(),
                                   shard.records.end());
    into->recorded.dropped += shard.dropped;
  }
  static void Clear(JourneyState* state) {
    state->recorded.journeys.clear();
    state->recorded.dropped = 0;
    state->next_run.clear();
  }
};
using Journeys = internal::Registry<JourneySink>;

}  // namespace

JourneyRun::JourneyRun(const char* stream)
    : stream_(stream), point_(CurrentPoint()), active_(Enabled()) {
  if (!active_) return;
  seed_ = tls_journey_seed;
  period_ = g_period.load(std::memory_order_relaxed);
  run_ = Journeys::WithRetired(
      [&](JourneyState& state) { return state.next_run[point_]++; });
}

bool JourneyRun::Sample(uint64_t request_index) const {
  if (!active_) return false;
  return Mix64(seed_ ^ (request_index * 0x2545f4914f6cdd1dull)) % period_ ==
         0;
}

void JourneyRun::Record(JourneyRecord record) {
  if (!active_) return;
  record.stream = stream_;
  record.point = point_;
  record.run = run_;
  JourneyShard& shard = Journeys::Local();
  if (shard.records.size() < kJourneyCapacity) {
    shard.records.push_back(record);
  } else {
    ++shard.dropped;
  }
}

ScopedJourneySeed::ScopedJourneySeed(uint64_t seed)
    : previous_(tls_journey_seed) {
  tls_journey_seed = seed;
}

ScopedJourneySeed::~ScopedJourneySeed() { tls_journey_seed = previous_; }

void SetJourneySamplePeriod(uint64_t period) {
  if (period >= 1) g_period.store(period, std::memory_order_relaxed);
}

uint64_t JourneySamplePeriod() {
  return g_period.load(std::memory_order_relaxed);
}

JourneySnapshot SnapshotJourneys() {
  JourneySnapshot snapshot = Journeys::Snapshot().recorded;
  snapshot.sample_period = g_period.load(std::memory_order_relaxed);
  // (point, run) identifies one simulator run and runs record their
  // requests in replay order, so this order is a pure function of the
  // simulated work — independent of worker count and merge order.
  std::stable_sort(snapshot.journeys.begin(), snapshot.journeys.end(),
                   [](const JourneyRecord& a, const JourneyRecord& b) {
                     if (a.point != b.point) return a.point < b.point;
                     if (a.run != b.run) return a.run < b.run;
                     return a.request < b.request;
                   });
  return snapshot;
}

void ResetJourneys() { Journeys::Reset(); }

bool WriteJourneys(const std::string& path) {
  return WriteStringToFile(path, SnapshotJourneys().ToJson());
}

#endif  // !SDS_OBS_DISABLED

}  // namespace sds::obs
