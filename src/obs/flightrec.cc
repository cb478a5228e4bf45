#include "obs/flightrec.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/audit.h"
#include "obs/shards.h"
#include "util/string_util.h"

namespace sds::obs {

std::string FlightToJson(const FlightSnapshot& snapshot) {
  std::string out = "{\n  \"events\": [";
  bool first = true;
  for (const FlightEvent& e : snapshot.events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"seq\": " + std::to_string(e.seq);
    out += ", \"request\": " + std::to_string(e.request);
    out += ", \"stage\": \"";
    AppendJsonEscaped(&out, e.stage);
    out += "\", \"decision\": \"";
    AppendJsonEscaped(&out, e.decision);
    out += "\", \"entity\": " + std::to_string(e.entity);
    out += ", \"value\": ";
    AppendNumber(&out, e.value);
    out += ", \"point\": " + std::to_string(e.point);
    out += ", \"tid\": " + std::to_string(e.tid) + "}";
  }
  out += first ? "]" : "\n  ]";
  out += ",\n  \"dropped\": " + std::to_string(snapshot.dropped) + "\n}\n";
  return out;
}

#ifndef SDS_OBS_DISABLED

namespace {

/// Process-wide recording order; a relaxed fetch_add is cheap and gives
/// the dump a meaningful cross-thread timeline.
std::atomic<uint64_t> g_seq{0};

struct FlightSink {
  using Shard = internal::Ring<FlightEvent, kFlightRingCapacity>;
  using Retired = FlightSnapshot;
  static void Fold(const Shard& ring, FlightSnapshot* into) {
    ring.AppendTo(&into->events, &into->dropped);
  }
  static void Retire(const Shard& ring, FlightSnapshot* into) {
    ring.AppendTo(&into->events, &into->dropped, internal::kRetiredCapacity);
  }
  static void Clear(FlightSnapshot* retired) {
    retired->events.clear();
    retired->dropped = 0;
  }
};
using Flight = internal::Registry<FlightSink>;

void SortBySeq(FlightSnapshot* snapshot) {
  std::sort(snapshot->events.begin(), snapshot->events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
}

/// The dump path lives in a fixed buffer so the signal handler can read it
/// without allocation or locking.
char g_dump_path[512] = "flightrec_dump.json";

struct DumpPathInit {
  DumpPathInit() {
    if (const char* env = std::getenv("SDS_FLIGHTREC_OUT")) {
      if (env[0] != '\0') {
        std::strncpy(g_dump_path, env, sizeof(g_dump_path) - 1);
        g_dump_path[sizeof(g_dump_path) - 1] = '\0';
      }
    }
  }
};
DumpPathInit g_dump_path_init;

void FatalSignalHandler(int sig) {
  // Best effort from a signal context: if the crashing thread holds the
  // registry lock a blocking acquire would deadlock, so bail out instead.
  FlightSnapshot snapshot;
  if (Flight::TrySnapshot(&snapshot)) {
    SortBySeq(&snapshot);
    if (WriteStringToFile(g_dump_path, FlightToJson(snapshot))) {
      std::fprintf(stderr, "flightrec: fatal signal %d, dumped %zu events "
                           "to %s\n",
                   sig, snapshot.events.size(), g_dump_path);
    }
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

// Out of line, so FlightRecord's disabled early-out saves no registers.
[[gnu::noinline]] void FlightRecordSlow(uint64_t request, const char* stage,
                                        const char* decision, int64_t entity,
                                        double value) {
  if (!AuditEnabled()) return;
  FlightSink::Shard& ring = Flight::Local();
  ring.Push(FlightEvent{g_seq.fetch_add(1, std::memory_order_relaxed),
                        request, stage, decision, entity, value,
                        CurrentPoint(), ring.tid});
}

}  // namespace

void FlightRecord(uint64_t request, const char* stage, const char* decision,
                  int64_t entity, double value) {
  if (!internal::Enabled()) return;
  FlightRecordSlow(request, stage, decision, entity, value);
}

FlightSnapshot SnapshotFlight() {
  FlightSnapshot snapshot = Flight::Snapshot();
  SortBySeq(&snapshot);
  return snapshot;
}

void ResetFlight() { Flight::Reset(); }

bool WriteFlight(const std::string& path) {
  return WriteStringToFile(path, FlightToJson(SnapshotFlight()));
}

void SetFlightDumpPath(const std::string& path) {
  std::strncpy(g_dump_path, path.c_str(), sizeof(g_dump_path) - 1);
  g_dump_path[sizeof(g_dump_path) - 1] = '\0';
}

const char* FlightDumpPath() { return g_dump_path; }

bool InstallFlightSignalHandler() {
  static const bool installed = [] {
    for (const int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE}) {
      if (std::signal(sig, FatalSignalHandler) == SIG_ERR) return false;
    }
    return true;
  }();
  return installed;
}

#endif  // !SDS_OBS_DISABLED

}  // namespace sds::obs
