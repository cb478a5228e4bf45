#include "obs/timeseries.h"

#include <atomic>
#include <cmath>
#include <unordered_map>

#include "obs/shards.h"
#include "util/string_util.h"

namespace sds::obs {

std::string TimeSeriesSnapshot::ToJson(const std::string& indent) const {
  std::string out = "{\n";
  out += indent + "  \"window_s\": ";
  AppendNumber(&out, window_s);

  const auto append_series =
      [&](const std::map<std::string, std::map<int64_t, double>>& series,
          const std::string& pad) {
        out += "{";
        bool first = true;
        for (const auto& [name, windows] : series) {
          out += first ? "\n" : ",\n";
          first = false;
          out += pad + "  \"";
          AppendJsonEscaped(&out, name);
          out += "\": {";
          bool first_window = true;
          for (const auto& [window, value] : windows) {
            if (!first_window) out += ", ";
            first_window = false;
            out += '"';
            out += std::to_string(window);
            out += "\": ";
            AppendNumber(&out, value);
          }
          out += "}";
        }
        out += first ? "}" : "\n" + pad + "}";
      };

  out += ",\n" + indent + "  \"series\": ";
  append_series(total, indent + "  ");
  out += ",\n" + indent + "  \"points\": {";
  bool first = true;
  for (const auto& [point, series] : by_point) {
    out += first ? "\n" : ",\n";
    first = false;
    out += indent + "    \"" + std::to_string(point) + "\": ";
    append_series(series, indent + "    ");
  }
  out += first ? "}" : "\n" + indent + "  }";
  out += "\n" + indent + "}";
  return out;
}

std::string TimeSeriesSnapshot::ToCsv() const {
  std::string out = "series,point,window_start_s,value\n";
  const auto append_rows =
      [&](const std::map<std::string, std::map<int64_t, double>>& series,
          const std::string& point) {
        for (const auto& [name, windows] : series) {
          for (const auto& [window, value] : windows) {
            // Series names are literals in practice, but a comma or quote
            // would corrupt the row, so quote any name that needs it.
            if (name.find_first_of(",\"\n") != std::string::npos) {
              out += '"';
              for (const char c : name) {
                if (c == '"') out += '"';
                out += c;
              }
              out += '"';
            } else {
              out += name;
            }
            out += "," + point + ",";
            AppendNumber(&out, static_cast<double>(window) * window_s);
            out += ",";
            AppendNumber(&out, value);
            out += "\n";
          }
        }
      };
  append_rows(total, "");
  for (const auto& [point, series] : by_point) {
    append_rows(series, std::to_string(point));
  }
  return out;
}

#ifndef SDS_OBS_DISABLED

// ---------------------------------------------------------------------------
// Recording machinery (compiled out under SDS_OBS_DISABLED).
// ---------------------------------------------------------------------------

namespace {

std::atomic<double> g_window_s{kDefaultTimeSeriesWindowS};

struct TsKey {
  const char* name;
  int64_t window;
  int64_t point;
  bool operator==(const TsKey& other) const {
    return name == other.name && window == other.window &&
           point == other.point;
  }
};

struct TsKeyHash {
  size_t operator()(const TsKey& key) const {
    uint64_t x = reinterpret_cast<uintptr_t>(key.name) ^
                 (static_cast<uint64_t>(key.window) * 0x9e3779b97f4a7c15ull) ^
                 (static_cast<uint64_t>(key.point) * 0xff51afd7ed558ccdull);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

struct TsShard {
  std::unordered_map<TsKey, double, TsKeyHash> cells;
  void Clear() { cells.clear(); }
};

struct TsSink {
  using Shard = TsShard;
  using Retired = TimeSeriesSnapshot;
  static void Fold(const TsShard& shard, TimeSeriesSnapshot* snapshot) {
    for (const auto& [key, value] : shard.cells) {
      snapshot->total[key.name][key.window] += value;
      if (key.point != kNoPoint) {
        snapshot->by_point[key.point][key.name][key.window] += value;
      }
    }
  }
};
using TimeSeries = internal::Registry<TsSink>;

// Out of line, so TsCount's disabled early-out saves no registers.
[[gnu::noinline]] void TsCountSlow(const char* name, double sim_time_s,
                                   double delta) {
  const double window_s = g_window_s.load(std::memory_order_relaxed);
  const int64_t window =
      static_cast<int64_t>(std::floor(sim_time_s / window_s));
  TimeSeries::Local().cells[TsKey{name, window, CurrentPoint()}] += delta;
}

}  // namespace

void TsCount(const char* name, double sim_time_s, double delta) {
  if (!internal::Enabled()) return;
  TsCountSlow(name, sim_time_s, delta);
}

void SetTimeSeriesWindow(double seconds) {
  if (seconds > 0.0) g_window_s.store(seconds, std::memory_order_relaxed);
}

double TimeSeriesWindow() {
  return g_window_s.load(std::memory_order_relaxed);
}

TimeSeriesSnapshot SnapshotTimeSeries() {
  TimeSeriesSnapshot snapshot = TimeSeries::Snapshot();
  snapshot.window_s = g_window_s.load(std::memory_order_relaxed);
  return snapshot;
}

void ResetTimeSeries() { TimeSeries::Reset(); }

bool WriteTimeSeriesCsv(const std::string& path) {
  return WriteStringToFile(path, SnapshotTimeSeries().ToCsv());
}

#endif  // !SDS_OBS_DISABLED

}  // namespace sds::obs
