// bench_history: appends headline numbers from BENCH_*.json reports to a
// committed trajectory file, so performance history travels with the repo
// instead of living in CI artifact retention windows.
//
// Usage:
//   bench_history --label LABEL [--out BENCH_TRAJECTORY.json] BENCH.json...
//
// For each input report it extracts the headline numbers — wall (sum of the
// top-level *_s stage timings), requests_replayed, throughput_rps and
// peak_rss_bytes — and appends one entry per report to the `runs` array of
// the output file, creating it if absent. Every bench report carries the
// last three keys; a report that lacks one, or whose peak_rss_bytes is not
// positive, is rejected rather than recorded as zero. A report written with
// `--stream` (its `stream` key is non-zero) is named `<bench>+stream`, so
// rows of the two trace modes never mix. Existing entries are preserved
// verbatim as parsed values (older rows may lack keys), so the file only
// ever grows.
//
// Exit codes: 0 = appended, 2 = usage, I/O or report error.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/string_util.h"

namespace {

using sds::JsonValue;
using sds::ParseJsonFile;
using sds::Result;

struct RunEntry {
  std::string label;
  std::string bench;
  double wall_s = 0.0;
  double requests_replayed = 0.0;
  double throughput_rps = 0.0;
  double peak_rss_bytes = 0.0;
};

void AppendEntryJson(std::string* out, const RunEntry& entry) {
  *out += "    {\"label\": \"";
  sds::AppendJsonEscaped(out, entry.label);
  *out += "\", \"bench\": \"";
  sds::AppendJsonEscaped(out, entry.bench);
  *out += "\", \"wall_s\": ";
  sds::AppendNumber(out, entry.wall_s);
  *out += ", \"requests_replayed\": ";
  sds::AppendNumber(out, entry.requests_replayed);
  *out += ", \"throughput_rps\": ";
  sds::AppendNumber(out, entry.throughput_rps);
  *out += ", \"peak_rss_bytes\": ";
  sds::AppendNumber(out, entry.peak_rss_bytes);
  *out += "}";
}

/// Reads prior entries from `path`'s `runs` array; a missing file is an
/// empty history, a malformed one is an error (never clobber silently).
bool LoadHistory(const std::string& path, std::vector<RunEntry>* runs,
                 bool* existed) {
  std::ifstream probe(path);
  *existed = static_cast<bool>(probe);
  if (!*existed) return true;
  probe.close();
  const Result<JsonValue> parsed = ParseJsonFile(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  const JsonValue* entries = parsed.value().Find("runs");
  if (entries == nullptr || entries->kind() != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "error: %s: no \"runs\" array\n", path.c_str());
    return false;
  }
  for (const JsonValue& item : entries->items()) {
    RunEntry entry;
    if (const JsonValue* v = item.Find("label")) entry.label = v->AsString();
    if (const JsonValue* v = item.Find("bench")) entry.bench = v->AsString();
    if (const JsonValue* v = item.Find("wall_s")) entry.wall_s = v->AsNumber();
    if (const JsonValue* v = item.Find("requests_replayed")) {
      entry.requests_replayed = v->AsNumber();
    }
    if (const JsonValue* v = item.Find("throughput_rps")) {
      entry.throughput_rps = v->AsNumber();
    }
    if (const JsonValue* v = item.Find("peak_rss_bytes")) {
      entry.peak_rss_bytes = v->AsNumber();
    }
    runs->push_back(std::move(entry));
  }
  return true;
}

bool ExtractEntry(const std::string& path, const std::string& label,
                  RunEntry* entry) {
  const Result<JsonValue> parsed = ParseJsonFile(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  const JsonValue& report = parsed.value();
  if (report.kind() != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "error: %s: not a JSON object\n", path.c_str());
    return false;
  }
  entry->label = label;
  if (const JsonValue* v = report.Find("name")) {
    entry->bench = v->AsString();
  } else {
    entry->bench = path;
  }
  if (const JsonValue* v = report.Find("stream");
      v != nullptr && v->kind() == JsonValue::Kind::kNumber &&
      v->AsNumber() != 0.0) {
    entry->bench += "+stream";
  }
  // Wall = the top-level total_s stage timing when present; otherwise the
  // sum of the disjoint per-stage *_s keys (workload_s, run_s, ...).
  if (const JsonValue* total = report.Find("total_s")) {
    entry->wall_s = total->AsNumber();
  } else {
    for (const auto& [key, member] : report.members()) {
      if (key.size() > 2 && key.compare(key.size() - 2, 2, "_s") == 0 &&
          member.kind() == JsonValue::Kind::kNumber) {
        entry->wall_s += member.AsNumber();
      }
    }
  }
  for (const auto& [key, field] :
       {std::pair{"requests_replayed", &entry->requests_replayed},
        std::pair{"throughput_rps", &entry->throughput_rps},
        std::pair{"peak_rss_bytes", &entry->peak_rss_bytes}}) {
    const JsonValue* v = report.Find(key);
    if (v == nullptr || v->kind() != JsonValue::Kind::kNumber) {
      std::fprintf(stderr, "error: %s: no numeric \"%s\"\n", path.c_str(),
                   key);
      return false;
    }
    *field = v->AsNumber();
  }
  if (entry->peak_rss_bytes <= 0.0) {
    std::fprintf(stderr, "error: %s: peak_rss_bytes %g is not positive\n",
                 path.c_str(), entry->peak_rss_bytes);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string label;
  std::string out_path = "BENCH_TRAJECTORY.json";
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return 2;
    } else {
      inputs.emplace_back(argv[i]);
    }
  }
  if (label.empty() || inputs.empty()) {
    std::fprintf(stderr,
                 "usage: %s --label LABEL [--out BENCH_TRAJECTORY.json] "
                 "BENCH.json...\n",
                 argv[0]);
    return 2;
  }

  std::vector<RunEntry> runs;
  bool existed = false;
  if (!LoadHistory(out_path, &runs, &existed)) return 2;
  const size_t prior = runs.size();
  for (const std::string& input : inputs) {
    RunEntry entry;
    if (!ExtractEntry(input, label, &entry)) return 2;
    runs.push_back(std::move(entry));
  }

  std::string json = "{\n  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    AppendEntryJson(&json, runs[i]);
    json += i + 1 < runs.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  if (!sds::WriteStringToFile(out_path, json)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("bench_history: %s %s with %zu entr%s (%zu total)\n",
              existed ? "extended" : "created", out_path.c_str(),
              runs.size() - prior, runs.size() - prior == 1 ? "y" : "ies",
              runs.size());
  return 0;
}
