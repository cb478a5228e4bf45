// obs_diff: diffs two BENCH/metrics JSON snapshots under per-metric
// tolerance rules and exits non-zero on divergence.
//
// This is the ctest gate that pins batch-vs-streaming and obs-on-vs-off
// snapshots against each other (and, once the live serving mode lands,
// sim-vs-live). Counters compare exactly by default; wall-clock and RSS
// keys are noise and are ignored by the bench preset.
//
// Usage:
//   obs_diff A.json B.json [options]
// Options (rules apply in command-line order; first match wins):
//   --preset bench     append the BENCH report rule set (ignore *_s,
//                      throughput_rps, peak_rss_bytes, wall-clock dists)
//   --only GLOB        consider only keys matching GLOB (repeatable)
//   --ignore GLOB      skip keys matching GLOB (repeatable)
//   --exact GLOB       keys matching GLOB must be bit-identical
//   --rel GLOB=TOL     |a-b| <= TOL * max(|a|,|b|)
//   --abs GLOB=TOL     |a-b| <= TOL
//   --max-print N      print at most N divergent keys (default 50)
// Globs use '/' as the path separator ('*'/'?' stay within a segment,
// "**" crosses); flattened keys look like "metrics/counters/spec.runs".
//
// Exit codes: 0 = match, 1 = divergence, 2 = usage or I/O error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/snapshot_diff.h"
#include "util/json.h"

namespace {

using sds::JsonValue;
using sds::ParseJsonFile;
using sds::Result;
using sds::obs::BenchPresetRules;
using sds::obs::DiffOptions;
using sds::obs::DiffReport;
using sds::obs::DiffRule;
using sds::obs::DiffSnapshots;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s A.json B.json [--preset bench] [--only GLOB] "
               "[--ignore GLOB] [--exact GLOB] [--rel GLOB=TOL] "
               "[--abs GLOB=TOL] [--max-print N]\n",
               argv0);
  return 2;
}

/// Splits "GLOB=TOL"; returns false on a missing or malformed tolerance.
bool SplitToleranceArg(const char* arg, std::string* pattern, double* tol) {
  const char* eq = std::strrchr(arg, '=');
  if (eq == nullptr || eq == arg) return false;
  char* end = nullptr;
  *tol = std::strtod(eq + 1, &end);
  if (end == eq + 1 || *end != '\0' || *tol < 0.0) return false;
  pattern->assign(arg, eq - arg);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage(argv[0]);
  const std::string path_a = argv[1];
  const std::string path_b = argv[2];
  DiffOptions options;
  size_t max_print = 50;

  for (int i = 3; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--preset") == 0) {
      const char* value = need_value("--preset");
      if (value == nullptr) return 2;
      if (std::strcmp(value, "bench") != 0) {
        std::fprintf(stderr, "error: unknown preset '%s'\n", value);
        return 2;
      }
      for (DiffRule& rule : BenchPresetRules()) {
        options.rules.push_back(std::move(rule));
      }
    } else if (std::strcmp(argv[i], "--only") == 0) {
      const char* value = need_value("--only");
      if (value == nullptr) return 2;
      options.only.emplace_back(value);
    } else if (std::strcmp(argv[i], "--ignore") == 0) {
      const char* value = need_value("--ignore");
      if (value == nullptr) return 2;
      options.rules.push_back({value, DiffRule::Kind::kIgnore, 0.0});
    } else if (std::strcmp(argv[i], "--exact") == 0) {
      const char* value = need_value("--exact");
      if (value == nullptr) return 2;
      options.rules.push_back({value, DiffRule::Kind::kExact, 0.0});
    } else if (std::strcmp(argv[i], "--rel") == 0 ||
               std::strcmp(argv[i], "--abs") == 0) {
      const bool relative = std::strcmp(argv[i], "--rel") == 0;
      const char* value = need_value(relative ? "--rel" : "--abs");
      if (value == nullptr) return 2;
      std::string pattern;
      double tol = 0.0;
      if (!SplitToleranceArg(value, &pattern, &tol)) {
        std::fprintf(stderr, "error: expected GLOB=TOL, got '%s'\n", value);
        return 2;
      }
      options.rules.push_back({std::move(pattern),
                               relative ? DiffRule::Kind::kRelative
                                        : DiffRule::Kind::kAbsolute,
                               tol});
    } else if (std::strcmp(argv[i], "--max-print") == 0) {
      const char* value = need_value("--max-print");
      if (value == nullptr) return 2;
      max_print = static_cast<size_t>(std::strtoul(value, nullptr, 10));
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  const Result<JsonValue> a = ParseJsonFile(path_a);
  if (!a.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path_a.c_str(),
                 a.status().ToString().c_str());
    return 2;
  }
  const Result<JsonValue> b = ParseJsonFile(path_b);
  if (!b.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path_b.c_str(),
                 b.status().ToString().c_str());
    return 2;
  }

  const DiffReport report = DiffSnapshots(a.value(), b.value(), options);
  if (report.Match()) {
    std::printf("obs_diff: match — %zu keys compared, %zu ignored\n",
                report.compared, report.ignored);
    return 0;
  }
  std::printf("obs_diff: DIVERGENCE — %zu divergent keys "
              "(%zu compared, %zu ignored)\n",
              report.divergent.size(), report.compared, report.ignored);
  size_t printed = 0;
  for (const auto& entry : report.divergent) {
    if (printed++ >= max_print) {
      std::printf("  ... %zu more\n", report.divergent.size() - max_print);
      break;
    }
    std::printf("  %s\n", entry.ToString().c_str());
  }
  return 1;
}
