#ifndef SDS_OBS_SNAPSHOT_DIFF_H_
#define SDS_OBS_SNAPSHOT_DIFF_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace sds::obs {

/// \brief Metrics-snapshot differ: compares two BENCH/metrics JSON
/// documents under per-metric tolerance rules.
///
/// Pure functions (no recording, available in every build flavor): the
/// `obs_diff` CLI wraps them into the ctest gate that pins batch-vs-streaming
/// and obs-on-vs-off snapshots today, and sim-vs-live tomorrow.
///
/// Documents are flattened to `path/to/key -> number` with '/' separators
/// (metric names themselves contain '.', so '.' cannot separate); array
/// elements flatten by index, booleans as 0/1. String and null leaves are
/// not compared.

/// Glob matching for rule patterns: '*' and '?' match within one
/// '/'-separated segment, "**" matches across segments.
bool GlobMatch(std::string_view pattern, std::string_view text);

/// \brief One tolerance rule; the first matching rule wins.
struct DiffRule {
  enum class Kind {
    kExact,     ///< Values must be bit-identical.
    kRelative,  ///< |a-b| <= tolerance * max(|a|,|b|). Zero baselines stay
                ///  strict: 0 vs 0 passes, 0 vs x fails for tolerance < 1.
    kAbsolute,  ///< |a-b| <= tolerance.
    kIgnore,    ///< Key is skipped entirely (including missing-key checks).
  };
  std::string pattern;
  Kind kind = Kind::kExact;
  double tolerance = 0.0;
};

struct DiffOptions {
  /// Ordered rule list; keys matching no rule compare exact.
  std::vector<DiffRule> rules;
  /// When non-empty, only keys matching one of these globs are considered.
  std::vector<std::string> only;
};

/// \brief One divergent key.
struct DiffEntry {
  std::string key;
  bool in_a = false;
  bool in_b = false;
  double a = 0.0;
  double b = 0.0;
  std::string reason;  ///< "missing in A", "exact", "rel 0.05", ...

  std::string ToString() const;
};

struct DiffReport {
  std::vector<DiffEntry> divergent;
  size_t compared = 0;  ///< Keys checked (present on both sides).
  size_t ignored = 0;   ///< Keys skipped by ignore rules or `only`.

  bool Match() const { return divergent.empty(); }
};

/// Flattens every numeric leaf of `value` into `out` under '/'-joined
/// paths ("" prefix for the root). Booleans flatten as 0/1.
void FlattenJsonNumbers(const JsonValue& value, const std::string& prefix,
                        std::map<std::string, double>* out);
std::map<std::string, double> FlattenJsonNumbers(const JsonValue& value);

/// Diffs two parsed JSON documents under `options`. A key present on one
/// side only is a divergence unless ignored or filtered out.
DiffReport DiffSnapshots(const JsonValue& a, const JsonValue& b,
                         const DiffOptions& options);

/// The default rule set for BENCH_*.json reports: wall-clock stage
/// timings (top-level `*_s`), throughput and peak-RSS keys, and the
/// wall-clock sweep distributions are ignored; everything else — counters,
/// per-point counters, simulation results — must match exactly.
std::vector<DiffRule> BenchPresetRules();

}  // namespace sds::obs

#endif  // SDS_OBS_SNAPSHOT_DIFF_H_
