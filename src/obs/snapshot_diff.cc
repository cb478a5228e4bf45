#include "obs/snapshot_diff.h"

#include <cmath>

#include "util/string_util.h"

namespace sds::obs {

namespace {

/// Matches `pattern` against `text` where '*'/'?' stop at '/' and "**"
/// crosses segments. Classic backtracking; patterns and keys are short.
bool MatchFrom(std::string_view pattern, std::string_view text) {
  while (!pattern.empty()) {
    if (pattern.size() >= 2 && pattern[0] == '*' && pattern[1] == '*') {
      const std::string_view rest = pattern.substr(2);
      if (rest.empty()) return true;
      for (size_t i = 0; i <= text.size(); ++i) {
        if (MatchFrom(rest, text.substr(i))) return true;
      }
      return false;
    }
    if (pattern[0] == '*') {
      const std::string_view rest = pattern.substr(1);
      for (size_t i = 0; i <= text.size(); ++i) {
        if (MatchFrom(rest, text.substr(i))) return true;
        if (i < text.size() && text[i] == '/') break;
      }
      return false;
    }
    if (text.empty()) return false;
    if (pattern[0] == '?') {
      if (text[0] == '/') return false;
    } else if (pattern[0] != text[0]) {
      return false;
    }
    pattern.remove_prefix(1);
    text.remove_prefix(1);
  }
  return text.empty();
}

const DiffRule* FirstMatch(const std::vector<DiffRule>& rules,
                           const std::string& key) {
  for (const DiffRule& rule : rules) {
    if (GlobMatch(rule.pattern, key)) return &rule;
  }
  return nullptr;
}

bool PassesOnly(const std::vector<std::string>& only,
                const std::string& key) {
  if (only.empty()) return true;
  for (const std::string& pattern : only) {
    if (GlobMatch(pattern, key)) return true;
  }
  return false;
}

}  // namespace

bool GlobMatch(std::string_view pattern, std::string_view text) {
  return MatchFrom(pattern, text);
}

std::string DiffEntry::ToString() const {
  std::string out = key + ": ";
  if (!in_a) {
    out += "missing in A, B = ";
    AppendNumber(&out, b);
  } else if (!in_b) {
    out += "A = ";
    AppendNumber(&out, a);
    out += ", missing in B";
  } else {
    out += "A = ";
    AppendNumber(&out, a);
    out += ", B = ";
    AppendNumber(&out, b);
    out += " (" + reason + ")";
  }
  return out;
}

void FlattenJsonNumbers(const JsonValue& value, const std::string& prefix,
                        std::map<std::string, double>* out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNumber:
      (*out)[prefix] = value.AsNumber();
      break;
    case JsonValue::Kind::kBool:
      (*out)[prefix] = value.AsBool() ? 1.0 : 0.0;
      break;
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : value.members()) {
        FlattenJsonNumbers(member,
                           prefix.empty() ? key : prefix + "/" + key, out);
      }
      break;
    case JsonValue::Kind::kArray: {
      size_t i = 0;
      for (const JsonValue& item : value.items()) {
        FlattenJsonNumbers(
            item, prefix.empty() ? std::to_string(i)
                                 : prefix + "/" + std::to_string(i),
            out);
        ++i;
      }
      break;
    }
    case JsonValue::Kind::kString:
    case JsonValue::Kind::kNull:
      break;
  }
}

std::map<std::string, double> FlattenJsonNumbers(const JsonValue& value) {
  std::map<std::string, double> out;
  FlattenJsonNumbers(value, "", &out);
  return out;
}

DiffReport DiffSnapshots(const JsonValue& a, const JsonValue& b,
                         const DiffOptions& options) {
  const std::map<std::string, double> flat_a = FlattenJsonNumbers(a);
  const std::map<std::string, double> flat_b = FlattenJsonNumbers(b);
  DiffReport report;

  const auto consider = [&](const std::string& key, const double* va,
                            const double* vb) {
    if (!PassesOnly(options.only, key)) {
      ++report.ignored;
      return;
    }
    const DiffRule* rule = FirstMatch(options.rules, key);
    if (rule != nullptr && rule->kind == DiffRule::Kind::kIgnore) {
      ++report.ignored;
      return;
    }
    DiffEntry entry;
    entry.key = key;
    entry.in_a = va != nullptr;
    entry.in_b = vb != nullptr;
    if (va != nullptr) entry.a = *va;
    if (vb != nullptr) entry.b = *vb;
    if (va == nullptr || vb == nullptr) {
      entry.reason = va == nullptr ? "missing in A" : "missing in B";
      report.divergent.push_back(std::move(entry));
      return;
    }
    ++report.compared;
    const double x = *va;
    const double y = *vb;
    bool ok = false;
    const DiffRule::Kind kind =
        rule != nullptr ? rule->kind : DiffRule::Kind::kExact;
    switch (kind) {
      case DiffRule::Kind::kExact:
        ok = x == y || (std::isnan(x) && std::isnan(y));
        entry.reason = "exact";
        break;
      case DiffRule::Kind::kRelative: {
        const double scale = std::max(std::fabs(x), std::fabs(y));
        ok = std::fabs(x - y) <= rule->tolerance * scale;
        entry.reason = "rel ";
        AppendNumber(&entry.reason, rule->tolerance);
        break;
      }
      case DiffRule::Kind::kAbsolute:
        ok = std::fabs(x - y) <= rule->tolerance;
        entry.reason = "abs ";
        AppendNumber(&entry.reason, rule->tolerance);
        break;
      case DiffRule::Kind::kIgnore:
        ok = true;  // unreachable; handled above
        break;
    }
    if (!ok) report.divergent.push_back(std::move(entry));
  };

  auto it_a = flat_a.begin();
  auto it_b = flat_b.begin();
  while (it_a != flat_a.end() || it_b != flat_b.end()) {
    if (it_b == flat_b.end() ||
        (it_a != flat_a.end() && it_a->first < it_b->first)) {
      consider(it_a->first, &it_a->second, nullptr);
      ++it_a;
    } else if (it_a == flat_a.end() || it_b->first < it_a->first) {
      consider(it_b->first, nullptr, &it_b->second);
      ++it_b;
    } else {
      consider(it_a->first, &it_a->second, &it_b->second);
      ++it_a;
      ++it_b;
    }
  }
  return report;
}

std::vector<DiffRule> BenchPresetRules() {
  // Wall-clock and footprint keys are machine noise; everything else in a
  // BENCH report is a deterministic function of (workload, config, seed).
  // '*' does not cross '/', so top-level "*_s" stage timings are ignored
  // without touching sim-time counters like metrics/counters/queue.busy_s.
  return {
      {"*_s", DiffRule::Kind::kIgnore, 0.0},
      {"throughput_rps", DiffRule::Kind::kIgnore, 0.0},
      {"peak_rss_bytes", DiffRule::Kind::kIgnore, 0.0},
      {"*_rps", DiffRule::Kind::kIgnore, 0.0},
      {"*_rss_bytes", DiffRule::Kind::kIgnore, 0.0},
      {"metrics/distributions/sweep.point_wall_s/**",
       DiffRule::Kind::kIgnore, 0.0},
      {"metrics/distributions/sweep.point_queue_s/**",
       DiffRule::Kind::kIgnore, 0.0},
  };
}

}  // namespace sds::obs
