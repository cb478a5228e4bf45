/// \file
/// sdsim — command-line driver for the library: synthesize (or load) a
/// workload, run either protocol with the parameters given on the command
/// line, and print the metrics. The one-stop tool for exploring the
/// parameter space without writing code.
///
/// Usage:
///   sdsim [--scale=small|paper] [--seed=N] [--protocol=speculation|
///          dissemination|both]
///         [--tp=0.25] [--maxsize=BYTES] [--session-timeout=SECONDS]
///         [--cooperative] [--mode=push|hints|client|hybrid]
///         [--proxies=4] [--fraction=0.10] [--clf=access_log]
///
/// Examples:
///   sdsim --protocol=speculation --tp=0.1 --maxsize=29696
///   sdsim --protocol=dissemination --proxies=8 --fraction=0.04
///   sdsim --scale=paper --protocol=both --cooperative

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/experiments.h"
#include "core/workload.h"
#include "dissem/simulator.h"
#include "spec/simulator.h"
#include "trace/clf.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace sds;

/// Minimal --key=value / --flag parser.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (!StartsWith(arg, "--")) {
        std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
        ok_ = false;
        continue;
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg] = "1";
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  bool ok() const { return ok_; }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// Checks that every flag is known, and every flag given with a value
  /// that must be a number or one of a few words. A number must parse in full, be finite and lie in its
  /// range. Returns the first problem, or "" when all flags are valid.
  std::string Validate() const {
    const std::vector<std::string> known = {
        "scale", "seed", "protocol", "tp", "maxsize", "session-timeout",
        "cooperative", "mode", "proxies", "fraction", "exclude-mutable",
        "tailored", "clf", "help"};
    for (const auto& [key, value] : values_) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        return "unknown flag --" + key;
      }
    }
    struct Range {
      const char* key;
      bool integer;
      double lo;
      double hi;
      const char* want;
    };
    constexpr double kMax = std::numeric_limits<double>::max();
    constexpr Range kRanges[] = {
        {"seed", true, 0, kMax, "an integer >= 0"},
        {"tp", false, 0, 1, "a number in [0, 1]"},
        {"maxsize", true, 0, kMax, "an integer >= 0"},
        {"session-timeout", false, 0, kMax, "a finite number >= 0"},
        {"proxies", true, 1, UINT32_MAX, "an integer in [1, 2^32)"},
        {"fraction", false, 0, 1, "a number in [0, 1]"},
    };
    for (const Range& range : kRanges) {
      const auto it = values_.find(range.key);
      if (it == values_.end()) continue;
      double value = 0.0;
      if (range.integer) {
        const Result<int64_t> parsed = ParseInt64(it->second);
        if (!parsed.ok()) return Bad(range.key, range.want);
        value = static_cast<double>(parsed.value());
      } else {
        const Result<double> parsed = ParseDouble(it->second);
        if (!parsed.ok()) return Bad(range.key, range.want);
        value = parsed.value();
      }
      // NaN fails both comparisons, so test for the valid range.
      if (!(value >= range.lo && value <= range.hi)) {
        return Bad(range.key, range.want);
      }
    }
    const std::map<std::string, std::vector<std::string>> kWords = {
        {"scale", {"small", "paper"}},
        {"protocol", {"speculation", "dissemination", "both"}},
        {"mode", {"push", "hints", "client", "hybrid"}},
    };
    for (const auto& [key, words] : kWords) {
      const auto it = values_.find(key);
      if (it == values_.end()) continue;
      if (std::find(words.begin(), words.end(), it->second) == words.end()) {
        return Bad(key, "one of " + JoinStrings(words, "|"));
      }
    }
    return "";
  }

  /// Numeric flags are read only after Validate() passed.
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : ParseDouble(it->second).value();
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : ParseInt64(it->second).value();
  }

 private:
  std::string Bad(const std::string& key, const std::string& want) const {
    return "--" + key + "=" + values_.at(key) + ": expected " + want;
  }

  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

int RunSpeculation(const core::Workload& workload, const trace::Trace& trace,
                   const Args& args) {
  spec::SpeculationSimulator sim(&workload.corpus(), &trace);
  spec::SpeculationConfig config = core::BaselineSpecConfig();
  config.policy.threshold = args.GetDouble("tp", 0.25);
  config.policy.max_size =
      static_cast<uint64_t>(args.GetInt("maxsize", 0));
  if (args.Has("session-timeout")) {
    config.cache.session_timeout = args.GetDouble("session-timeout", 0.0);
  }
  config.cooperative_clients = args.Has("cooperative");
  const std::string mode = args.Get("mode", "push");
  if (mode == "hints") {
    config.mode = spec::ServiceMode::kServerHints;
  } else if (mode == "client") {
    config.mode = spec::ServiceMode::kClientPrefetch;
  } else if (mode == "hybrid") {
    config.mode = spec::ServiceMode::kHybrid;
  }

  const auto m = sim.Evaluate(config);
  std::printf("speculative service (%s, Tp=%.2f%s%s)\n",
              spec::ServiceModeToString(config.mode),
              config.policy.threshold,
              config.policy.max_size > 0 ? ", MaxSize set" : "",
              config.cooperative_clients ? ", cooperative" : "");
  Table table({"metric", "value"});
  table.AddRow({"extra traffic", FormatPercent(m.extra_traffic, 1)});
  table.AddRow({"server load reduction",
                FormatPercent(1.0 - m.server_load_ratio, 1)});
  table.AddRow({"service time reduction",
                FormatPercent(1.0 - m.service_time_ratio, 1)});
  table.AddRow({"miss rate reduction",
                FormatPercent(1.0 - m.miss_rate_ratio, 1)});
  table.AddRow({"speculative pushes",
                std::to_string(m.with_speculation.speculative_docs_sent)});
  table.AddRow(
      {"wasted bytes",
       FormatBytes(m.with_speculation.wasted_speculative_bytes)});
  std::printf("%s\n", table.ToAlignedString().c_str());
  return 0;
}

int RunDissemination(const core::Workload& workload,
                     const trace::Trace& trace, const Args& args) {
  dissem::DisseminationConfig config;
  config.num_proxies = static_cast<uint32_t>(args.GetInt("proxies", 4));
  config.dissemination_fraction = args.GetDouble("fraction", 0.10);
  config.exclude_mutable = args.Has("exclude-mutable");
  config.tailored_per_proxy = args.Has("tailored");
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 42)) + 1);
  const dissem::PreparedDissemination prepared = dissem::PrepareDissemination(
      workload.corpus(), trace, workload.topology(), 0, config.train_fraction);
  const auto result =
      SimulateDissemination(prepared, config, &rng, &workload.updates());

  std::printf("dissemination (%u proxies, top %s of bytes%s)\n",
              config.num_proxies,
              FormatPercent(config.dissemination_fraction, 0).c_str(),
              config.exclude_mutable ? ", immutable only" : "");
  Table table({"metric", "value"});
  table.AddRow({"bytes x hops saved",
                FormatPercent(result.saved_fraction, 1)});
  table.AddRow({"requests intercepted",
                FormatPercent(result.proxy_hit_fraction, 1)});
  table.AddRow({"storage per proxy",
                FormatBytes(static_cast<double>(
                    result.storage_per_proxy_bytes))});
  table.AddRow({"stale proxy serves",
                FormatPercent(result.stale_fraction, 2)});
  std::printf("%s\n", table.ToAlignedString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (!args.ok() || args.Has("help")) {
    std::fprintf(stderr,
                 "usage: sdsim [--scale=small|paper] [--seed=N]\n"
                 "  [--protocol=speculation|dissemination|both]\n"
                 "  [--tp=P] [--maxsize=BYTES] [--session-timeout=SECS]\n"
                 "  [--cooperative] [--mode=push|hints|client|hybrid]\n"
                 "  [--proxies=K] [--fraction=F] [--exclude-mutable]\n"
                 "  [--tailored] [--clf=FILE]\n");
    return args.Has("help") ? 0 : 2;
  }
  if (const std::string problem = args.Validate(); !problem.empty()) {
    std::fprintf(stderr, "error: %s\n", problem.c_str());
    return 2;
  }

  core::WorkloadConfig config = args.Get("scale", "small") == "paper"
                                    ? core::PaperScaleConfig()
                                    : core::SmallConfig();
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const core::Workload workload = core::MakeWorkload(config);

  // Optionally replace the synthetic trace with a parsed CLF log.
  std::optional<trace::Trace> from_clf;
  if (args.Has("clf")) {
    const auto parsed =
        trace::ReadClfFile(args.Get("clf", ""), workload.corpus());
    if (!parsed.ok()) {
      std::fprintf(stderr, "cannot read CLF log: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    from_clf = FilterTrace(parsed.value());
  }
  const trace::Trace& replay = from_clf ? *from_clf : workload.clean();

  std::printf("workload: %zu docs, %zu accesses, seed %llu\n\n",
              workload.corpus().size(), replay.size(),
              static_cast<unsigned long long>(config.seed));

  const std::string protocol = args.Get("protocol", "both");
  int rc = 0;
  if (protocol == "speculation" || protocol == "both") {
    rc |= RunSpeculation(workload, replay, args);
  }
  if (protocol == "dissemination" || protocol == "both") {
    rc |= RunDissemination(workload, replay, args);
  }
  return rc;
}
