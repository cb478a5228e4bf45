#ifndef SDS_BENCH_BENCH_UTIL_H_
#define SDS_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/workload.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/flightrec.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace sds::bench {

/// Prints a section header in a consistent style across bench binaries.
inline void PrintHeader(const char* experiment, const char* paper_artifact) {
  std::printf("=====================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_artifact);
  std::printf("=====================================================\n");
}

/// Common bench command line: `--smoke` shrinks the workload/grid for CI
/// (every bench writes BENCH_<name>.json). `--obs` turns the observability
/// layer on (metrics land in the report's "metrics" section). The output
/// flags each take a file path and imply `--obs`; one given as the last
/// argument, with no path, is an error (exit status 2):
///   --chrome-trace-out  Chrome trace-event JSON (Perfetto-loadable):
///                     stage spans, windowed counters and journeys
///   --timeseries-out  simulated-clock windowed counters, CSV
///   --journeys-out    sampled per-request journeys, JSON
///   --prom-out        metrics in Prometheus text exposition
/// `--audit` implies `--obs` and arms the flow-conservation ledger
/// (obs/audit.h): every registered invariant is re-checked at sweep joins
/// and end of run, a violation dumps the flight recorder and fails the
/// bench. `--flightrec-out PATH` overrides the dump path (implies
/// `--audit`). `--stream` generates the workload trace on the fly instead
/// of materialising it. Any other argument is an error (exit status 2);
/// micro_kernels parses its own `--json` and `--benchmark_*` flags.
struct BenchArgs {
  bool smoke = false;
  bool obs = false;
  bool audit = false;
  bool stream = false;
  std::string chrome_trace_out;
  std::string timeseries_out;
  std::string journeys_out;
  std::string prom_out;
  std::string flightrec_out;
};

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  const auto path_flag = [&](int* i, const char* flag,
                             std::string* out) -> bool {
    if (std::strcmp(argv[*i], flag) != 0) return false;
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a path\n", flag);
      std::exit(2);
    }
    *out = argv[++*i];
    args.obs = true;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--obs") == 0) {
      args.obs = true;
    } else if (std::strcmp(argv[i], "--audit") == 0) {
      args.audit = true;
    } else if (std::strcmp(argv[i], "--stream") == 0) {
      args.stream = true;
    } else if (!path_flag(&i, "--chrome-trace-out", &args.chrome_trace_out) &&
               !path_flag(&i, "--timeseries-out", &args.timeseries_out) &&
               !path_flag(&i, "--journeys-out", &args.journeys_out) &&
               !path_flag(&i, "--prom-out", &args.prom_out) &&
               !path_flag(&i, "--flightrec-out", &args.flightrec_out)) {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (!args.flightrec_out.empty()) args.audit = true;
  if (args.audit) args.obs = true;
  if (args.obs) obs::SetEnabled(true);
  if (args.audit) {
    obs::SetAuditEnabled(true);
    obs::InstallFlightSignalHandler();
    if (!args.flightrec_out.empty()) {
      obs::SetFlightDumpPath(args.flightrec_out);
    }
  }
  return args;
}

/// Peak resident set size (VmHWM) of this process in bytes, read from
/// /proc/self/status. Returns 0 where the proc interface is unavailable.
/// This is the high-water mark: monotone over the process lifetime, so
/// scale sweeps measure their smallest configuration first.
inline uint64_t PeakRssBytes() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  uint64_t kb = 0;
  char line[256];
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB",
                    reinterpret_cast<unsigned long long*>(&kb)) == 1) {
      break;
    }
  }
  std::fclose(status);
  return kb * 1024;
}

/// Resets the VmHWM high-water mark to the current resident set (Linux
/// /proc/self/clear_refs). Returns false where unsupported; callers must
/// then treat PeakRssBytes() as monotone over the process lifetime.
inline bool ResetPeakRss() {
  std::FILE* clear_refs = std::fopen("/proc/self/clear_refs", "w");
  if (clear_refs == nullptr) return false;
  const bool ok = std::fputs("5", clear_refs) >= 0;
  return std::fclose(clear_refs) == 0 && ok;
}

/// Wall-clock stopwatch for the stage timings below.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Machine-readable timing/metric sink: collects named doubles and writes
/// them as `BENCH_<name>.json` in the working directory (flat object, one
/// key per metric, insertion order). CI uploads these as artifacts and
/// diffs them across commits; docs/PERF.md describes the workflow.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void Metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Declares how many simulated requests the bench replayed end to end
  /// (summed across sweep points / simulation runs). Write() derives
  /// `throughput_rps` from it and the report's lifetime.
  void RequestsProcessed(double requests) { requests_ += requests; }

  /// Attaches an observability snapshot; Write() emits it as a nested
  /// "metrics" object after the flat timing keys.
  void ObsSnapshot(const obs::MetricsSnapshot& snapshot) {
    obs_json_ = snapshot.ToJson("  ");
  }

  /// Times `fn()` and records the elapsed seconds under `<key>_s`.
  template <typename Fn>
  auto Stage(const std::string& key, Fn&& fn) {
    Stopwatch watch;
    auto result = fn();
    Metric(key + "_s", watch.Seconds());
    return result;
  }

  /// Writes BENCH_<name>.json; returns false (and reports the error) on
  /// I/O failure.
  bool Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(out, "{\n  \"name\": \"%s\"",
                 JsonEscape(name_).c_str());
    for (const auto& [key, value] : metrics_) {
      std::fprintf(out, ",\n  \"%s\": %.17g", JsonEscape(key).c_str(),
                   value);
    }
    // Uniform footprint/throughput keys, present in every report:
    // tools/bench_history and the cross-commit diffs key on them.
    const double elapsed = lifetime_.Seconds();
    std::fprintf(out, ",\n  \"requests_replayed\": %.17g", requests_);
    std::fprintf(out, ",\n  \"throughput_rps\": %.17g",
                 elapsed > 0.0 ? requests_ / elapsed : 0.0);
    std::fprintf(out, ",\n  \"peak_rss_bytes\": %.17g",
                 static_cast<double>(PeakRssBytes()));
    if (!obs_json_.empty()) {
      std::fprintf(out, ",\n  \"metrics\": %s", obs_json_.c_str());
    }
    std::fprintf(out, "\n}\n");
    const bool ok = std::ferror(out) == 0;
    if (std::fclose(out) != 0 || !ok) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  Stopwatch lifetime_;
  double requests_ = 0.0;
  std::vector<std::pair<std::string, double>> metrics_;
  std::string obs_json_;
};

/// Call right before `report->Write()`: when `--obs` was passed, snapshots
/// the metrics registry into the report's "metrics" section and writes
/// every requested observability output file (`--chrome-trace-out`,
/// `--timeseries-out`, `--journeys-out`, `--prom-out`). No-op (and no
/// "metrics" key emitted) when observability is off, including builds with
/// the layer compiled out. Returns false if any requested file could not
/// be written; each failure is reported on stderr.
inline bool FinishObsReport(BenchReport* report, const BenchArgs& args) {
  if (!args.obs || !obs::Enabled()) return true;
  size_t audit_violations = 0;
  if (args.audit) {
    // Final ledger checkpoint over the whole run; sweep joins have already
    // checked intermediate states. The count lands in the report so tools can
    // assert on it, and FinishBench fails the bench when it is non-zero.
    audit_violations = obs::AuditCheckpoint("end-of-run");
    report->Metric("audit_violations",
                   static_cast<double>(audit_violations));
    report->Metric("audit_invariants",
                   static_cast<double>(obs::RegisteredAuditInvariants().size()));
  }
  report->ObsSnapshot(obs::SnapshotMetrics());
  bool ok = true;
  const auto write_output = [&ok](const std::string& path, bool written) {
    if (path.empty()) return;
    if (written) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      ok = false;
    }
  };
  if (!args.chrome_trace_out.empty()) {
    write_output(args.chrome_trace_out,
                 obs::WriteChromeTrace(args.chrome_trace_out));
  }
  if (!args.timeseries_out.empty()) {
    write_output(args.timeseries_out,
                 obs::WriteTimeSeriesCsv(args.timeseries_out));
  }
  if (!args.journeys_out.empty()) {
    write_output(args.journeys_out, obs::WriteJourneys(args.journeys_out));
  }
  if (!args.prom_out.empty()) {
    write_output(args.prom_out, obs::WritePrometheus(args.prom_out));
  }
  if (audit_violations > 0) {
    std::fprintf(stderr,
                 "error: audit found %zu flow-conservation violation%s "
                 "(flight recorder: %s)\n",
                 audit_violations, audit_violations == 1 ? "" : "s",
                 obs::FlightDumpPath());
    ok = false;
  }
  return ok;
}

/// Standard bench epilogue: records the trace mode (`stream`: 1 under
/// `--stream`, else 0), attaches the observability outputs and writes the
/// BENCH_<name>.json report. Returns the process exit code — non-zero when
/// any requested output file failed to write.
inline int FinishBench(BenchReport* report, const BenchArgs& args) {
  report->Metric("stream", args.stream ? 1.0 : 0.0);
  const bool obs_ok = FinishObsReport(report, args);
  const bool report_ok = report->Write();
  return obs_ok && report_ok ? 0 : 1;
}

/// Checks one result invariant the bench's figure rests on. A violation
/// prints "error: <message>" on stderr and returns 1 (else 0); the bench
/// ORs the results and exits 1 after FinishBench has written its report,
/// so the report still shows the offending numbers.
[[gnu::format(printf, 2, 3)]] inline int Expect(bool holds,
                                                const char* format, ...) {
  if (holds) return 0;
  std::fputs("error: ", stderr);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  return 1;
}

/// Paper-scale workload config, or the small CI one under `--smoke`;
/// `--stream` makes every cursor generate the trace on the fly instead of
/// reading a materialised copy (same requests, same results, near-flat
/// RSS).
inline core::WorkloadConfig BenchWorkloadConfig(const BenchArgs& args) {
  core::WorkloadConfig config =
      args.smoke ? core::SmallConfig() : core::PaperScaleConfig();
  config.streaming = args.stream;
  return config;
}

/// The workload of BenchWorkloadConfig. Benches are separate processes, so
/// each builds it once; generation takes well under a second.
inline core::Workload MakeBenchWorkload(const BenchArgs& args) {
  return core::MakeWorkload(BenchWorkloadConfig(args));
}

/// Reads only the metadata both trace modes fill, so it prints the same
/// line with and without `--stream`.
inline void PrintWorkloadSummary(const core::Workload& workload) {
  std::printf("workload: %zu docs, %llu clean accesses, %u clients, "
              "%u days\n\n",
              workload.corpus().size(),
              static_cast<unsigned long long>(workload.filter_stats().kept),
              workload.num_clients(),
              static_cast<unsigned>(workload.clean_span() / kDay) + 1);
}

}  // namespace sds::bench

#endif  // SDS_BENCH_BENCH_UTIL_H_
