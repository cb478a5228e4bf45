#include "core/fidelity.h"

#include <unordered_set>

#include "core/experiments.h"
#include "trace/sessionizer.h"
#include "util/sim_time.h"

namespace sds::core {

FidelityReport ComputeFidelityReport(const Workload& workload) {
  FidelityReport report;
  report.accesses = workload.filter_stats().kept;
  report.days = workload.clean_span() / kDay;
  // Clients seen, and the remotely accessed documents of server 0.
  std::unordered_set<trace::ClientId> clients;
  std::unordered_set<trace::DocumentId> remote_docs;
  const auto cursor = workload.NewCleanCursor();
  trace::ForEachRequest(cursor.get(), [&](const trace::Request& r) {
    clients.insert(r.client);
    if (r.remote_client && r.server == 0 && r.doc != trace::kInvalidDocument) {
      remote_docs.insert(r.doc);
    }
  });
  report.clients_seen = static_cast<uint32_t>(clients.size());
  report.docs_remotely_accessed = static_cast<uint32_t>(remote_docs.size());
  cursor->Rewind();
  report.sessions = trace::CountSegments(cursor.get(), 30.0 * kMinute);
  report.requests_per_session =
      report.sessions == 0
          ? 0.0
          : static_cast<double>(report.accesses) /
                static_cast<double>(report.sessions);

  const Fig1Result fig1 = RunFig1(workload);
  report.top_half_percent_coverage = fig1.top_half_percent_coverage;
  report.top_ten_percent_coverage = fig1.top_ten_percent_coverage;
  report.docs_total = fig1.total_docs;
  report.accessed_bytes_fraction =
      fig1.total_bytes == 0
          ? 0.0
          : static_cast<double>(fig1.accessed_bytes) /
                static_cast<double>(fig1.total_bytes);

  const Tab1Result tab1 = RunTab1(workload);
  const double accessed = std::max(1u, tab1.accessed_docs);
  report.remote_class_share =
      tab1.classification.remotely_popular / accessed;
  report.local_class_share = tab1.classification.locally_popular / accessed;
  report.global_class_share =
      tab1.classification.globally_popular / accessed;
  report.local_update_rate = tab1.local_mean_update_rate;
  report.other_update_rate =
      (tab1.remote_mean_update_rate + tab1.global_mean_update_rate) / 2.0;

  const uint32_t history = static_cast<uint32_t>(report.days);
  const Fig4Result fig4 =
      RunFig4(workload, 5.0, 40, std::max(1u, history));
  report.dependency_pairs = fig4.total_pairs;
  report.peaks_detected = static_cast<uint32_t>(fig4.peak_centers.size());
  report.rightmost_peak =
      fig4.peak_centers.empty() ? 0.0 : fig4.peak_centers.back();
  return report;
}

Table FidelityReport::ToTable() const {
  Table table({"property", "paper (cs-www.bu.edu 1995)", "synthetic"});
  table.AddRow({"accesses (preprocessed)", "205,925",
                std::to_string(accesses)});
  table.AddRow({"clients", "8,474", std::to_string(clients_seen)});
  table.AddRow({"days", "~90", FormatDouble(days, 0)});
  table.AddRow({"sessions (30 min)", "20,000+", std::to_string(sessions)});
  table.AddRow({"requests per session", "~10",
                FormatDouble(requests_per_session, 1)});
  table.AddRow({"top 0.5% bytes -> request share", "69%",
                FormatPercent(top_half_percent_coverage, 1)});
  table.AddRow({"top 10% bytes -> request share", "91%",
                FormatPercent(top_ten_percent_coverage, 1)});
  table.AddRow({"documents on server", "2000+", std::to_string(docs_total)});
  table.AddRow({"documents remotely accessed", "656",
                std::to_string(docs_remotely_accessed)});
  table.AddRow({"accessed bytes share", "73%",
                FormatPercent(accessed_bytes_fraction, 1)});
  table.AddRow({"remotely popular share", "~10%",
                FormatPercent(remote_class_share, 1)});
  table.AddRow({"locally popular share", "~52%",
                FormatPercent(local_class_share, 1)});
  table.AddRow({"globally popular share", "~37%",
                FormatPercent(global_class_share, 1)});
  table.AddRow({"local update rate (/day)", "~0.02",
                FormatDouble(local_update_rate, 4)});
  table.AddRow({"other update rate (/day)", "<0.005",
                FormatDouble(other_update_rate, 4)});
  table.AddRow({"dependency pairs (Tw=5s)", "(50k accesses/month)",
                std::to_string(dependency_pairs)});
  table.AddRow({"1/k peaks detected", "several",
                std::to_string(peaks_detected)});
  table.AddRow({"rightmost peak (embedding)", "~1.0",
                FormatDouble(rightmost_peak, 2)});
  return table;
}

}  // namespace sds::core
