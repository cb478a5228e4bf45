#include "trace/clf.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "trace/cursor.h"
#include "util/string_util.h"

namespace sds::trace {
namespace {

const char* const kMonthNames[12] = {"Jan", "Feb", "Mar", "Apr",
                                     "May", "Jun", "Jul", "Aug",
                                     "Sep", "Oct", "Nov", "Dec"};

// Howard Hinnant's civil-date algorithms (public domain).
int64_t DaysFromCivil(int64_t y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int64_t* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yr = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = yr + (*m <= 2);
}

const int64_t kEpochDays = DaysFromCivil(kTraceEpochYear, 1, 1);

Result<int> MonthFromName(std::string_view name) {
  for (int i = 0; i < 12; ++i) {
    if (name == kMonthNames[i]) return i + 1;
  }
  return Status::ParseError("bad month name: " + std::string(name));
}

/// Splits `input` on `delim` into exactly `n` fields (empty fields kept,
/// as SplitString does) without allocating; false if the field count
/// differs.
bool SplitExact(std::string_view input, char delim, std::string_view* out,
                size_t n) {
  size_t field = 0;
  while (true) {
    const size_t pos = input.find(delim);
    if (field == n) return false;  // more fields than requested
    if (pos == std::string_view::npos) {
      out[field++] = input;
      return field == n;
    }
    out[field++] = input.substr(0, pos);
    input.remove_prefix(pos + 1);
  }
}

std::string HostName(ClientId client, bool remote) {
  char buf[64];
  if (remote) {
    std::snprintf(buf, sizeof(buf), "h%u.org%u.example.com", client,
                  client % 97);
  } else {
    std::snprintf(buf, sizeof(buf), "h%u.cs.bu.edu", client);
  }
  return buf;
}

/// View core of ParseClfTime; `field` is the bracketed timestamp.
Result<SimTime> ParseClfTimeView(std::string_view field) {
  // [dd/Mon/yyyy:hh:mm:ss +zzzz]
  if (field.size() < 22 || field.front() != '[' || field.back() != ']') {
    return Status::ParseError("bad CLF time: " + std::string(field));
  }
  const std::string_view body = field.substr(1, field.size() - 2);
  const auto space = body.find(' ');
  const std::string_view datetime =
      space == std::string_view::npos ? body : body.substr(0, space);
  std::string_view parts[4];
  if (!SplitExact(datetime, ':', parts, 4)) {
    return Status::ParseError("bad CLF time: " + std::string(field));
  }
  std::string_view date[3];
  if (!SplitExact(parts[0], '/', date, 3)) {
    return Status::ParseError("bad CLF date: " + std::string(field));
  }
  SDS_ASSIGN_OR_RETURN(const int64_t day, ParseInt64(date[0]));
  SDS_ASSIGN_OR_RETURN(const int month, MonthFromName(date[1]));
  SDS_ASSIGN_OR_RETURN(const int64_t year, ParseInt64(date[2]));
  SDS_ASSIGN_OR_RETURN(const int64_t hh, ParseInt64(parts[1]));
  SDS_ASSIGN_OR_RETURN(const int64_t mm, ParseInt64(parts[2]));
  SDS_ASSIGN_OR_RETURN(const int64_t ss, ParseInt64(parts[3]));
  const int64_t days =
      DaysFromCivil(year, static_cast<unsigned>(month),
                    static_cast<unsigned>(day)) -
      kEpochDays;
  return static_cast<SimTime>(days * 86400 + hh * 3600 + mm * 60 + ss);
}

/// The client id and locality encoded in a synthetic-trace hostname.
Result<ClientId> ClientFromHost(std::string_view host, bool* remote) {
  if (host.size() < 2 || host[0] != 'h') {
    return Status::ParseError("unrecognized host: " + std::string(host));
  }
  size_t pos = 1;
  uint64_t id = 0;
  while (pos < host.size() && host[pos] >= '0' && host[pos] <= '9') {
    id = id * 10 + static_cast<uint64_t>(host[pos] - '0');
    ++pos;
  }
  if (pos == 1) {
    return Status::ParseError("unrecognized host: " + std::string(host));
  }
  *remote = !EndsWith(host, ".cs.bu.edu");
  return static_cast<ClientId>(id);
}

}  // namespace

std::string FormatClfTime(SimTime t) {
  const int64_t total_seconds = static_cast<int64_t>(t);
  const int64_t days = total_seconds / 86400;
  const int64_t secs = total_seconds - days * 86400;
  int64_t year;
  unsigned month, day;
  CivilFromDays(kEpochDays + days, &year, &month, &day);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%02u/%s/%04lld:%02lld:%02lld:%02lld +0000]",
                day, kMonthNames[month - 1], static_cast<long long>(year),
                static_cast<long long>(secs / 3600),
                static_cast<long long>((secs / 60) % 60),
                static_cast<long long>(secs % 60));
  return buf;
}

Result<SimTime> ParseClfTime(const std::string& field) {
  return ParseClfTimeView(field);
}

std::string FormatClfLine(const ClfRecord& record) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%s - - %s \"%s %s HTTP/1.0\" %d %llu",
                record.host.c_str(), FormatClfTime(record.time).c_str(),
                record.method.c_str(), record.path.c_str(), record.status,
                static_cast<unsigned long long>(record.bytes));
  return buf;
}

namespace {

/// Zero-copy form of ClfRecord: the string fields are views into the
/// parsed line and live only as long as it does.
struct ClfRecordView {
  std::string_view host;
  SimTime time = 0.0;
  std::string_view method;
  std::string_view path;
  int status = 0;
  uint64_t bytes = 0;
};

/// The CLF grammar; `out->host` etc. reference `line`.
Status ParseClfLineView(std::string_view line, ClfRecordView* out) {
  ClfRecordView record;
  // host ident user [date] "request" status bytes
  const auto sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) {
    return Status::ParseError("short CLF line");
  }
  record.host = line.substr(0, sp1);

  const auto lb = line.find('[', sp1);
  const auto rb = line.find(']', lb);
  if (lb == std::string_view::npos || rb == std::string_view::npos) {
    return Status::ParseError("no timestamp in CLF line: " +
                              std::string(line));
  }
  {
    Result<SimTime> time = ParseClfTimeView(line.substr(lb, rb - lb + 1));
    if (!time.ok()) return time.status();
    record.time = time.value();
  }

  const auto q1 = line.find('"', rb);
  const auto q2 = line.find('"', q1 + 1);
  if (q1 == std::string_view::npos || q2 == std::string_view::npos) {
    return Status::ParseError("no request field in CLF line: " +
                              std::string(line));
  }
  const std::string_view request = line.substr(q1 + 1, q2 - q1 - 1);
  // SplitString(request, ' ') >= 2 fields: method is everything up to the
  // first space, the path the (possibly empty) second field.
  const auto req_sp = request.find(' ');
  if (req_sp == std::string_view::npos) {
    return Status::ParseError("bad request field: " + std::string(request));
  }
  record.method = request.substr(0, req_sp);
  const std::string_view req_tail = request.substr(req_sp + 1);
  record.path = req_tail.substr(0, req_tail.find(' '));

  const std::string_view rest = StripWhitespace(line.substr(q2 + 1));
  const auto rest_sp = rest.find(' ');
  if (rest_sp == std::string_view::npos) {
    return Status::ParseError("no status/bytes: " + std::string(line));
  }
  const std::string_view status_field = rest.substr(0, rest_sp);
  const std::string_view rest_tail = rest.substr(rest_sp + 1);
  const std::string_view bytes_field =
      rest_tail.substr(0, rest_tail.find(' '));
  {
    Result<int64_t> status = ParseInt64(status_field);
    if (!status.ok()) return status.status();
    record.status = static_cast<int>(status.value());
  }
  if (bytes_field == "-") {
    record.bytes = 0;
  } else {
    Result<int64_t> bytes = ParseInt64(bytes_field);
    if (!bytes.ok()) return bytes.status();
    record.bytes = static_cast<uint64_t>(bytes.value());
  }
  *out = record;
  return Status::OK();
}

}  // namespace

Result<ClfRecord> ParseClfLine(const std::string& line) {
  ClfRecordView view;
  const Status status = ParseClfLineView(line, &view);
  if (!status.ok()) return status;
  ClfRecord record;
  record.host = std::string(view.host);
  record.time = view.time;
  record.method = std::string(view.method);
  record.path = std::string(view.path);
  record.status = view.status;
  record.bytes = view.bytes;
  return record;
}

std::vector<std::string> TraceToClf(const Trace& trace, const Corpus& corpus) {
  std::vector<std::string> lines;
  lines.reserve(trace.requests.size());
  for (const auto& r : trace.requests) {
    ClfRecord rec;
    rec.host = HostName(r.client, r.remote_client);
    rec.time = r.time;
    rec.method = "GET";
    rec.bytes = r.bytes;
    switch (r.kind) {
      case RequestKind::kDocument:
        rec.path = corpus.doc(r.doc).path;
        rec.status = 200;
        break;
      case RequestKind::kAlias:
        rec.path = "/alias" + corpus.doc(r.doc).path;
        rec.status = 200;
        break;
      case RequestKind::kNotFound:
        rec.path = "/missing/" + std::to_string(r.client % 1000) + ".html";
        rec.status = 404;
        rec.bytes = 0;
        break;
      case RequestKind::kScript:
        rec.path = "/cgi-bin/query?q=" + std::to_string(r.client % 100);
        rec.status = 200;
        break;
    }
    lines.push_back(FormatClfLine(rec));
  }
  return lines;
}

namespace {

/// Converts a parsed record into a Request (the rules of ClfLineReader).
Request RecordToRequest(const ClfRecordView& record, ClientId client,
                        bool remote, const Corpus& corpus,
                        std::string* path_scratch) {
  Request r;
  r.client = client;
  r.remote_client = remote;
  r.time = record.time;
  r.bytes = static_cast<uint32_t>(record.bytes);
  if (record.status == 404) {
    r.kind = RequestKind::kNotFound;
  } else if (StartsWith(record.path, "/cgi-bin/")) {
    r.kind = RequestKind::kScript;
  } else {
    std::string_view path = record.path;
    r.kind = RequestKind::kDocument;
    if (StartsWith(path, "/alias/")) {
      path = path.substr(6);  // strip "/alias"
      r.kind = RequestKind::kAlias;
    }
    path_scratch->assign(path);
    const auto doc = corpus.FindByPath(/*server=*/0, *path_scratch);
    if (doc.ok()) {
      r.doc = doc.value();
      r.server = corpus.doc(r.doc).server;
    } else {
      r.kind = RequestKind::kNotFound;
    }
  }
  return r;
}

}  // namespace

ClfLineReader::ClfLineReader(const Corpus* corpus,
                             const ClfReadOptions& options)
    : corpus_(corpus), options_(options) {}

bool ClfLineReader::Read(std::string_view line, size_t line_number,
                         Request* out) {
  if (StripWhitespace(line).empty()) return false;  // Blank: not counted.
  ++stats_.lines;
  const auto fail = [&](const Status& status) {
    if (options_.lenient) {
      ++stats_.skipped_lines;
    } else {
      error_ = Status::ParseError("line " + std::to_string(line_number) +
                                  ": " + status.message());
    }
    return false;
  };
  ClfRecordView record;
  if (const Status parsed = ParseClfLineView(line, &record); !parsed.ok()) {
    return fail(parsed);
  }
  bool remote = false;
  const Result<ClientId> client = ClientFromHost(record.host, &remote);
  if (!client.ok()) return fail(client.status());
  num_clients_ = std::max(num_clients_, client.value() + 1);
  *out = RecordToRequest(record, client.value(), remote, *corpus_,
                         &path_scratch_);
  return true;
}

void ClfLineReader::CountMetrics() const {
  if (!obs::Enabled()) return;
  obs::Count("trace.clf_lines", static_cast<double>(stats_.lines));
  obs::Count("trace.clf_skipped_lines",
             static_cast<double>(stats_.skipped_lines));
  obs::Count("trace.clf_requests",
             static_cast<double>(stats_.lines - stats_.skipped_lines));
}

Result<Trace> ClfToTrace(const std::vector<std::string>& lines,
                         const Corpus& corpus, const ClfReadOptions& options,
                         ClfReadStats* stats) {
  obs::SpanGuard span("trace.clf_to_trace");
  ClfLineReader reader(&corpus, options);
  Trace trace;
  trace.requests.reserve(lines.size());
  Request request;
  for (size_t i = 0; i < lines.size() && reader.error().ok(); ++i) {
    if (reader.Read(lines[i], i + 1, &request)) {
      trace.requests.push_back(request);
    }
  }
  if (stats != nullptr) *stats = reader.stats();
  SDS_RETURN_IF_ERROR(reader.error());
  trace.num_clients = reader.num_clients();
  trace.num_servers = corpus.num_servers();
  trace.SortByTime();
  reader.CountMetrics();
  return trace;
}

Status WriteClfFile(const std::string& path, const Trace& trace,
                    const Corpus& corpus) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  for (const auto& line : TraceToClf(trace, corpus)) out << line << '\n';
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<Trace> ReadClfFile(const std::string& path, const Corpus& corpus,
                          const ClfReadOptions& options, ClfReadStats* stats) {
  obs::SpanGuard span("trace.read_clf_file");
  ClfCursor cursor(path, &corpus, options,
                   /*reorder_window=*/std::numeric_limits<size_t>::max());
  Trace trace = Materialize(&cursor);
  if (stats != nullptr) *stats = cursor.stats();
  SDS_RETURN_IF_ERROR(cursor.status());
  return trace;
}

}  // namespace sds::trace
