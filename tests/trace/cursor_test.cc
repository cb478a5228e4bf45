#include "trace/cursor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/clf.h"
#include "trace/corpus.h"
#include "trace/filter.h"
#include "trace/generator.h"
#include "trace/link_graph.h"
#include "util/rng.h"

namespace sds::trace {
namespace {

// Exact (bit-identical) request equality: the streaming backends promise
// the *same* sequence as their batch counterparts, not an approximation.
void ExpectSameRequests(const std::vector<Request>& a,
                        const std::vector<Request>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].time, b[i].time) << i;
    ASSERT_EQ(a[i].client, b[i].client) << i;
    ASSERT_EQ(a[i].doc, b[i].doc) << i;
    ASSERT_EQ(a[i].server, b[i].server) << i;
    ASSERT_EQ(a[i].bytes, b[i].bytes) << i;
    ASSERT_EQ(a[i].kind, b[i].kind) << i;
    ASSERT_EQ(a[i].remote_client, b[i].remote_client) << i;
  }
}

void ExpectSameTrace(const Trace& a, const Trace& b) {
  EXPECT_EQ(a.num_clients, b.num_clients);
  EXPECT_EQ(a.num_servers, b.num_servers);
  ExpectSameRequests(a.requests, b.requests);
}

// ---------------------------------------------------------------------------
// GeneratorCursor vs GenerateTrace

struct GenFixture {
  explicit GenFixture(uint64_t seed, TraceGeneratorConfig cfg) : config(cfg) {
    CorpusConfig cconfig;
    cconfig.pages_per_server = 40;
    cconfig.images_per_server = 60;
    cconfig.archives_per_server = 4;
    Rng rng(seed);
    corpus = GenerateCorpus(cconfig, &rng);
    graph_rng = rng;  // Graph construction state, reused by the factory.
    LinkGraph graph(&corpus, LinkGraphConfig{}, &rng);
    trace_rng = rng;  // Trace stream state (post graph construction).
    batch = GenerateTrace(config, &graph, &rng);
  }

  std::function<LinkGraph()> GraphFactory() const {
    return [this]() {
      Rng rng = graph_rng;
      return LinkGraph(&corpus, LinkGraphConfig{}, &rng);
    };
  }

  GeneratorCursor MakeCursor() const {
    return GeneratorCursor(config, GraphFactory(), trace_rng);
  }

  TraceGeneratorConfig config;
  Corpus corpus;
  Rng graph_rng{0};
  Rng trace_rng{0};
  GeneratedTrace batch;
};

TraceGeneratorConfig SmallTraceConfig(uint32_t days) {
  TraceGeneratorConfig config;
  config.num_clients = 80;
  config.days = days;
  config.sessions_per_client_per_day = 0.8;
  return config;
}

void ExpectCursorMatchesBatch(const GenFixture& f) {
  GeneratorCursor cursor = f.MakeCursor();
  const Trace streamed = Materialize(&cursor);
  ExpectSameTrace(streamed, f.batch.trace);
  EXPECT_EQ(cursor.num_sessions(), f.batch.num_sessions);
  EXPECT_EQ(cursor.client_is_remote(), f.batch.client_is_remote);
  ASSERT_EQ(cursor.updates().size(), f.batch.updates.size());
  for (size_t i = 0; i < f.batch.updates.size(); ++i) {
    EXPECT_EQ(cursor.updates()[i].day, f.batch.updates[i].day);
    EXPECT_EQ(cursor.updates()[i].doc, f.batch.updates[i].doc);
  }
}

TEST(GeneratorCursorTest, MatchesBatchBitForBit) {
  ExpectCursorMatchesBatch(GenFixture(42, SmallTraceConfig(7)));
}

TEST(GeneratorCursorTest, MatchesBatchWithoutBrowserCache) {
  TraceGeneratorConfig config = SmallTraceConfig(7);
  config.browser_cache_bytes = 0;
  ExpectCursorMatchesBatch(GenFixture(7, config));
}

TEST(GeneratorCursorTest, MatchesBatchSingleDay) {
  ExpectCursorMatchesBatch(GenFixture(3, SmallTraceConfig(1)));
}

/// `f`'s graph factory, counting its calls in `*builds`.
std::function<LinkGraph()> CountingFactory(const GenFixture& f, int* builds) {
  return [factory = f.GraphFactory(), builds] {
    ++*builds;
    return factory();
  };
}

TEST(GeneratorCursorTest, BuildsOnFirstReadOncePerPass) {
  const GenFixture f(42, SmallTraceConfig(3));
  int builds = 0;
  {
    GeneratorCursor never_read(f.config, CountingFactory(f, &builds),
                               f.trace_rng);
    never_read.Rewind();
    EXPECT_EQ(never_read.num_clients(), f.config.num_clients);
  }
  EXPECT_EQ(builds, 0);  // a cursor that is never read builds nothing

  GeneratorCursor cursor(f.config, CountingFactory(f, &builds), f.trace_rng);
  EXPECT_EQ(builds, 0);
  ExpectSameTrace(Materialize(&cursor), f.batch.trace);
  EXPECT_EQ(builds, 1);
  for (int pass = 2; pass <= 3; ++pass) {
    cursor.Rewind();
    EXPECT_EQ(builds, pass - 1);
    ExpectSameTrace(Materialize(&cursor), f.batch.trace);
    EXPECT_EQ(builds, pass);
  }
}

TEST(GeneratorCursorTest, AccessorsBeforeTheFirstChunkAnswerAsAPassStart) {
  const GenFixture f(42, SmallTraceConfig(3));
  int builds = 0;
  GeneratorCursor cursor(f.config, CountingFactory(f, &builds), f.trace_rng);
  for (int pass = 1; pass <= 2; ++pass) {
    if (pass == 2) cursor.Rewind();
    EXPECT_EQ(cursor.num_servers(), f.batch.trace.num_servers);
    EXPECT_EQ(cursor.client_is_remote(), f.batch.client_is_remote);
    EXPECT_TRUE(cursor.updates().empty());
    EXPECT_EQ(cursor.num_sessions(), 0u);
    EXPECT_EQ(builds, pass);
    // The pass reads the state the accessors built.
    ExpectSameTrace(Materialize(&cursor), f.batch.trace);
    EXPECT_EQ(cursor.num_sessions(), f.batch.num_sessions);
    EXPECT_EQ(builds, pass);
  }
}

TEST(GeneratorCursorTest, StreamIsTimeOrderedAcrossChunks) {
  const GenFixture f(42, SmallTraceConfig(7));
  GeneratorCursor cursor = f.MakeCursor();
  SimTime last = 0.0;
  size_t total = 0;
  for (auto chunk = cursor.NextChunk(); !chunk.empty();
       chunk = cursor.NextChunk()) {
    for (const Request& r : chunk) {
      EXPECT_LE(last, r.time);
      last = r.time;
      ++total;
    }
  }
  EXPECT_EQ(total, f.batch.trace.size());
}

TEST(GeneratorCursorTest, RewindReproducesStream) {
  const GenFixture f(42, SmallTraceConfig(5));
  GeneratorCursor cursor = f.MakeCursor();
  const Trace first = Materialize(&cursor);
  cursor.Rewind();
  const Trace second = Materialize(&cursor);
  ExpectSameTrace(first, second);
  EXPECT_EQ(cursor.num_sessions(), f.batch.num_sessions);
}

TEST(GeneratorCursorTest, TiesKeepEmissionOrder) {
  // With no spread, a page's inline objects all arrive 0.05 s after it, so
  // the stream is full of equal timestamps; the cursor must order each tie
  // by emission index exactly as GenerateTrace's stable sort does.
  TraceGeneratorConfig config = SmallTraceConfig(4);
  config.embedded_spread_seconds = 0.0;
  const GenFixture f(11, config);
  size_t ties = 0;
  for (size_t i = 1; i < f.batch.trace.size(); ++i) {
    ties += f.batch.trace.requests[i].time ==
            f.batch.trace.requests[i - 1].time;
  }
  EXPECT_GT(ties, 100u);
  ExpectCursorMatchesBatch(f);
}

TEST(GeneratorCursorTest, DayLargerThanAChunkMatchesBatch) {
  TraceGeneratorConfig config = SmallTraceConfig(2);
  config.num_clients = 4000;
  config.sessions_per_client_per_day = 6.0;
  const GenFixture f(5, config);
  size_t first_day = 0;
  for (const Request& r : f.batch.trace.requests) first_day += r.time < kDay;
  ASSERT_GT(first_day, 65536u);

  GeneratorCursor cursor = f.MakeCursor();
  size_t chunks = 0;
  size_t offset = 0;
  for (auto chunk = cursor.NextChunk(); !chunk.empty();
       chunk = cursor.NextChunk()) {
    ++chunks;
    ASSERT_LE(chunk.size(), 65536u);
    ASSERT_LE(offset + chunk.size(), f.batch.trace.size());
    ExpectSameRequests(
        std::vector<Request>(chunk.begin(), chunk.end()),
        std::vector<Request>(f.batch.trace.requests.begin() + offset,
                             f.batch.trace.requests.begin() + offset +
                                 chunk.size()));
    offset += chunk.size();
  }
  EXPECT_EQ(offset, f.batch.trace.size());
  EXPECT_GE(chunks, 4u);
}

TEST(GeneratorCursorTest, ChunkStaysValidUntilTheNextCall) {
  // Chunks are views into the cursor's own buffer. Between two NextChunk
  // calls nothing else may touch it: not the metadata accessors and not
  // another cursor's pulls.
  TraceGeneratorConfig config = SmallTraceConfig(3);
  config.num_clients = 2000;
  config.sessions_per_client_per_day = 6.0;
  const GenFixture f(9, config);
  GeneratorCursor cursor = f.MakeCursor();
  GeneratorCursor other = f.MakeCursor();
  size_t offset = 0;
  for (auto chunk = cursor.NextChunk(); !chunk.empty();
       chunk = cursor.NextChunk()) {
    const std::vector<Request> copy(chunk.begin(), chunk.end());
    other.NextChunk();
    EXPECT_GT(cursor.num_sessions(), 0u);
    EXPECT_FALSE(cursor.client_is_remote().empty());
    EXPECT_EQ(cursor.num_clients(), config.num_clients);
    ExpectSameRequests(std::vector<Request>(chunk.begin(), chunk.end()), copy);
    ExpectSameRequests(
        copy, std::vector<Request>(
                  f.batch.trace.requests.begin() + offset,
                  f.batch.trace.requests.begin() + offset + copy.size()));
    offset += copy.size();
  }
  EXPECT_EQ(offset, f.batch.trace.size());
  // Rewind mid-stream: the first chunk after it is the stream's start.
  cursor.Rewind();
  cursor.NextChunk();
  cursor.Rewind();
  const auto restart = cursor.NextChunk();
  ASSERT_FALSE(restart.empty());
  ExpectSameRequests(
      std::vector<Request>(restart.begin(), restart.end()),
      std::vector<Request>(f.batch.trace.requests.begin(),
                           f.batch.trace.requests.begin() + restart.size()));
}

// ---------------------------------------------------------------------------
// ClfCursor (and ReadClfFile, which drains one): goldens

class ClfCursorTest : public ::testing::Test {
 protected:
  ClfCursorTest() {
    CorpusConfig cconfig;
    cconfig.pages_per_server = 30;
    cconfig.images_per_server = 40;
    cconfig.archives_per_server = 3;
    Rng rng(11);
    corpus_ = GenerateCorpus(cconfig, &rng);
    LinkGraph graph(&corpus_, LinkGraphConfig{}, &rng);
    TraceGeneratorConfig tconfig;
    tconfig.num_clients = 40;
    tconfig.days = 3;
    tconfig.sessions_per_client_per_day = 1.0;
    trace_ = GenerateTrace(tconfig, &graph, &rng).trace;
    // What reading the written trace back must yield: CLF timestamps have
    // 1-second resolution, every other field survives, and the clients
    // are those observed.
    written_ = trace_;
    written_.num_clients = 0;
    for (Request& r : written_.requests) {
      r.time = std::floor(r.time);
      written_.num_clients = std::max(written_.num_clients, r.client + 1);
    }
  }

  ~ClfCursorTest() override {
    for (const std::string& path : temp_files_) std::remove(path.c_str());
  }

  std::string TempPath(const std::string& name) {
    const std::string path = ::testing::TempDir() + "/" + name;
    temp_files_.push_back(path);
    return path;
  }

  std::string WriteTraceFile(const std::string& name) {
    const std::string path = TempPath(name);
    EXPECT_TRUE(WriteClfFile(path, trace_, corpus_).ok());
    return path;
  }

  // The first `n` records of the written trace, as a trace of their own.
  Trace WrittenPrefix(size_t n) const {
    Trace out = written_;
    out.requests.resize(n);
    out.num_clients = 0;
    for (const Request& r : out.requests) {
      out.num_clients = std::max(out.num_clients, r.client + 1);
    }
    return out;
  }

  // Reads the file through a cursor and through ReadClfFile; both must
  // yield `want` and the given line accounting.
  void ExpectReads(const std::string& path, const ClfReadOptions& options,
                   const Trace& want, size_t lines, size_t skipped,
                   size_t reorder_window = 65536) {
    ClfCursor cursor(path, &corpus_, options, reorder_window);
    const Trace streamed = Materialize(&cursor);
    ASSERT_TRUE(cursor.status().ok()) << cursor.status().message();
    ExpectSameTrace(streamed, want);
    EXPECT_EQ(cursor.stats().lines, lines);
    EXPECT_EQ(cursor.stats().skipped_lines, skipped);

    ClfReadStats stats;
    const auto read = ReadClfFile(path, corpus_, options, &stats);
    ASSERT_TRUE(read.ok()) << read.status().message();
    ExpectSameTrace(read.value(), want);
    EXPECT_EQ(stats.lines, lines);
    EXPECT_EQ(stats.skipped_lines, skipped);
  }

  // Both readers fail with exactly `message`.
  void ExpectParseError(const std::string& path, const ClfReadOptions& options,
                        const std::string& message) {
    ClfCursor cursor(path, &corpus_, options);
    while (!cursor.NextChunk().empty()) {
    }
    EXPECT_EQ(cursor.status().code(), StatusCode::kParseError);
    EXPECT_EQ(cursor.status().message(), message);
    const auto read = ReadClfFile(path, corpus_, options);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kParseError);
    EXPECT_EQ(read.status().message(), message);
  }

  Corpus corpus_;
  Trace trace_;
  Trace written_;
  std::vector<std::string> temp_files_;
};

TEST_F(ClfCursorTest, MatchesBatchReaderBitForBit) {
  // WriteClfFile -> read is the identity up to the 1-second timestamps.
  const std::string path = WriteTraceFile("sds_cursor_roundtrip.log");
  ExpectReads(path, ClfReadOptions{}, written_, trace_.size(), 0);
}

TEST_F(ClfCursorTest, SmallReorderWindowStillMatchesSortedFile) {
  const std::string path = WriteTraceFile("sds_cursor_window.log");
  ExpectReads(path, ClfReadOptions{}, written_, trace_.size(), 0,
              /*reorder_window=*/4);
}

TEST_F(ClfCursorTest, LenientSkipAccountingMatches) {
  const std::string path = WriteTraceFile("sds_cursor_lenient.log");
  {
    std::ofstream append(path, std::ios::app);
    append << "garbage line one\n\n"
           << "h1.cs.bu.edu - - [01/Jan/1995] \"GET /a HTTP/1.0\" 200 5\n"
           << "bad-host - - [01/Jan/1995:00:00:00 +0000] \"GET /a HTTP/1.0\""
           << " 200 5\n";
  }
  ClfReadOptions options;
  options.lenient = true;
  // Three malformed lines skipped; the blank one is not a line at all.
  ExpectReads(path, options, written_, trace_.size() + 3, 3);
}

TEST_F(ClfCursorTest, StrictErrorMatchesBatchReaderExactly) {
  const std::string path = WriteTraceFile("sds_cursor_strict.log");
  {
    std::ofstream append(path, std::ios::app);
    append << "truncated garbage\n";
  }
  ExpectParseError(path, ClfReadOptions{},
                   path + ": line " + std::to_string(trace_.size() + 1) +
                       ": no timestamp in CLF line: truncated garbage");
}

TEST_F(ClfCursorTest, TruncatedFinalLineMatchesBatchReader) {
  // A file whose final line has no trailing newline: it is still a line.
  const std::string path = TempPath("sds_cursor_truncated.log");
  {
    std::ofstream out(path);
    const auto lines = TraceToClf(trace_, corpus_);
    ASSERT_GE(lines.size(), 2u);
    out << lines[0] << '\n' << lines[1];  // no trailing '\n'
  }
  ExpectReads(path, ClfReadOptions{}, WrittenPrefix(2), 2, 0);
}

TEST_F(ClfCursorTest, TruncatedGarbageFinalLineLenient) {
  const std::string path = TempPath("sds_cursor_truncated_garbage.log");
  {
    std::ofstream out(path);
    const auto lines = TraceToClf(trace_, corpus_);
    ASSERT_GE(lines.size(), 2u);
    // Final line cut mid-timestamp, as a crashed logger would leave it.
    out << lines[0] << '\n' << lines[1].substr(0, lines[1].size() / 2);
  }
  ClfReadOptions options;
  options.lenient = true;
  ExpectReads(path, options, WrittenPrefix(1), 2, 1);
}

TEST_F(ClfCursorTest, EmptyFileMatchesBatchReader) {
  const std::string path = TempPath("sds_cursor_empty.log");
  { std::ofstream out(path); }
  ExpectReads(path, ClfReadOptions{}, WrittenPrefix(0), 0, 0);
}

TEST_F(ClfCursorTest, BlankLinesAreNotCounted) {
  const std::string path = TempPath("sds_cursor_blanks.log");
  {
    std::ofstream out(path);
    const auto lines = TraceToClf(trace_, corpus_);
    ASSERT_GE(lines.size(), 2u);
    out << "\n  \n" << lines[0] << "\n\n" << lines[1] << "\n\n";
  }
  ExpectReads(path, ClfReadOptions{}, WrittenPrefix(2), 2, 0);
}

TEST_F(ClfCursorTest, MissingFileReportsSameError) {
  ClfCursor cursor("/no/such/file.log", &corpus_, ClfReadOptions{});
  EXPECT_TRUE(cursor.NextChunk().empty());
  EXPECT_EQ(cursor.status().code(), StatusCode::kIoError);
  EXPECT_EQ(cursor.status().message(), "cannot open /no/such/file.log");
  const auto read = ReadClfFile("/no/such/file.log", corpus_);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_EQ(read.status().message(), "cannot open /no/such/file.log");
}

TEST_F(ClfCursorTest, RewindReproducesStream) {
  const std::string path = WriteTraceFile("sds_cursor_rewind.log");
  ClfCursor cursor(path, &corpus_, ClfReadOptions{});
  const Trace first = Materialize(&cursor);
  cursor.Rewind();
  const Trace second = Materialize(&cursor);
  ExpectSameRequests(first.requests, second.requests);
  EXPECT_EQ(first.num_clients, second.num_clients);
}

// A file whose disorder exceeds the reorder window: records at 500, 600,
// 700 and then 100 s, read with a window of 2 records.
std::string WriteDisorderedFile(const std::string& path, const Corpus& corpus) {
  std::ofstream out(path);
  for (const SimTime t : {500.0, 600.0, 700.0, 100.0}) {
    ClfRecord record;
    record.host = "h1.cs.bu.edu";
    record.time = t;
    record.method = "GET";
    record.path = corpus.doc(0).path;
    record.status = 200;
    record.bytes = 10;
    out << FormatClfLine(record) << '\n';
  }
  return path;
}

TEST_F(ClfCursorTest, DisorderBeyondWindowEndsWithParseError) {
  const std::string path =
      WriteDisorderedFile(TempPath("sds_cursor_disorder.log"), corpus_);
  const std::string message =
      path +
      ": line 4: out of time order: the record is earlier than one already "
      "handed out, so the file's disorder exceeds the reorder window of 2 "
      "records";
  for (const bool lenient : {false, true}) {
    ClfReadOptions options;
    options.lenient = lenient;
    ClfCursor cursor(path, &corpus_, options, /*reorder_window=*/2);
    SimTime last = -kInfiniteTime;
    for (auto chunk = cursor.NextChunk(); !chunk.empty();
         chunk = cursor.NextChunk()) {
      for (const Request& r : chunk) {
        EXPECT_GE(r.time, last) << "lenient " << lenient;
        last = r.time;
      }
    }
    EXPECT_EQ(cursor.status().code(), StatusCode::kParseError);
    EXPECT_EQ(cursor.status().message(), message) << "lenient " << lenient;
  }
}

TEST_F(ClfCursorTest, ReadClfFileOrdersAnyDisorder) {
  // ReadClfFile's reorder window is unbounded: the same file reads back
  // as its stable sort by time.
  const std::string path =
      WriteDisorderedFile(TempPath("sds_cursor_disorder_read.log"), corpus_);
  const auto read = ReadClfFile(path, corpus_);
  ASSERT_TRUE(read.ok()) << read.status().message();
  std::vector<SimTime> times;
  for (const Request& r : read.value().requests) times.push_back(r.time);
  EXPECT_EQ(times, (std::vector<SimTime>{100.0, 500.0, 600.0, 700.0}));
}

// ---------------------------------------------------------------------------
// FilteringCursor vs FilterTrace

TEST(FilteringCursorTest, MatchesFilterTrace) {
  const GenFixture f(42, SmallTraceConfig(5));
  const Trace clean = FilterTrace(f.batch.trace);
  FilteringCursor cursor(std::make_unique<GeneratorCursor>(
      f.config, f.GraphFactory(), f.trace_rng));
  const Trace streamed = Materialize(&cursor);
  ExpectSameTrace(streamed, clean);
  EXPECT_TRUE(cursor.status().ok());
}

// ---------------------------------------------------------------------------
// VectorCursor / Materialize

TEST(VectorCursorTest, BorrowingRoundTrip) {
  const GenFixture f(9, SmallTraceConfig(2));
  VectorCursor cursor(&f.batch.trace);
  const Trace round = Materialize(&cursor);
  ExpectSameTrace(round, f.batch.trace);
  // Exhausted until rewound.
  EXPECT_TRUE(cursor.NextChunk().empty());
  cursor.Rewind();
  EXPECT_EQ(cursor.NextChunk().size(), f.batch.trace.size());
}

TEST(VectorCursorTest, OwningRoundTrip) {
  const GenFixture f(9, SmallTraceConfig(2));
  Trace copy = f.batch.trace;
  VectorCursor cursor(std::move(copy));
  const Trace round = Materialize(&cursor);
  ExpectSameTrace(round, f.batch.trace);
}

}  // namespace
}  // namespace sds::trace
