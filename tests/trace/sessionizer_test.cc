#include "trace/sessionizer.h"

#include <algorithm>
#include <gtest/gtest.h>

namespace sds::trace {
namespace {

Trace MakeTrace(std::vector<std::pair<ClientId, SimTime>> entries) {
  Trace trace;
  uint32_t max_client = 0;
  for (const auto& [client, time] : entries) {
    Request r;
    r.client = client;
    r.time = time;
    r.doc = 0;
    trace.requests.push_back(r);
    max_client = std::max(max_client, client + 1);
  }
  trace.num_clients = max_client;
  trace.SortByTime();
  return trace;
}

TEST(CountSegmentsTest, InterleavedClientsKeepSeparateStreams) {
  // Each client's gaps are 2 s although the merged stream's are 1 s.
  const Trace trace = MakeTrace({{0, 1.0}, {1, 2.0}, {0, 3.0}, {1, 4.0}});
  EXPECT_EQ(CountSegments(trace, 1.5), 4u);
  EXPECT_EQ(CountSegments(trace, 5.0), 2u);
}

TEST(CountSegmentsTest, SplitsAtTimeout) {
  const Trace trace =
      MakeTrace({{0, 0.0}, {0, 2.0}, {0, 4.0}, {0, 100.0}, {0, 101.0}});
  EXPECT_EQ(CountSegments(trace, 5.0), 2u);
}

TEST(CountSegmentsTest, GapEqualToTimeoutSplits) {
  const Trace trace = MakeTrace({{0, 0.0}, {0, 5.0}});
  EXPECT_EQ(CountSegments(trace, 5.0), 2u);
}

TEST(CountSegmentsTest, InfiniteTimeoutSingleSegment) {
  const Trace trace = MakeTrace({{0, 0.0}, {0, 1e6}, {0, 2e6}});
  EXPECT_EQ(CountSegments(trace, kInfiniteTime), 1u);
}

TEST(CountSegmentsTest, ZeroTimeoutOnePerRequest) {
  const Trace trace = MakeTrace({{0, 0.0}, {0, 0.5}, {0, 1.0}});
  EXPECT_EQ(CountSegments(trace, 0.0), 3u);
}

TEST(CountSegmentsTest, ClientWithoutRequestsHasNoSegments) {
  const Trace trace = MakeTrace({{1, 0.0}});  // client 0 never requests
  EXPECT_EQ(CountSegments(trace, 5.0), 1u);
}

TEST(CountSegmentsTest, AcrossClients) {
  const Trace trace =
      MakeTrace({{0, 0.0}, {0, 1.0}, {0, 50.0}, {1, 0.0}, {1, 100.0}});
  EXPECT_EQ(CountSegments(trace, 10.0), 4u);
  EXPECT_EQ(CountSegments(trace, kInfiniteTime), 2u);
}

TEST(CountSegmentsTest, StreamingOverloadMatchesBatch) {
  // Per client: 0 at 0, 1, 50, 120; 1 at 0, 100; 2 at 3, 4, 200. Both
  // overloads give the hand-counted segment counts.
  const Trace trace =
      MakeTrace({{0, 0.0}, {0, 1.0}, {0, 50.0}, {1, 0.0}, {1, 100.0},
                 {2, 3.0}, {0, 120.0}, {2, 4.0}, {2, 200.0}});
  for (const auto& [timeout, segments] :
       {std::pair{0.0, 9u}, std::pair{5.0, 7u}, std::pair{60.0, 6u},
        std::pair{kInfiniteTime, 3u}}) {
    VectorCursor cursor(&trace);
    EXPECT_EQ(CountSegments(&cursor, timeout), segments)
        << "timeout " << timeout;
    EXPECT_EQ(CountSegments(trace, timeout), segments)
        << "timeout " << timeout;
  }
}

TEST(CountSegmentsTest, StreamingEmpty) {
  Trace trace;
  trace.num_clients = 4;
  VectorCursor cursor(&trace);
  EXPECT_EQ(CountSegments(&cursor, 5.0), 0u);
}

}  // namespace
}  // namespace sds::trace
