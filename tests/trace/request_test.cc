#include "trace/request.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace sds::trace {
namespace {

// The client id records each request's position before sorting, so equal
// vectors mean the same permutation, ties included.
std::vector<Request> Numbered(const std::vector<double>& times) {
  std::vector<Request> requests(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    requests[i].time = times[i];
    requests[i].client = static_cast<ClientId>(i);
  }
  return requests;
}

void ExpectSortsLikeStableSort(const std::vector<double>& times) {
  std::vector<Request> expected = Numbered(times);
  std::stable_sort(
      expected.begin(), expected.end(),
      [](const Request& a, const Request& b) { return a.time < b.time; });
  std::vector<Request> sorted = Numbered(times);
  std::vector<Request> scratch;
  StableSortByTime(&sorted, &scratch);
  ASSERT_EQ(sorted.size(), expected.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i].time, expected[i].time) << i;
    ASSERT_EQ(sorted[i].client, expected[i].client) << i;
  }
}

TEST(StableSortByTimeTest, SpreadTimesWithTies) {
  Rng rng(3);
  std::vector<double> times;
  for (int i = 0; i < 5000; ++i) {
    // Coarse times make many exact ties.
    times.push_back(std::floor(rng.NextDouble() * 800.0) * 0.25 + 1000.0);
  }
  ExpectSortsLikeStableSort(times);
}

TEST(StableSortByTimeTest, NegativeAndMixedTimes) {
  Rng rng(5);
  std::vector<double> times;
  for (int i = 0; i < 2000; ++i) times.push_back(rng.NextDouble() * 2e6 - 1e6);
  ExpectSortsLikeStableSort(times);
}

TEST(StableSortByTimeTest, CrowdedBucketFallsBackToStableSort) {
  // One far outlier squeezes everything else into the first bucket, so the
  // insertion sort runs out of budget and std::stable_sort finishes.
  Rng rng(7);
  std::vector<double> times;
  for (int i = 0; i < 3000; ++i) {
    times.push_back(std::floor(rng.NextDouble() * 100.0));
  }
  times.push_back(1e12);
  ExpectSortsLikeStableSort(times);
}

TEST(StableSortByTimeTest, EqualSortedAndTinyInputs) {
  ExpectSortsLikeStableSort({});
  ExpectSortsLikeStableSort({4.0});
  ExpectSortsLikeStableSort(std::vector<double>(100, 7.5));
  ExpectSortsLikeStableSort({1.0, 2.0, 3.0, 3.0, 4.0});
  ExpectSortsLikeStableSort({5.0, 4.0, 3.0, 3.0, 2.0, 1.0});
  ExpectSortsLikeStableSort({0.0, INFINITY, 1.0, INFINITY, 0.0});
}

}  // namespace
}  // namespace sds::trace
