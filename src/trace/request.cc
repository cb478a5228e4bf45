#include "trace/request.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace sds::trace {

void StableSortByTime(std::vector<Request>* requests,
                      std::vector<Request>* scratch) {
  const auto by_time = [](const Request& a, const Request& b) {
    return a.time < b.time;
  };
  std::vector<Request>& v = *requests;
  const size_t n = v.size();
  if (n < 2) return;
  const auto [first, last] = std::minmax_element(v.begin(), v.end(), by_time);
  const double base = first->time;
  const double scale = static_cast<double>(n) / (last->time - base);
  if (!(scale > 0.0 && std::isfinite(scale))) {  // All equal, or unbounded.
    std::stable_sort(v.begin(), v.end(), by_time);
    return;
  }
  // Each step (subtract, scale, truncate, clamp) never decreases with time,
  // so a request in an earlier bucket is strictly earlier than one in a
  // later bucket, and the counting sort keeps emission order within a
  // bucket.
  const auto bucket = [&](double t) {
    return std::min(n - 1, static_cast<size_t>((t - base) * scale));
  };
  std::vector<size_t> start(n + 1, 0);
  for (const Request& r : v) ++start[bucket(r.time) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  scratch->resize(n);
  for (const Request& r : v) (*scratch)[start[bucket(r.time)]++] = r;
  v.swap(*scratch);
  // Insertion sort never moves a request past an earlier bucket. Crowded
  // buckets make it quadratic, so past a budget of moves hand the rest to
  // std::stable_sort; both sorts are stable, so the order is the same.
  size_t budget = 8 * n;
  for (size_t i = 1; i < n; ++i) {
    if (!(v[i].time < v[i - 1].time)) continue;
    const Request r = v[i];
    size_t j = i;
    do {
      v[j] = v[j - 1];
      --j;
    } while (j > 0 && r.time < v[j - 1].time);
    v[j] = r;
    if (i - j > budget) {
      std::stable_sort(v.begin(), v.end(), by_time);
      return;
    }
    budget -= i - j;
  }
}

void Trace::SortByTime() {
  std::stable_sort(
      requests.begin(), requests.end(),
      [](const Request& a, const Request& b) { return a.time < b.time; });
}

uint64_t Trace::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& r : requests) total += r.bytes;
  return total;
}

}  // namespace sds::trace
