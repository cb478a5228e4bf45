#include "dissem/classify.h"

#include <algorithm>

#include "util/logging.h"

namespace sds::dissem {

const char* PopularityClassToString(PopularityClass cls) {
  switch (cls) {
    case PopularityClass::kRemotelyPopular:
      return "remotely-popular";
    case PopularityClass::kLocallyPopular:
      return "locally-popular";
    case PopularityClass::kGloballyPopular:
      return "globally-popular";
    case PopularityClass::kUnaccessed:
      return "unaccessed";
  }
  return "?";
}

double DocumentClassification::MeanUpdateRate(PopularityClass cls) const {
  double sum = 0.0;
  uint64_t count = 0;
  for (size_t i = 0; i < pop_class.size(); ++i) {
    if (pop_class[i] != cls) continue;
    sum += updates_per_day[i];
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

DocumentClassification ClassifyDocuments(
    const trace::Corpus& corpus, const std::vector<ServerPopularity>& pops,
    const std::vector<trace::UpdateEvent>& updates, uint32_t observation_days) {
  SDS_CHECK(observation_days >= 1);
  DocumentClassification out;
  out.pop_class.assign(corpus.size(), PopularityClass::kUnaccessed);
  out.updates_per_day.assign(corpus.size(), 0.0);
  out.is_mutable.assign(corpus.size(), false);

  for (const auto& pop : pops) {
    for (const trace::DocumentId id : corpus.server_docs(pop.server)) {
      const auto& s = pop.stats[id];
      if (s.total_requests() == 0) continue;
      const double ratio = s.RemoteRatio();
      if (ratio > kRemotelyPopularRatio) {
        out.pop_class[id] = PopularityClass::kRemotelyPopular;
      } else if (ratio < kLocallyPopularRatio) {
        out.pop_class[id] = PopularityClass::kLocallyPopular;
      } else {
        out.pop_class[id] = PopularityClass::kGloballyPopular;
      }
    }
  }

  for (const auto& u : updates) {
    out.updates_per_day[u.doc] += 1.0;
  }
  for (size_t i = 0; i < out.updates_per_day.size(); ++i) {
    out.updates_per_day[i] /= static_cast<double>(observation_days);
    out.is_mutable[i] =
        out.updates_per_day[i] > kMutableUpdatesPerDay;
    if (out.is_mutable[i]) ++out.mutable_docs;
  }

  for (const PopularityClass cls : out.pop_class) {
    switch (cls) {
      case PopularityClass::kRemotelyPopular:
        ++out.remotely_popular;
        break;
      case PopularityClass::kLocallyPopular:
        ++out.locally_popular;
        break;
      case PopularityClass::kGloballyPopular:
        ++out.globally_popular;
        break;
      case PopularityClass::kUnaccessed:
        ++out.unaccessed;
        break;
    }
  }
  return out;
}

}  // namespace sds::dissem
