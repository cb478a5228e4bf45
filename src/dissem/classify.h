#ifndef SDS_DISSEM_CLASSIFY_H_
#define SDS_DISSEM_CLASSIFY_H_

#include <cstdint>
#include <vector>

#include "dissem/popularity.h"
#include "trace/corpus.h"
#include "trace/request.h"

namespace sds::dissem {

/// \brief Observable popularity class of a document (§2 of the paper):
/// remote-to-local access ratio > 85% -> remotely popular, < 15% -> locally
/// popular, in between -> globally popular.
enum class PopularityClass : uint8_t {
  kRemotelyPopular = 0,
  kLocallyPopular = 1,
  kGloballyPopular = 2,
  kUnaccessed = 3,
};

const char* PopularityClassToString(PopularityClass cls);

/// A document is "mutable" when its measured update rate exceeds this many
/// updates per day (classification and DisseminationConfig::
/// exclude_mutable alike).
inline constexpr double kMutableUpdatesPerDay = 0.05;
/// Remote-to-local access ratios above this mark a remotely popular
/// document, below kLocallyPopularRatio a locally popular one (§2).
inline constexpr double kRemotelyPopularRatio = 0.85;
inline constexpr double kLocallyPopularRatio = 0.15;

/// \brief Classification of every document plus summary counters.
struct DocumentClassification {
  std::vector<PopularityClass> pop_class;   ///< Indexed by DocumentId.
  std::vector<double> updates_per_day;      ///< Measured update rate.
  std::vector<bool> is_mutable;             ///< Rate above threshold.

  uint32_t remotely_popular = 0;
  uint32_t locally_popular = 0;
  uint32_t globally_popular = 0;
  uint32_t unaccessed = 0;
  uint32_t mutable_docs = 0;

  /// Mean measured update probability per day over accessed documents of a
  /// class (the paper: ~2%/day for locally popular, <0.5%/day otherwise).
  double MeanUpdateRate(PopularityClass cls) const;
};

/// \brief Classifies documents from per-document access stats (use
/// AnalyzeServer / AnalyzeAllServers first) and the update log observed over
/// `observation_days` days.
DocumentClassification ClassifyDocuments(
    const trace::Corpus& corpus, const std::vector<ServerPopularity>& pops,
    const std::vector<trace::UpdateEvent>& updates, uint32_t observation_days);

}  // namespace sds::dissem

#endif  // SDS_DISSEM_CLASSIFY_H_
