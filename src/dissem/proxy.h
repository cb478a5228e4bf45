#ifndef SDS_DISSEM_PROXY_H_
#define SDS_DISSEM_PROXY_H_

#include <cstdint>
#include <vector>

#include "trace/document.h"

namespace sds::dissem {

/// \brief The replicated-document store of one service proxy: a byte-
/// budgeted set of document ids disseminated to it by home servers, held
/// as one membership bit per document of the corpus.
class ProxyStore {
 public:
  ProxyStore(uint64_t capacity_bytes, size_t num_docs)
      : capacity_(capacity_bytes), docs_(num_docs, false) {}

  /// Adds a document if it fits; returns false (and stores nothing) when
  /// the remaining capacity is insufficient.
  bool Insert(trace::DocumentId doc, uint64_t size_bytes) {
    if (used_ + size_bytes > capacity_) return false;
    if (docs_[doc]) return true;  // already present
    docs_[doc] = true;
    used_ += size_bytes;
    return true;
  }

  bool Contains(trace::DocumentId doc) const { return docs_[doc]; }

  uint64_t used_bytes() const { return used_; }

 private:
  uint64_t capacity_;
  uint64_t used_ = 0;
  std::vector<bool> docs_;
};

}  // namespace sds::dissem

#endif  // SDS_DISSEM_PROXY_H_
