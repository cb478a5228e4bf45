#include "trace/cursor.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>

#include "trace/filter.h"

namespace sds::trace {
namespace {

/// Target requests handed out per NextChunk() call.
constexpr size_t kChunkSize = 65536;

/// ClfCursor's heap order: the entry with the larger (time, line) sinks.
template <typename Entry>
bool LaterRecord(const Entry& a, const Entry& b) {
  return std::tie(b.request.time, b.line) < std::tie(a.request.time, a.line);
}

}  // namespace

const Status& RequestCursor::status() const {
  static const Status kOk = Status::OK();
  return kOk;
}

// ---------------------------------------------------------------------------
// VectorCursor

VectorCursor::VectorCursor(const Trace* trace) : trace_(trace) {}

VectorCursor::VectorCursor(Trace trace)
    : owned_(std::move(trace)), trace_(&*owned_) {}

std::span<const Request> VectorCursor::NextChunk() {
  if (done_) return {};
  done_ = true;
  return trace_->requests;
}

void VectorCursor::Rewind() { done_ = false; }

uint32_t VectorCursor::num_clients() const { return trace_->num_clients; }

uint32_t VectorCursor::num_servers() const { return trace_->num_servers; }

// ---------------------------------------------------------------------------
// GeneratorCursor

GeneratorCursor::GeneratorCursor(const TraceGeneratorConfig& config,
                                 std::function<LinkGraph()> graph_factory,
                                 Rng rng)
    : config_(config),
      graph_factory_(std::move(graph_factory)),
      initial_rng_(rng),
      rng_(rng) {}

TraceDayGenerator& GeneratorCursor::Generator() const {
  if (!generator_) {
    graph_.emplace(graph_factory_());
    rng_ = initial_rng_;
    generator_.emplace(config_, &*graph_, &rng_);
  }
  return *generator_;
}

std::span<const Request> GeneratorCursor::NextChunk() {
  TraceDayGenerator& generator = Generator();
  while (emit_pos_ == emit_end_) {
    if (exhausted_) return {};
    // Keep the overhang and generate the next day behind it.
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<ptrdiff_t>(emit_pos_));
    emit_pos_ = 0;
    if (!generator.NextDay(&window_)) {
      exhausted_ = true;
      emit_end_ = window_.size();
      continue;
    }
    // Batch order is a stable sort by time of the emission sequence, i.e.
    // (time, emission index). The overhang in front of the new day is in
    // that order and was emitted earlier, so one stable sort of the buffer
    // keeps every tie in emission order.
    StableSortByTime(&window_, &scratch_);
    // Everything before the next midnight is final: later emissions have
    // both a later time (sessions only overhang forward) and a larger
    // emission index.
    const double boundary = static_cast<double>(generator.day()) * kDay;
    const auto first_pending =
        std::lower_bound(window_.begin(), window_.end(), boundary,
                         [](const Request& r, double t) { return r.time < t; });
    emit_end_ = static_cast<size_t>(first_pending - window_.begin());
  }
  const size_t n = std::min(kChunkSize, emit_end_ - emit_pos_);
  const std::span<const Request> chunk(window_.data() + emit_pos_, n);
  emit_pos_ += n;
  return chunk;
}

void GeneratorCursor::Rewind() {
  generator_.reset();  // References graph_ / rng_; drop it first.
  graph_.reset();
  window_.clear();
  emit_pos_ = 0;
  emit_end_ = 0;
  exhausted_ = false;
}

uint32_t GeneratorCursor::num_clients() const { return config_.num_clients; }

uint32_t GeneratorCursor::num_servers() const {
  return Generator().num_servers();
}

const std::vector<bool>& GeneratorCursor::client_is_remote() const {
  return Generator().client_is_remote();
}

const std::vector<UpdateEvent>& GeneratorCursor::updates() const {
  return Generator().updates();
}

uint64_t GeneratorCursor::num_sessions() const {
  return Generator().num_sessions();
}

// ---------------------------------------------------------------------------
// ClfCursor

ClfCursor::ClfCursor(const std::string& path, const Corpus* corpus,
                     const ClfReadOptions& options, size_t reorder_window)
    : path_(path),
      corpus_(corpus),
      options_(options),
      reorder_window_(std::max<size_t>(reorder_window, 1)),
      reader_(corpus, options) {
  open_status_ = MapFile();
  status_ = open_status_;
}

ClfCursor::~ClfCursor() {
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

Status ClfCursor::MapFile() {
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path_);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot open " + path_);
  }
  size_ = static_cast<size_t>(st.st_size);
  if (size_ > 0) {
    void* mapped = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapped == MAP_FAILED) {
      ::close(fd);
      size_ = 0;
      return Status::IoError("cannot map " + path_);
    }
    data_ = static_cast<const char*>(mapped);
    ::madvise(const_cast<char*>(data_), size_, MADV_SEQUENTIAL);
  }
  ::close(fd);
  return Status::OK();
}

void ClfCursor::ProcessLine(std::string_view line) {
  Request request;
  if (reader_.Read(line, line_number_, &request)) {
    heap_.push_back(HeapEntry{request, line_number_});
    std::push_heap(heap_.begin(), heap_.end(), LaterRecord<HeapEntry>);
  } else if (!reader_.error().ok()) {
    status_ = Status(reader_.error().code(),
                     path_ + ": " + reader_.error().message());
  }
}

bool ClfCursor::PopInto(std::vector<Request>* out) {
  std::pop_heap(heap_.begin(), heap_.end(), LaterRecord<HeapEntry>);
  const HeapEntry& next = heap_.back();
  if (next.request.time < last_emitted_) {
    status_ = Status::ParseError(
        path_ + ": line " + std::to_string(next.line) +
        ": out of time order: the record is earlier than one already handed "
        "out, so the file's disorder exceeds the reorder window of " +
        std::to_string(reorder_window_) + " records");
    return false;
  }
  last_emitted_ = next.request.time;
  out->push_back(next.request);
  heap_.pop_back();
  return true;
}

std::span<const Request> ClfCursor::NextChunk() {
  chunk_.clear();
  if (!status_.ok() || exhausted_) return {};
  while (chunk_.size() < kChunkSize) {
    if (!scan_done_ && heap_.size() < reorder_window_) {
      if (offset_ >= size_) {
        scan_done_ = true;
        reader_.CountMetrics();
        continue;
      }
      const char* start = data_ + offset_;
      const char* newline = static_cast<const char*>(
          std::memchr(start, '\n', size_ - offset_));
      const size_t length =
          newline != nullptr ? static_cast<size_t>(newline - start)
                             : size_ - offset_;
      offset_ += length + (newline != nullptr ? 1 : 0);
      ++line_number_;
      ProcessLine(std::string_view(start, length));
      if (!status_.ok()) {
        chunk_.clear();
        return {};
      }
      continue;
    }
    if (heap_.empty()) break;
    if (!PopInto(&chunk_)) {
      chunk_.clear();
      return {};
    }
  }
  if (chunk_.empty()) {
    exhausted_ = true;
    return {};
  }
  return chunk_;
}

void ClfCursor::Rewind() {
  offset_ = 0;
  line_number_ = 0;
  reader_ = ClfLineReader(corpus_, options_);
  heap_.clear();
  last_emitted_ = -kInfiniteTime;
  chunk_.clear();
  status_ = open_status_;
  scan_done_ = false;
  exhausted_ = false;
}

uint32_t ClfCursor::num_clients() const { return reader_.num_clients(); }

uint32_t ClfCursor::num_servers() const { return corpus_->num_servers(); }

const Status& ClfCursor::status() const { return status_; }

// ---------------------------------------------------------------------------
// FilteringCursor

FilteringCursor::FilteringCursor(std::unique_ptr<RequestCursor> inner)
    : inner_(std::move(inner)) {}

std::span<const Request> FilteringCursor::NextChunk() {
  while (true) {
    const std::span<const Request> in = inner_->NextChunk();
    if (in.empty()) return {};
    chunk_.clear();
    for (Request r : in) {
      if (CleanRequest(&r)) chunk_.push_back(r);
    }
    if (!chunk_.empty()) return chunk_;
  }
}

void FilteringCursor::Rewind() {
  chunk_.clear();
  inner_->Rewind();
}

uint32_t FilteringCursor::num_clients() const {
  return inner_->num_clients();
}

uint32_t FilteringCursor::num_servers() const {
  return inner_->num_servers();
}

const Status& FilteringCursor::status() const { return inner_->status(); }

// ---------------------------------------------------------------------------

Trace Materialize(RequestCursor* cursor) {
  Trace out;
  for (std::span<const Request> chunk = cursor->NextChunk(); !chunk.empty();
       chunk = cursor->NextChunk()) {
    out.requests.insert(out.requests.end(), chunk.begin(), chunk.end());
  }
  out.num_clients = cursor->num_clients();
  out.num_servers = cursor->num_servers();
  return out;
}

}  // namespace sds::trace
