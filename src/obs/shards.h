#ifndef SDS_OBS_SHARDS_H_
#define SDS_OBS_SHARDS_H_

// Internal to src/obs: the recorder lifecycle shared by every sink
// (metrics, time series, journeys, stage spans, flight events).
//
// Each recording thread owns one shard of each sink it records into. The
// shard is registered on the thread's first record and written without a
// lock; when the thread exits, its shard is folded into the sink's retired
// state under the registry mutex, which is exactly the sweep-join point for
// `core::RunSweep` workers. Snapshot and Reset take the same mutex and must
// only run at join points (no concurrent recorders).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

namespace sds::obs::internal {

/// The switch behind obs::Enabled() (metrics.cc), read inline by record
/// functions: across a call to Enabled() their arguments would need saved
/// registers before the disabled early-out.
extern std::atomic<bool> g_enabled;

inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

/// Small per-process index of the calling thread, handed out in order of
/// first use. The span tracer and the flight recorder stamp it on their
/// records, so one thread carries the same `tid` in both.
inline int32_t ThreadIndex() {
  static std::atomic<int32_t> next{0};
  thread_local const int32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// Retired ring records are capped so a pathological run cannot grow
/// without bound; beyond the cap further retirements only count drops.
inline constexpr size_t kRetiredCapacity = 1 << 16;

/// \brief Bounded per-thread event ring: keeps the newest N records, the
/// oldest overwritten first and counted as dropped.
template <typename T, size_t N>
struct Ring {
  std::vector<T> items;  ///< Insertion order; wraps at capacity.
  size_t next = 0;       ///< Overwrite cursor once full.
  uint64_t dropped = 0;
  int32_t tid = ThreadIndex();  ///< Built on the owning thread.

  void Push(const T& item) {
    if (items.size() < N) {
      items.push_back(item);
    } else {
      items[next] = item;
      next = (next + 1) % N;
      ++dropped;
    }
  }
  void Clear() {
    items.clear();
    next = 0;
    dropped = 0;
  }
  /// Appends the held records (storage order) and the drop count; records
  /// that would grow `out` past `cap` are counted as dropped instead.
  void AppendTo(std::vector<T>* out, uint64_t* out_dropped,
                size_t cap = std::numeric_limits<size_t>::max()) const {
    const size_t kept =
        std::min(items.size(), cap - std::min(cap, out->size()));
    out->insert(out->end(), items.begin(), items.begin() + kept);
    *out_dropped += dropped + (items.size() - kept);
  }
};

/// \brief The leaked registry of one sink.
///
/// `Sink` supplies `Shard` (one thread's private state, with `Clear()`),
/// `Retired` (the shared state, value-initialised empty) and
/// `static void Fold(const Shard&, Retired*)`, which merges a shard into a
/// snapshot. An optional `static void Retire(const Shard&, Retired*)`
/// replaces Fold when a thread exits, and an optional
/// `static void Clear(Retired*)` replaces reassigning an empty Retired on
/// Reset (the record-list sinks keep their capacity, so a reset run does
/// not pay the list's growth again).
template <typename Sink>
class Registry {
 public:
  using Shard = typename Sink::Shard;
  using Retired = typename Sink::Retired;

  /// The calling thread's shard; registers it on first use. This is the
  /// whole record-path cost of the lifecycle: one thread_local access.
  static Shard& Local() {
    thread_local Handle handle;
    return handle.shard;
  }

  /// Copy of the retired state with every live shard folded in.
  static Retired Snapshot() {
    Registry& registry = Get();
    std::lock_guard<std::mutex> lock(registry.mutex_);
    return registry.SnapshotLocked();
  }

  /// Snapshot for a fatal-signal handler: gives up (returns false) instead
  /// of blocking when the registry lock is held, e.g. by the crashing
  /// thread itself.
  static bool TrySnapshot(Retired* out) {
    Registry& registry = Get();
    if (!registry.mutex_.try_lock()) return false;
    *out = registry.SnapshotLocked();
    registry.mutex_.unlock();
    return true;
  }

  /// Clears the retired state and every live shard.
  static void Reset() {
    Registry& registry = Get();
    std::lock_guard<std::mutex> lock(registry.mutex_);
    if constexpr (requires { Sink::Clear(&registry.retired_); }) {
      Sink::Clear(&registry.retired_);
    } else {
      registry.retired_ = Retired{};
    }
    for (Shard* shard : registry.live_) shard->Clear();
  }

  /// Runs `fn(retired)` under the registry lock, for sink state that is
  /// shared across threads outside any shard.
  template <typename Fn>
  static auto WithRetired(Fn&& fn) {
    Registry& registry = Get();
    std::lock_guard<std::mutex> lock(registry.mutex_);
    return fn(registry.retired_);
  }

 private:
  struct Handle {
    Shard shard;
    // Out of line: registration runs once per thread, and inlined into a
    // record function it costs that function's disabled early-out its
    // shrink-wrapped prologue (six register saves per obs-off call).
    [[gnu::noinline]] Handle() {
      Registry& registry = Get();
      std::lock_guard<std::mutex> lock(registry.mutex_);
      registry.live_.push_back(&shard);
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() {
      Registry& registry = Get();
      std::lock_guard<std::mutex> lock(registry.mutex_);
      if constexpr (requires { Sink::Retire(shard, &registry.retired_); }) {
        Sink::Retire(shard, &registry.retired_);
      } else {
        Sink::Fold(shard, &registry.retired_);
      }
      registry.live_.erase(
          std::find(registry.live_.begin(), registry.live_.end(), &shard));
    }
  };

  /// Leaked on purpose: thread_local shard destructors (including the main
  /// thread's, at process exit) must always find a live registry.
  static Registry& Get() {
    static Registry* registry = new Registry;
    return *registry;
  }

  Retired SnapshotLocked() const {
    Retired merged = retired_;
    for (const Shard* shard : live_) Sink::Fold(*shard, &merged);
    return merged;
  }

  std::mutex mutex_;
  std::vector<Shard*> live_;
  Retired retired_{};
};

}  // namespace sds::obs::internal

#endif  // SDS_OBS_SHARDS_H_
