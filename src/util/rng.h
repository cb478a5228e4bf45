#ifndef SDS_UTIL_RNG_H_
#define SDS_UTIL_RNG_H_

#include <cstdint>
#include <limits>

namespace sds {

/// \brief Deterministic pseudo-random number generator (xoshiro256**).
///
/// Every stochastic component in the library draws from an explicitly seeded
/// Rng so that all workloads, simulations and experiments are reproducible
/// bit-for-bit. The generator satisfies the C++ UniformRandomBitGenerator
/// concept and can therefore be used with <random> distributions, although
/// the library prefers the bundled distribution helpers (see
/// util/distributions.h) for cross-platform determinism.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the state from a single 64-bit seed using splitmix64, as
  /// recommended by the xoshiro authors.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  /// Returns the next 64 random bits.
  uint64_t operator()() { return Next(); }
  uint64_t Next() {
    const uint64_t result = RotL(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = RotL(s_[3], 45);
    return result;
  }

  /// Returns a uniformly distributed double in [0, 1).
  double NextDouble() {
    // 53 high bits -> uniform double in [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Returns a uniformly distributed integer in [0, bound). bound must be
  /// positive. Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound) {
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      const uint64_t threshold = -bound % bound;
      while (l < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Returns a uniformly distributed integer in [lo, hi] (inclusive).
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Returns true with probability p (clamped to [0, 1]). p <= 0 and
  /// p >= 1 consume no draw; NaN consumes one and returns false.
  bool NextBernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Returns a new generator whose stream is statistically independent of
  /// this one. Used to give each simulated entity (client, server, ...) its
  /// own stream so that adding entities does not perturb existing ones.
  Rng Fork();

  /// Mixes a 64-bit value into a well-distributed 64-bit hash (splitmix64
  /// finalizer). Handy for deriving per-entity seeds.
  static uint64_t Mix(uint64_t x);

 private:
  static uint64_t RotL(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace sds

#endif  // SDS_UTIL_RNG_H_
