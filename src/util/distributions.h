#ifndef SDS_UTIL_DISTRIBUTIONS_H_
#define SDS_UTIL_DISTRIBUTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace sds {

/// \brief Zipf(s) distribution over ranks {0, 1, ..., n-1}.
///
/// P(rank = r) proportional to 1 / (r+1)^s. Web document popularity is
/// famously Zipf-like (the paper's Figure 1: 0.5% of bytes account for 69% of
/// requests), so this is the workhorse of the synthetic workload generator.
///
/// Sampling uses the rejection-inversion method of Hörmann & Derflinger
/// (1996), which is O(1) per sample independent of n.
class ZipfDistribution {
 public:
  /// \param n number of ranks (must be >= 1)
  /// \param s skew exponent (must be > 0; s != 1 handled as well as s == 1)
  ZipfDistribution(uint64_t n, double s);

  uint64_t n() const { return n_; }
  double s() const { return s_; }

  /// Draws a rank in [0, n).
  uint64_t Sample(Rng* rng) const;

  /// Probability mass of a given rank.
  double Pmf(uint64_t rank) const;

 private:
  double H(double x) const;
  double HInverse(double x) const;

  uint64_t n_;
  double s_;
  double h_x1_;               // H(1.5) - 1
  double h_n_;                // H(n + 0.5)
  double accept_threshold_;   // precomputed rejection threshold
  double generalized_harmonic_;  // sum_{r=1..n} r^-s
};

/// \brief Lognormal distribution; used for think times and document sizes.
class LognormalDistribution {
 public:
  /// \param mu mean of the underlying normal
  /// \param sigma stddev of the underlying normal (must be >= 0)
  LognormalDistribution(double mu, double sigma);

  double Sample(Rng* rng) const;
  double Mean() const;
  double Median() const;

 private:
  double mu_;
  double sigma_;
};

/// \brief Pareto distribution bounded to [lo, hi]; models heavy-tailed
/// document sizes (a small number of very large multimedia objects).
class BoundedParetoDistribution {
 public:
  /// \param alpha tail index (> 0)
  /// \param lo minimum value (> 0)
  /// \param hi maximum value (> lo)
  BoundedParetoDistribution(double alpha, double lo, double hi);

  double Sample(Rng* rng) const;
  double Mean() const;

 private:
  double alpha_;
  double lo_;
  double hi_;
};

/// \brief Exponential distribution with rate lambda; inter-arrival times.
class ExponentialDistribution {
 public:
  explicit ExponentialDistribution(double lambda);

  double Sample(Rng* rng) const;
  double Mean() const { return 1.0 / lambda_; }

 private:
  double lambda_;
};

/// \brief Geometric distribution over {1, 2, ...} with success probability p;
/// models hyperlink out-degrees and session lengths.
class GeometricDistribution {
 public:
  explicit GeometricDistribution(double p);

  uint64_t Sample(Rng* rng) const;
  double Mean() const { return 1.0 / p_; }

 private:
  double p_;
};

/// \brief Standard normal sample (Box–Muller, deterministic across
/// platforms unlike std::normal_distribution).
double SampleStandardNormal(Rng* rng);

/// \brief Samples an index in [0, weights.size()) with probability
/// proportional to weights[i]. Weights must be non-negative with a positive
/// sum. O(n); for repeated sampling use DiscreteSampler.
uint64_t SampleDiscrete(const std::vector<double>& weights, Rng* rng);

/// \brief Alias-method sampler for repeated draws from a fixed discrete
/// distribution in O(1) per draw.
class DiscreteSampler {
 public:
  /// Builds Vose's alias tables; weights must be non-negative with a
  /// positive sum.
  explicit DiscreteSampler(const std::vector<double>& weights);

  uint64_t Sample(Rng* rng) const {
    const uint64_t column = rng->NextBounded(columns_.size());
    const Column& c = columns_[column];
    return rng->NextDouble() < c.prob ? column : c.alias;
  }
  size_t size() const { return columns_.size(); }

 private:
  /// One alias-table column; probability and alias share a cache line.
  struct Column {
    double prob = 0.0;
    uint32_t alias = 0;
  };
  std::vector<Column> columns_;
};

}  // namespace sds

#endif  // SDS_UTIL_DISTRIBUTIONS_H_
