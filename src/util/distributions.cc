#include "util/distributions.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace sds {

// ---------------------------------------------------------------------------
// ZipfDistribution
// ---------------------------------------------------------------------------

ZipfDistribution::ZipfDistribution(uint64_t n, double s) : n_(n), s_(s) {
  assert(n >= 1);
  assert(s > 0.0);
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n) + 0.5);
  accept_threshold_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -s));
  generalized_harmonic_ = 0.0;
  // Exact sum for moderate n; for very large n use the integral approximation
  // with Euler–Maclaurin correction to avoid an O(n) constructor.
  if (n <= 4'000'000) {
    for (uint64_t r = 1; r <= n; ++r) {
      generalized_harmonic_ += std::pow(static_cast<double>(r), -s);
    }
  } else {
    const double a = static_cast<double>(n);
    double integral;
    if (std::abs(s - 1.0) < 1e-12) {
      integral = std::log(a);
    } else {
      integral = (std::pow(a, 1.0 - s) - 1.0) / (1.0 - s);
    }
    generalized_harmonic_ =
        integral + 0.5 * (1.0 + std::pow(a, -s)) + s / 12.0;
  }
}

// H(x) = integral of x^-s; the antiderivative used by rejection-inversion.
double ZipfDistribution::H(double x) const {
  if (std::abs(s_ - 1.0) < 1e-12) return std::log(x);
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfDistribution::HInverse(double x) const {
  if (std::abs(s_ - 1.0) < 1e-12) return std::exp(x);
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

uint64_t ZipfDistribution::Sample(Rng* rng) const {
  if (n_ == 1) return 0;
  // Rejection-inversion (Hörmann & Derflinger 1996). Expected < 1.1
  // iterations for all s.
  while (true) {
    const double u = h_n_ + rng->NextDouble() * (h_x1_ - h_n_);
    const double x = HInverse(u);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    const double kd = static_cast<double>(k);
    if (kd - x <= accept_threshold_ ||
        u >= H(kd + 0.5) - std::pow(kd, -s_)) {
      return k - 1;  // convert to 0-based rank
    }
  }
}

double ZipfDistribution::Pmf(uint64_t rank) const {
  if (rank >= n_) return 0.0;
  return std::pow(static_cast<double>(rank + 1), -s_) / generalized_harmonic_;
}

// ---------------------------------------------------------------------------
// LognormalDistribution
// ---------------------------------------------------------------------------

LognormalDistribution::LognormalDistribution(double mu, double sigma)
    : mu_(mu), sigma_(sigma) {
  assert(sigma >= 0.0);
}

double LognormalDistribution::Sample(Rng* rng) const {
  return std::exp(mu_ + sigma_ * SampleStandardNormal(rng));
}

double LognormalDistribution::Mean() const {
  return std::exp(mu_ + 0.5 * sigma_ * sigma_);
}

double LognormalDistribution::Median() const { return std::exp(mu_); }

// ---------------------------------------------------------------------------
// BoundedParetoDistribution
// ---------------------------------------------------------------------------

BoundedParetoDistribution::BoundedParetoDistribution(double alpha, double lo,
                                                     double hi)
    : alpha_(alpha), lo_(lo), hi_(hi) {
  assert(alpha > 0.0);
  assert(lo > 0.0);
  assert(hi > lo);
}

double BoundedParetoDistribution::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  const double la = std::pow(lo_, alpha_);
  const double ha = std::pow(hi_, alpha_);
  // Inverse CDF of the bounded Pareto.
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha_);
}

double BoundedParetoDistribution::Mean() const {
  if (std::abs(alpha_ - 1.0) < 1e-12) {
    const double la = std::pow(lo_, alpha_);
    const double ha = std::pow(hi_, alpha_);
    return la / (1.0 - la / ha) * std::log(hi_ / lo_);
  }
  const double la = std::pow(lo_, alpha_);
  const double ha = std::pow(hi_, alpha_);
  return la / (1.0 - la / ha) * alpha_ / (alpha_ - 1.0) *
         (1.0 / std::pow(lo_, alpha_ - 1.0) - 1.0 / std::pow(hi_, alpha_ - 1.0));
}

// ---------------------------------------------------------------------------
// ExponentialDistribution
// ---------------------------------------------------------------------------

ExponentialDistribution::ExponentialDistribution(double lambda)
    : lambda_(lambda) {
  assert(lambda > 0.0);
}

double ExponentialDistribution::Sample(Rng* rng) const {
  // Use 1 - u so the argument of log is in (0, 1].
  return -std::log(1.0 - rng->NextDouble()) / lambda_;
}

// ---------------------------------------------------------------------------
// GeometricDistribution
// ---------------------------------------------------------------------------

GeometricDistribution::GeometricDistribution(double p) : p_(p) {
  assert(p > 0.0 && p <= 1.0);
}

uint64_t GeometricDistribution::Sample(Rng* rng) const {
  if (p_ >= 1.0) return 1;
  const double u = 1.0 - rng->NextDouble();  // in (0, 1]
  return 1 + static_cast<uint64_t>(std::floor(std::log(u) /
                                              std::log(1.0 - p_)));
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

double SampleStandardNormal(Rng* rng) {
  // Box–Muller; uses one of the two produced values for simplicity.
  double u1 = rng->NextDouble();
  while (u1 <= 0.0) u1 = rng->NextDouble();
  const double u2 = rng->NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

uint64_t SampleDiscrete(const std::vector<double>& weights, Rng* rng) {
  double total = 0.0;
  for (double w : weights) total += w;
  assert(total > 0.0);
  double x = rng->NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  const size_t n = weights.size();
  assert(n > 0);
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);

  columns_.assign(n, Column{});
  std::vector<double> scaled(n);
  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    columns_[s] = Column{scaled[s], l};
    scaled[l] = scaled[l] + scaled[s] - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (uint32_t i : large) columns_[i].prob = 1.0;
  for (uint32_t i : small) columns_[i].prob = 1.0;
}

}  // namespace sds
