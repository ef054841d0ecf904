// Service-time distributions: raw-moment bookkeeping plus sampling.
//
// The analytic machinery consumes only the first three raw moments (and, for
// short jobs, the exponential rate); the discrete-event simulator consumes
// samples. Both views live behind the Distribution interface so a single
// SystemConfig drives analysis and simulation alike.
//
// Throws csq::InvalidInputError (core/status.h) on malformed arguments.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>

namespace csq::dist {

// First three raw moments of a nonnegative random variable.
struct Moments {
  double m1 = 0.0;
  double m2 = 0.0;
  double m3 = 0.0;

  [[nodiscard]] double mean() const { return m1; }
  [[nodiscard]] double variance() const { return m2 - m1 * m1; }
  // Squared coefficient of variation C^2 = Var/mean^2.
  [[nodiscard]] double scv() const { return variance() / (m1 * m1); }

  // Moments of an exponential with the given mean: k! mean^k.
  static Moments exponential(double mean) {
    return {mean, 2.0 * mean * mean, 6.0 * mean * mean * mean};
  }
};

// One splitmix64 step: advances `state` and returns a well-mixed word.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256++ (Blackman & Vigna): 256 bits of state, one 64-bit word per
// call, a UniformRandomBitGenerator for the <random> distributions. Every
// uniform or exponential draw in the samplers consumes exactly one word.
class Rng {
 public:
  using result_type = std::uint64_t;

  // The four state words as given; they must not all be zero.
  explicit Rng(const std::array<std::uint64_t, 4>& state) : s_(state) {}
  // The state words are four successive splitmix64 outputs from `seed`
  // (never all zero: splitmix64 is a bijection of its counter).
  explicit Rng(std::uint64_t seed) {
    for (std::uint64_t& w : s_) w = splitmix64(seed);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t out = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return out;
  }

  // Equal state means equal future output: tests count the words a sampler
  // consumes by comparing generators.
  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  std::array<std::uint64_t, 4> s_{};
};

class Distribution {
 public:
  virtual ~Distribution() = default;

  [[nodiscard]] virtual double sample(Rng& rng) const = 0;
  // k in {1,2,3}.
  [[nodiscard]] virtual double moment(int k) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] double mean() const { return moment(1); }
  [[nodiscard]] Moments moments() const { return {moment(1), moment(2), moment(3)}; }
  [[nodiscard]] double scv() const { return moments().scv(); }
};

using DistPtr = std::shared_ptr<const Distribution>;

// Bounded Pareto on [lo, hi] with shape alpha — the canonical heavy-tailed
// job-size model in the task-assignment literature (Harchol-Balter et al.).
class BoundedPareto final : public Distribution {
 public:
  BoundedPareto(double lo, double hi, double alpha);
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] double moment(int k) const override;
  [[nodiscard]] std::string name() const override;

  // Bounded Pareto with the requested mean: solves for `lo` given hi, alpha.
  static BoundedPareto with_mean(double mean, double hi, double alpha);

 private:
  double lo_, hi_, alpha_;
  // lo^alpha, hi^alpha and -1/alpha, fixed at construction: the inverse CDF
  // in sample() needs all three on every draw.
  double lo_a_, hi_a_, neg_inv_alpha_;
};

}  // namespace csq::dist
