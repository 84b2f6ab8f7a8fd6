#ifndef FAASFLOW_COMMON_RNG_H_
#define FAASFLOW_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace faasflow {

/** The SplitMix64 increment, 2^64 divided by the golden ratio. */
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/**
 * The SplitMix64 output finalizer: a bijective avalanche of all 64 bits.
 * Rng seeding runs it over a gamma-stepped counter; stateless draws (a
 * per-invocation seed, a switch branch) run it over their own mix.
 */
constexpr uint64_t
splitMix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Deterministic pseudo-random number generator (xoshiro256**), seeded via
 * SplitMix64.
 *
 * The simulator must be reproducible run-to-run, so every stochastic
 * component takes an explicit Rng (or a seed) instead of using global
 * state. xoshiro256** is small, fast, and has no measurable bias for the
 * distributions used here.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = kSplitMix64Gamma);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Exponentially distributed sample with the given mean (> 0). */
    double exponential(double mean);

    /** Standard normal via Box-Muller, scaled to (mean, stddev). */
    double normal(double mean, double stddev);

    /**
     * Lognormal sample parameterised by the *target* mean and the sigma of
     * the underlying normal. Used for execution-time jitter where long
     * right tails are realistic.
     */
    double lognormal(double mean, double sigma);

    /** Fisher-Yates shuffle of indices [0, n). */
    std::vector<size_t> permutation(size_t n);

    /** Derives an independent child generator (stream splitting). */
    Rng split();

  private:
    uint64_t s_[4];
    bool has_spare_normal_ = false;
    double spare_normal_ = 0.0;
};

}  // namespace faasflow

#endif  // FAASFLOW_COMMON_RNG_H_
