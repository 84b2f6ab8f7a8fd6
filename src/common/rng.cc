#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace faasflow {

namespace {

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(uint64_t seed)
{
    // SplitMix64 expands the single seed into generator state.
    uint64_t x = seed;
    for (auto& s : s_) {
        x += kSplitMix64Gamma;
        s = splitMix64(x);
    }
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    assert(lo <= hi);
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    if (span == 0)  // full 64-bit range
        return static_cast<int64_t>(next());
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return lo + static_cast<int64_t>(v % span);
}

double
Rng::exponential(double mean)
{
    assert(mean > 0.0);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::normal(double mean, double stddev)
{
    if (has_spare_normal_) {
        has_spare_normal_ = false;
        return mean + stddev * spare_normal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spare_normal_ = r * std::sin(theta);
    has_spare_normal_ = true;
    return mean + stddev * r * std::cos(theta);
}

double
Rng::lognormal(double mean, double sigma)
{
    assert(mean > 0.0);
    // Choose mu so the distribution's mean equals `mean`.
    const double mu = std::log(mean) - 0.5 * sigma * sigma;
    return std::exp(normal(mu, sigma));
}

std::vector<size_t>
Rng::permutation(size_t n)
{
    std::vector<size_t> p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = i;
    for (size_t i = n; i > 1; --i) {
        const size_t j = static_cast<size_t>(uniformInt(0, static_cast<int64_t>(i) - 1));
        std::swap(p[i - 1], p[j]);
    }
    return p;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

}  // namespace faasflow
