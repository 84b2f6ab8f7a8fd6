#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace faasflow {

void
Summary::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void
Summary::merge(const Summary& other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    n_ += other.n_;
}

double
Summary::min() const
{
    return n_ ? min_ : 0.0;
}

double
Summary::max() const
{
    return n_ ? max_ : 0.0;
}

double
Summary::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

void
Percentiles::add(double x)
{
    samples_.push_back(x);
    sorted_ = false;
}

void
Percentiles::merge(const Percentiles& other)
{
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sorted_ = false;
}

void
Percentiles::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
Percentiles::percentile(double p) const
{
    assert(p >= 0.0 && p <= 100.0);
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    if (samples_.size() == 1)
        return samples_[0];
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double
Percentiles::mean() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples_)
        s += x;
    return s / static_cast<double>(samples_.size());
}

double
Percentiles::max() const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return samples_.back();
}

double
Percentiles::min() const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return samples_.front();
}

}  // namespace faasflow
