#ifndef FAASFLOW_COMMON_STATS_H_
#define FAASFLOW_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace faasflow {

/**
 * Streaming summary statistics (count/mean/min/max/stddev) using Welford's
 * online algorithm, so millions of samples cost O(1) memory.
 */
class Summary
{
  public:
    /** Adds one observation. */
    void add(double x);

    /** Merges another summary into this one (parallel collection). */
    void merge(const Summary& other);

    size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const;
    double max() const;

    /** Sample variance (n-1 denominator); 0 for fewer than two samples. */
    double variance() const;
    double stddev() const;
    double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

  private:
    size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Sample reservoir that retains every observation for exact percentile
 * queries. The paper reports 99%-ile latencies over 1000 invocations, so
 * exact storage is cheap and avoids quantile-sketch error.
 */
class Percentiles
{
  public:
    void add(double x);
    void merge(const Percentiles& other);

    size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /**
     * Exact percentile via linear interpolation between closest ranks.
     * @param p percentile in [0, 100].
     */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p99() const { return percentile(99.0); }
    double mean() const;
    double max() const;
    double min() const;

    const std::vector<double>& samples() const { return samples_; }

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;

    void ensureSorted() const;
};

}  // namespace faasflow

#endif  // FAASFLOW_COMMON_STATS_H_
