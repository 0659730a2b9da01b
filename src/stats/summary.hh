/**
 * @file
 * Running summary statistics and small aggregate helpers (geometric
 * mean, ratios) used by the experiment harness when reporting the
 * paper's per-benchmark rows and geomean columns.
 */

#ifndef CHERIVOKE_STATS_SUMMARY_HH
#define CHERIVOKE_STATS_SUMMARY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cherivoke {
namespace stats {

/** Single-pass running mean / min / max / variance (Welford). */
class Summary
{
  public:
    void add(double sample);

    size_t count() const { return count_; }
    double mean() const;
    double min() const;
    double max() const;
    /** Sample variance (n-1 denominator); 0 for fewer than 2 samples. */
    double variance() const;
    double stddev() const;
    double total() const { return total_; }

  private:
    size_t count_ = 0;
    double mean_ = 0;
    double m2_ = 0;
    double min_ = 0;
    double max_ = 0;
    double total_ = 0;
};

/** Geometric mean of a vector of positive values. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &values);

} // namespace stats
} // namespace cherivoke

#endif // CHERIVOKE_STATS_SUMMARY_HH
