#include "stats/summary.hh"

#include <cmath>

#include "support/logging.hh"

namespace cherivoke {
namespace stats {

void
Summary::add(double sample)
{
    if (count_ == 0) {
        min_ = max_ = sample;
    } else {
        if (sample < min_)
            min_ = sample;
        if (sample > max_)
            max_ = sample;
    }
    ++count_;
    total_ += sample;
    const double delta = sample - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (sample - mean_);
}

double
Summary::mean() const
{
    return count_ == 0 ? 0.0 : mean_;
}

double
Summary::min() const
{
    return count_ == 0 ? 0.0 : min_;
}

double
Summary::max() const
{
    return count_ == 0 ? 0.0 : max_;
}

double
Summary::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0;
    for (double v : values) {
        CHERIVOKE_ASSERT(v > 0, "(geomean requires positive values)");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace stats
} // namespace cherivoke
