#include "util/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace hdmr::util
{

void
RunningStats::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
RunningStats::min() const
{
    hdmr_assert(count_ > 0);
    return min_;
}

double
RunningStats::max() const
{
    hdmr_assert(count_ > 0);
    return max_;
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stdev() const
{
    return std::sqrt(variance());
}

double
RunningStats::confidenceHalfWidth(double confidence) const
{
    if (count_ < 2)
        return 0.0;
    const double alpha = 1.0 - confidence;
    const double z = inverseNormalCdf(1.0 - alpha / 2.0);
    return z * stdev() / std::sqrt(static_cast<double>(count_));
}

double
mean(const std::vector<double> &xs)
{
    RunningStats s;
    for (double x : xs)
        s.add(x);
    return s.count() ? s.mean() : 0.0;
}

double
stdev(const std::vector<double> &xs)
{
    RunningStats s;
    for (double x : xs)
        s.add(x);
    return s.stdev();
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs) {
        hdmr_assert(x > 0.0, "geomean input must be positive, got %f", x);
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
percentile(std::vector<double> xs, double p)
{
    hdmr_assert(!xs.empty());
    hdmr_assert(p >= 0.0 && p <= 100.0);
    std::sort(xs.begin(), xs.end());
    if (xs.size() == 1)
        return xs.front();
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double
inverseNormalCdf(double p)
{
    hdmr_assert(p > 0.0 && p < 1.0);

    // Peter Acklam's rational approximation.
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};
    const double p_low = 0.02425;
    const double p_high = 1.0 - p_low;

    if (p < p_low) {
        const double q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
                c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    if (p <= p_high) {
        const double q = p - 0.5;
        const double r = q * q;
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
                a[5]) *
               q /
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
                1.0);
    }
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), binWidth_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0.0)
{
    hdmr_assert(hi > lo && bins > 0);
}

void
Histogram::add(double x, double weight)
{
    auto bin = static_cast<std::ptrdiff_t>((x - lo_) / binWidth_);
    bin = std::clamp<std::ptrdiff_t>(
        bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
    counts_[static_cast<std::size_t>(bin)] += weight;
    total_ += weight;
    raw_.push_back(x);
}

double
Histogram::binLow(std::size_t i) const
{
    return lo_ + binWidth_ * static_cast<double>(i);
}

double
Histogram::binHigh(std::size_t i) const
{
    return binLow(i) + binWidth_;
}

double
Histogram::fraction(std::size_t i) const
{
    return total_ > 0.0 ? counts_[i] / total_ : 0.0;
}

double
Histogram::fractionAtLeast(double x) const
{
    if (raw_.empty())
        return 0.0;
    std::size_t n = 0;
    for (double v : raw_)
        if (v >= x)
            ++n;
    return static_cast<double>(n) / static_cast<double>(raw_.size());
}

std::string
Histogram::toAscii(std::size_t width) const
{
    double max_count = 0.0;
    for (double c : counts_)
        max_count = std::max(max_count, c);
    std::ostringstream out;
    char label[64];
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        std::snprintf(label, sizeof(label), "[%8.1f, %8.1f) %6.0f |",
                      binLow(i), binHigh(i), counts_[i]);
        out << label;
        const auto bar =
            max_count > 0.0
                ? static_cast<std::size_t>(counts_[i] / max_count *
                                           static_cast<double>(width))
                : 0;
        out << std::string(bar, '#') << '\n';
    }
    return out.str();
}

} // namespace hdmr::util
