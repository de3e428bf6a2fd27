#include "analysis/timeseries.hh"

#include <algorithm>

namespace deskpar::analysis {

double
TimeSeries::maxValue() const
{
    double best = 0.0;
    for (const auto &p : points)
        best = std::max(best, p.value);
    return best;
}

double
TimeSeries::meanValue() const
{
    if (points.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &p : points)
        sum += p.value;
    return sum / static_cast<double>(points.size());
}

} // namespace deskpar::analysis
