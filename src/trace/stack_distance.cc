#include "src/trace/stack_distance.h"

#include <algorithm>

namespace recssd
{

std::uint64_t
StackDistanceAnalyzer::access(std::uint64_t key)
{
    ++accesses_;
    std::size_t d = stack_.touch(key);
    if (d == RecencyStack::absent)
        return coldDistance;
    if (countByDistance_.size() <= d)
        countByDistance_.resize(d + 1, 0);
    ++countByDistance_[d];
    return d;
}

double
StackDistanceAnalyzer::hitRateAtCapacity(std::uint64_t capacity) const
{
    if (accesses_ == 0)
        return 0.0;
    std::uint64_t hits = 0;
    std::uint64_t limit =
        std::min<std::uint64_t>(capacity, countByDistance_.size());
    for (std::uint64_t d = 0; d < limit; ++d)
        hits += countByDistance_[d];
    return static_cast<double>(hits) / static_cast<double>(accesses_);
}

}  // namespace recssd
