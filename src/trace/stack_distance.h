/**
 * @file
 * LRU stack-distance analysis of an access sequence.
 *
 * Used to validate the locality trace generator against the paper's
 * calibration points (unique fraction, reuse-distance distribution)
 * and by the characterization benches.
 */

#ifndef RECSSD_TRACE_STACK_DISTANCE_H
#define RECSSD_TRACE_STACK_DISTANCE_H

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/trace/recency_stack.h"

namespace recssd
{

class StackDistanceAnalyzer
{
  public:
    /** Distance reported for first-time (cold) accesses. */
    static constexpr std::uint64_t coldDistance = ~std::uint64_t(0);

    /** Feed one access; @return its LRU stack distance. */
    std::uint64_t access(std::uint64_t key);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t uniqueKeys() const { return stack_.size(); }

    /** Fraction of accesses that were first-time touches. */
    double
    uniqueFraction() const
    {
        return accesses_ ? static_cast<double>(uniqueKeys()) / accesses_
                         : 0.0;
    }

    /**
     * Fraction of accesses an LRU cache holding `capacity` distinct
     * keys would have hit (reuse distance < capacity; cold accesses
     * always miss).
     */
    double hitRateAtCapacity(std::uint64_t capacity) const;

  private:
    /** Every key seen so far, in LRU order (never truncated). */
    RecencyStack stack_;
    std::uint64_t accesses_ = 0;
    /** countByDistance_[d] = reuses observed at stack distance d. */
    std::vector<std::uint64_t> countByDistance_;
};

}  // namespace recssd

#endif  // RECSSD_TRACE_STACK_DISTANCE_H
