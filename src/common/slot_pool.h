/**
 * @file
 * Index-addressed table of in-flight operation records.
 *
 * The mechanism hops (flash, PCIe, NVMe controller, driver) park an
 * operation's state here and hand the event queue a `{this, index}`
 * closure, which fits `std::function`'s local buffer, instead of a
 * closure that owns the state (DESIGN.md "Simulator cost"). The table
 * grows on demand and recycles freed indices, so once it has reached
 * a run's peak in-flight count no hop allocates.
 *
 * Records may move when the table grows: never hold a reference to
 * one across a call that can start another operation on the same
 * table. Take the record out (`take`) before running a continuation.
 */

#ifndef RECSSD_COMMON_SLOT_POOL_H
#define RECSSD_COMMON_SLOT_POOL_H

#include <cstdint>
#include <utility>
#include <vector>

namespace recssd
{

template <typename T>
class SlotPool
{
  public:
    /** Store `rec`; @return its index until `take`/`drop`. */
    std::uint32_t
    put(T rec)
    {
        if (free_.empty()) {
            slots_.push_back(std::move(rec));
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        std::uint32_t i = free_.back();
        free_.pop_back();
        slots_[i] = std::move(rec);
        return i;
    }

    T &operator[](std::uint32_t i) { return slots_[i]; }

    /** Move the record out and free its index. */
    T
    take(std::uint32_t i)
    {
        T rec = std::move(slots_[i]);
        slots_[i] = T{};
        free_.push_back(i);
        return rec;
    }

    /** Free an index whose operation was abandoned. */
    void drop(std::uint32_t i) { take(i); }

  private:
    std::vector<T> slots_;
    std::vector<std::uint32_t> free_;
};

}  // namespace recssd

#endif  // RECSSD_COMMON_SLOT_POOL_H
