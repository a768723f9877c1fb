#include "src/common/event_queue.h"

#include "src/common/audit.h"
#include "src/common/logging.h"

namespace recssd
{

EventQueue::EventQueue() : audit_(auditEnabled())
{
}

std::uint32_t
EventQueue::park(Callback cb)
{
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        recssd_assert(slotsUsed_ <= slotMask,
                      "more than 2^24 events pending at once");
        if ((slotsUsed_ & chunkMask) == 0)
            chunks_.push_back(std::make_unique<Callback[]>(chunkMask + 1));
        slot = slotsUsed_++;
    }
    slotAt(slot) = std::move(cb);
    return slot;
}

void
EventQueue::siftUp(std::size_t i)
{
    Key key = heap_[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / 4;
        if (!before(key, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = key;
}

void
EventQueue::popTop()
{
    // Floyd's bottom-up pop: walk the hole left by the root down the
    // smaller-child path to a leaf (three compares per level, none
    // against the moved element), then sift the last element up from
    // there. The last element is a leaf-level key, so it rarely rises.
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return;
    std::size_t hole = 0;
    while (true) {
        std::size_t first = 4 * hole + 1;
        if (first >= n)
            break;
        std::size_t end = first + 4 < n ? first + 4 : n;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c) {
            if (before(heap_[c], heap_[best]))
                best = c;
        }
        heap_[hole] = heap_[best];
        hole = best;
    }
    heap_[hole] = last;
    siftUp(hole);
}

void
EventQueue::schedule(Tick when, Callback cb)
{
    recssd_assert(when >= now_, "cannot schedule in the past (%llu < %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now_));
    recssd_assert(cb != nullptr, "cannot schedule a null callback");
    recssd_assert(nextSeq_ >> (64 - slotBits) == 0,
                  "event sequence numbers exhausted");
    std::uint32_t slot = park(std::move(cb));
    heap_.push_back(Key{when, (nextSeq_++ << slotBits) | slot});
    siftUp(heap_.size() - 1);
}

bool
EventQueue::runOne()
{
    if (heap_.empty())
        return false;
    const Key top = heap_.front();
    popTop();
    if (audit_) {
        recssd_assert(!popped_ || top.when > lastWhen_ ||
                          (top.when == lastWhen_ && top.seq() > lastSeq_),
                      "audit: event pop order regressed "
                      "(when=%llu seq=%llu after when=%llu seq=%llu)",
                      static_cast<unsigned long long>(top.when),
                      static_cast<unsigned long long>(top.seq()),
                      static_cast<unsigned long long>(lastWhen_),
                      static_cast<unsigned long long>(lastSeq_));
        popped_ = true;
        lastWhen_ = top.when;
        lastSeq_ = top.seq();
    }
    now_ = top.when;
    ++executed_;
    // The callback runs in place (chunks never move); its slot is
    // recycled only after it returns, so whatever it schedules lands
    // in other slots.
    Callback &cb = slotAt(top.slot());
    cb();
    cb = nullptr;
    freeSlots_.push_back(top.slot());
    return true;
}

Tick
EventQueue::run()
{
    while (runOne()) {
    }
    return now_;
}

Tick
EventQueue::runUntil(Tick limit)
{
    if (empty())
        return now_;  // nothing to simulate; time does not flow
    while (!heap_.empty() && heap_.front().when <= limit)
        runOne();
    if (now_ < limit)
        now_ = limit;
    return now_;
}

}  // namespace recssd
