/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single `EventQueue` drives a whole simulated machine (host CPU,
 * PCIe, SSD firmware, flash channels). Components schedule callbacks
 * at absolute or relative ticks; events scheduled for the same tick
 * fire in FIFO order, which keeps the simulation deterministic.
 *
 * Layout (DESIGN.md "Simulator cost"): callbacks live in a chunked
 * slot arena and never move once scheduled; the heap orders 16-byte
 * (when, seq|slot) keys in a 4-ary layout. A callback whose closure
 * fits `std::function`'s local buffer (16 bytes, e.g. `{this, index}`)
 * is scheduled without touching the allocator once the arena has
 * grown to the run's peak depth.
 */

#ifndef RECSSD_COMMON_EVENT_QUEUE_H
#define RECSSD_COMMON_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/analysis.h"
#include "src/common/types.h"

namespace recssd
{

class Tracer;                // src/obs — attached here so every layer
class UtilizationCollector;  // can reach them without new plumbing

/** Priority queue of timed callbacks; the heart of the simulator. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback at an absolute tick (>= now).
     *
     * The callback is a *deferred body* under the deferred-state
     * protocol (DESIGN.md): its captures are issue-time snapshots, so
     * mapping-derived state must be re-validated inside before use
     * and reference captures need an ownership annotation.
     */
    void schedule(Tick when, Callback cb) RECSSD_DEFERS_CALLBACK;

    /** Schedule a callback `delay` ticks from now. */
    void scheduleAfter(Tick delay, Callback cb) RECSSD_DEFERS_CALLBACK
    {
        schedule(now_ + delay, std::move(cb));
    }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /**
     * Execute the next event, advancing time to its tick.
     * @retval false if the queue was empty.
     */
    bool runOne();

    /** Run until the queue drains. @return final simulated time. */
    Tick run();

    /**
     * Run events with tick <= limit; time ends at min(limit, drain).
     * Events scheduled beyond the limit stay queued.
     */
    Tick runUntil(Tick limit);

    /** Total number of events ever executed. */
    std::uint64_t executed() const { return executed_; }

    /** @{ Observability hook. Every component holds an EventQueue
     *  reference, so the queue doubles as the rendezvous point for the
     *  span tracer: null (the default) means tracing is off and
     *  instrumentation points cost one pointer check. */
    Tracer *tracer() const { return tracer_; }
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /** Same pattern for the resource-utilization collector: null (the
     *  default) means collection is off and every resource acquire
     *  pays one pointer check. */
    UtilizationCollector *util() const { return util_; }
    void setUtil(UtilizationCollector *util) { util_ = util; }
    /** @} */

  private:
    /**
     * Heap entry, 16 bytes so a node's four children share one cache
     * line: the tick, then the schedule sequence number in the high
     * bits of `order` and the callback's arena slot in the low ones.
     * Sequence numbers are unique, so ordering on (when, order) is
     * ordering on (when, seq).
     */
    struct Key
    {
        Tick when;
        std::uint64_t order;

        std::uint64_t seq() const { return order >> slotBits; }
        std::uint32_t
        slot() const
        {
            return static_cast<std::uint32_t>(order & slotMask);
        }
    };

    /** Pending-event capacity is 2^24 slots; sequence numbers get the
     *  other 40 bits (10^12 events per queue). */
    static constexpr unsigned slotBits = 24;
    static constexpr std::uint64_t slotMask = (1ull << slotBits) - 1;

    static bool
    before(const Key &a, const Key &b)
    {
        // One 128-bit compare: branch-free, unlike the two-field
        // cascade, whose equal-tick branch is unpredictable.
        using Wide = unsigned __int128;
        return ((Wide(a.when) << 64) | a.order) <
               ((Wide(b.when) << 64) | b.order);
    }

    /** Slots per arena chunk; chunks are allocated on demand. */
    static constexpr unsigned chunkBits = 10;
    static constexpr std::uint32_t chunkMask = (1u << chunkBits) - 1;

    Callback &
    slotAt(std::uint32_t slot)
    {
        return chunks_[slot >> chunkBits][slot & chunkMask];
    }

    /** Park `cb` in a free arena slot; @return its index. */
    std::uint32_t park(Callback cb);

    void siftUp(std::size_t i);
    /** Remove the root (the earliest key). */
    void popTop();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    Tracer *tracer_ = nullptr;
    UtilizationCollector *util_ = nullptr;

    /** 4-ary min-heap on (when, seq). */
    std::vector<Key> heap_;
    /** Callback arena: fixed-size chunks, so a callback stays put
     *  while it runs even if it schedules enough to grow the arena. */
    std::vector<std::unique_ptr<Callback[]>> chunks_;
    std::uint32_t slotsUsed_ = 0;  ///< high-water mark of slot indices
    std::vector<std::uint32_t> freeSlots_;

    /** @{ RECSSD_AUDIT: pops must be strictly increasing in
     *  (when, seq) -- time never runs backwards, and same-tick events
     *  fire in FIFO order.  `audit_` caches the env lookup once. */
    bool audit_;
    bool popped_ = false;
    Tick lastWhen_ = 0;
    std::uint64_t lastSeq_ = 0;
    /** @} */
};

}  // namespace recssd

#endif  // RECSSD_COMMON_EVENT_QUEUE_H
