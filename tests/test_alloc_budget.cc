/**
 * @file
 * Allocation budget of the event hot path.
 *
 * A counting replacement of the global `operator new` measures heap
 * allocations over a fixed small 8-SSD range-sharded NDP serve and
 * holds them to a per-flash-page-read budget; a second test proves
 * that once the event queue has grown to its working depth, scheduling
 * a closure that fits `std::function`'s local buffer allocates
 * nothing. Allocation counts are deterministic, so these gate the
 * allocation-free hot path (DESIGN.md "Simulator cost") without the
 * noise of wall time. The sanitizer builds bring their own allocator,
 * so the tests skip there.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>

#include "src/common/event_queue.h"
#include "src/core/system.h"
#include "src/flash/flash_array.h"
#include "src/reco/model_config.h"
#include "src/reco/model_runner.h"
#include "src/reco/serving.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RECSSD_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RECSSD_ALLOC_COUNTING 0
#endif
#endif
#ifndef RECSSD_ALLOC_COUNTING
#define RECSSD_ALLOC_COUNTING 1
#endif

namespace
{

/** Heap allocations made through operator new since process start. */
std::uint64_t allocations = 0;

}  // namespace

#if RECSSD_ALLOC_COUNTING

namespace
{

void *
countedAlloc(std::size_t size)
{
    ++allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++allocations;
    std::size_t a = static_cast<std::size_t>(align);
    std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

}  // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++allocations;
    return std::malloc(size ? size : 1);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    ++allocations;
    return std::malloc(size ? size : 1);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#endif  // RECSSD_ALLOC_COUNTING

namespace recssd
{
namespace
{

#define SKIP_IF_UNCOUNTED()                                            \
    do {                                                               \
        if (!RECSSD_ALLOC_COUNTING)                                    \
            GTEST_SKIP() << "sanitizer build replaces the allocator";  \
    } while (0)

/**
 * Heap allocations per flash page read on the serve below. The event
 * kernel, flash, PCIe, NVMe controller, driver and NDP backend hops
 * allocate nothing per page once their tables have grown; what is
 * left is the SLS engine's mapping-aware read-completion and translate
 * closures (two per page) and per-op buffers. Measured on this serve:
 * 20.33 with a std::priority_queue of closure-owning events and
 * nested continuation closures on every hop, 6.24 with the keyed heap
 * and pooled hops.
 */
constexpr double allocsPerPageBudget = 7.0;

TEST(AllocBudget, ShardedNdpServePerFlashPageRead)
{
    SKIP_IF_UNCOUNTED();
    // The sharded_uniform shape at a tenth of the length: 8 SSDs, row-
    // range sharding, RM1 on the NDP backend, uniform ids, no caches.
    SystemConfig cfg;
    cfg.shard.numShards = 8;
    cfg.shard.policy = ShardPolicy::RowRange;
    cfg.host.ioQueues = 4;
    cfg.ssd.nvme.numQueues = 4;
    cfg.host.balancedQueueGrants = true;
    System sys(cfg);
    RunnerOptions opt;
    opt.backend = EmbeddingBackendKind::Ndp;
    opt.seed = 1000;
    ModelRunner runner(sys, modelByName("RM1"), opt);

    ServeConfig serve;
    serve.arrivals.process = ArrivalProcess::Poisson;
    serve.arrivals.qps = 50.0;
    serve.shape.minBatch = 4;
    serve.shape.maxBatch = 4;
    serve.batching.maxBatchSamples = 16;
    serve.batching.maxWait = 500 * usec;
    serve.batching.maxInFlight = 4;
    serve.queries = 20;
    serve.warmupQueries = 2;
    serve.seed = 1000;

    const std::uint64_t before = allocations;
    ServeStats stats = runServe(runner, serve);
    const std::uint64_t used = allocations - before;
    ASSERT_EQ(stats.completedQueries, serve.queries);

    std::uint64_t pages = 0;
    for (unsigned d = 0; d < sys.numSsds(); ++d)
        pages += sys.ssd(d).flash().pageReads();
    ASSERT_GT(pages, 10'000u) << "the serve must exercise the flash path";
    const double per_page =
        static_cast<double>(used) / static_cast<double>(pages);
    std::cout << "allocations " << used << ", flash page reads " << pages
              << ", per page " << per_page << ", events "
              << sys.eq().executed() << "\n";
    EXPECT_LE(per_page, allocsPerPageBudget);
}

TEST(AllocBudget, SteadyStateScheduleOfSmallClosureAllocatesNothing)
{
    SKIP_IF_UNCOUNTED();
    EventQueue eq;
    std::uint64_t fired = 0;
    std::uint64_t *counter = &fired;
    // {pointer, index}: the shape every mechanism hop schedules.
    auto wave = [&eq, counter](std::uint32_t n) {
        for (std::uint32_t i = 0; i < n; ++i) {
            eq.scheduleAfter(Tick(i % 7), [counter, i]() {
                *counter += i;
            });
        }
        eq.run();
    };
    static_assert(sizeof(std::uint64_t *) + sizeof(std::uint32_t) <= 16);

    wave(3000);  // grows the heap, arena and free list to depth 3000
    const std::uint64_t before = allocations;
    wave(3000);
    wave(1500);
    // Callbacks that schedule more work from inside the queue.
    for (std::uint32_t i = 0; i < 1000; ++i) {
        eq.scheduleAfter(Tick(1), [&eq, counter]() {
            eq.scheduleAfter(Tick(0), [counter]() { ++*counter; });
        });
    }
    eq.run();
    EXPECT_EQ(allocations - before, 0u);
    EXPECT_GT(fired, 0u);
}

}  // namespace
}  // namespace recssd
