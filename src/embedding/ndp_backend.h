/**
 * @file
 * RecSSD NDP SLS backend.
 *
 * The entire gather/reduce is offloaded: the host builds a sorted
 * (input id, result id) pair list, ships it with one config-write
 * command, and collects the accumulated result pages with one
 * result-read command. With static partitioning enabled, rows
 * resident in host DRAM are peeled off the pair list and merged into
 * the device's partial sums afterwards (§4.2).
 */

#ifndef RECSSD_EMBEDDING_NDP_BACKEND_H
#define RECSSD_EMBEDDING_NDP_BACKEND_H

#include <memory>

#include "src/cache/static_partition.h"
#include "src/common/event_queue.h"
#include "src/common/slot_pool.h"
#include "src/common/stats.h"
#include "src/embedding/sls_backend.h"
#include "src/host/host_cpu.h"
#include "src/host/queue_allocator.h"
#include "src/host/unvme_driver.h"
#include "src/obs/tracer.h"

namespace recssd
{

class NdpSlsBackend : public SlsBackend
{
  public:
    struct Options
    {
        /** Hot rows resident in host DRAM; nullptr disables. */
        StaticPartition *partition = nullptr;
    };

    NdpSlsBackend(EventQueue &eq, HostCpu &cpu, UnvmeDriver &driver,
                  QueueAllocator &queues, Options options);

    void run(const SlsOp &op, Done done) override;
    std::string name() const override { return "recssd-ndp"; }

    std::uint64_t opsIssued() const { return opsIssued_.value(); }
    std::uint64_t hotLookups() const { return hotLookups_.value(); }
    std::uint64_t coldLookups() const { return coldLookups_.value(); }

  private:
    /** One SLS op from queue wait to merged result; every hop's
     *  event captures only `{this, index}` into `ops_`. The table
     *  owns records by pointer: a burst parks ~100 of these 200-byte
     *  records behind the I/O queues, and freeing each one when its op
     *  completes hands the memory back instead of pinning the burst's
     *  peak for the rest of the run. */
    struct OpState
    {
        EmbeddingTableDesc table;
        std::uint64_t traceId = 0;
        SlsConfig config;
        /** Hot contributions: (result index, resident vector). */
        std::vector<std::pair<std::uint32_t, const std::vector<float> *>>
            hot;
        SlsResult result;
        Done done;
        SpanId span = invalidSpan;  ///< queue_wait, then merge
        unsigned queue = 0;
        std::uint64_t requestId = 0;
    };

    /** @{ Device round trip: config write, then result read. */
    void granted(std::uint32_t op, unsigned queue);
    void readResult(std::uint32_t op);
    void unpack(std::uint32_t op,
                const std::shared_ptr<std::vector<std::byte>> &bytes);
    /** @} */

    /** Merge the host-resident rows and return the result. */
    void finish(std::uint32_t op);

    EventQueue &eq_;
    HostCpu &cpu_;
    UnvmeDriver &driver_;
    QueueAllocator &queues_;
    Options options_;
    SlotPool<std::unique_ptr<OpState>> ops_;

    Counter opsIssued_;
    Counter hotLookups_;
    Counter coldLookups_;
};

}  // namespace recssd

#endif  // RECSSD_EMBEDDING_NDP_BACKEND_H
