/**
 * @file
 * Userspace NVMe driver model, after Micron's UNVMe library which the
 * paper extends with the two SLS commands (§5 "Micron UNVMe").
 *
 * The driver exposes N independent I/O queues. Like the real sync
 * API, each queue carries one outstanding command: the submitting
 * worker burns CPU to build/submit, the device executes, and the
 * worker burns CPU again polling the completion. The SLS extension
 * adds a config-write and a result-read built on the standard command
 * structures with the spare flag bit set.
 *
 * Each queue is driven by its own SLS worker thread (§4.2 matches
 * workers to queues). The threads are I/O bound — they sleep in the
 * poll loop most of the time — so they are modelled as dedicated
 * serial resources that the OS schedules promptly rather than as
 * contenders for the host core pool; the dense-compute NN workers own
 * the cores.
 */

#ifndef RECSSD_HOST_UNVME_DRIVER_H
#define RECSSD_HOST_UNVME_DRIVER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/event_queue.h"
#include "src/common/slot_pool.h"
#include "src/common/stats.h"
#include "src/host/host_cpu.h"
#include "src/ndp/sls_config.h"
#include "src/nvme/host_controller.h"
#include "src/nvme/nvme_command.h"
#include "src/nvme/nvme_queue.h"

namespace recssd
{

class UnvmeDriver
{
  public:
    using ReadDone = std::function<void(const PageView &)>;
    using Done = std::function<void()>;
    using SlsResultDone =
        std::function<void(std::shared_ptr<std::vector<std::byte>>)>;

    /** `track_prefix` namespaces the per-queue trace tracks (multi-
     *  SSD systems pass "ssd<d>." so device spans stay separable). */
    UnvmeDriver(EventQueue &eq, HostCpu &cpu, HostController &ctrl,
                const std::string &track_prefix = "");

    /** Usable I/O queues: min(driver binding, controller support). */
    unsigned numQueues() const { return numQueues_; }

    /** Logical block size of the attached namespace. */
    unsigned pageSize() const { return ctrl_.pageSize(); }

    /** The simulation clock this driver schedules on. */
    EventQueue &eventQueue() { return eq_; }

    /** @{ Standard data path (one logical page per command). The
     *  optional trailing trace id tags every span the command produces
     *  down the stack with its owning request. */
    void readPage(unsigned queue, Lpn lpn, ReadDone done,
                  std::uint64_t trace_id = 0);
    void writePage(unsigned queue, Lpn lpn,
                   std::shared_ptr<std::vector<std::byte>> data, Done done,
                   std::uint64_t trace_id = 0);

    /** Deallocate one logical page (DSM / trim). */
    void trimPage(unsigned queue, Lpn lpn, Done done,
                  std::uint64_t trace_id = 0);
    /** @} */

    /** @{ RecSSD SLS extension. */

    /**
     * Issue the config-write for an SLS operation.
     * @param table_base First logical page of the target table (must
     *        be slsTableAlign-aligned).
     * @param request_id Caller-chosen id, unique among in-flight
     *        requests to the same table.
     */
    void slsConfigWrite(unsigned queue, Lpn table_base,
                        std::uint64_t request_id, const SlsConfig &config,
                        Done done, std::uint64_t trace_id = 0);

    /** Issue the result-read that completes an SLS operation. */
    void slsResultRead(unsigned queue, Lpn table_base,
                       std::uint64_t request_id, SlsResultDone done,
                       std::uint64_t trace_id = 0);
    /** @} */

    /** Fresh request id for slsConfigWrite. */
    std::uint64_t allocRequestId();

    std::uint64_t commandsIssued() const { return commands_.value(); }

    /** @{ Per-queue accounting and round-robin dispatch. */

    /** Commands ever issued on one queue. */
    std::uint64_t commandsOnQueue(unsigned queue) const
    {
        return perQueueCommands_.at(queue).value();
    }

    /** Ring occupancy of one queue pair right now. */
    std::uint16_t queueDepth(unsigned queue) const
    {
        return queuePairs_.at(queue)->outstanding();
    }

    /** True while the sync API has a command in flight on the queue. */
    bool queueBusy(unsigned queue) const { return queueBusy_.at(queue); }

    /**
     * Next queue in round-robin order, preferring idle queues: scans
     * from the rotor for a free queue and falls back to the plain
     * rotor position when every queue is busy (the caller must then
     * wait, e.g. through the QueueAllocator, before submitting).
     */
    unsigned pickQueue();
    /** @} */

    /** The I/O worker thread bound to a queue (for extract work). */
    SerialResource &ioThread(unsigned queue)
    {
        return *ioThreads_.at(queue);
    }

    /** The NVMe ring pair backing a queue. */
    NvmeQueuePair &queuePair(unsigned queue)
    {
        return *queuePairs_.at(queue);
    }

  private:
    enum class OpKind : std::uint8_t
    {
        Read,
        Write,
        Trim,
        SlsConfig,
        SlsResult,
    };

    /** One command on its queue, from submit CPU to completion poll;
     *  every hop's event captures only `{this, index}` into `ops_`. */
    struct Op
    {
        OpKind kind = OpKind::Read;
        unsigned queue = 0;
        NvmeCommand cmd;
        std::uint16_t cid = 0;
        SpanId devSpan = invalidSpan;
        SpanId submitSpan = invalidSpan;
        SpanId pollSpan = invalidSpan;
        std::optional<PageView> view;                    ///< Read
        std::shared_ptr<std::vector<std::byte>> result;  ///< SlsResult
        ReadDone readDone;                               ///< Read
        Done done;  ///< Write, Trim, SlsConfig
        SlsResultDone slsDone;                           ///< SlsResult
    };

    /**
     * Common command path: occupy the queue, open the residence and
     * submit spans (`span_name` names the former), then burn
     * `submit_cost` of io-thread CPU before the doorbell.
     */
    void issue(Op rec, const char *span_name, Tick submit_cost);
    /** Doorbell: enqueue on the ring and hand to the controller. */
    void ringDoorbell(std::uint32_t op);
    /** Device completed: burn completion-poll CPU. */
    void poll(std::uint32_t op);
    /** Consume the CQE, free the queue, run the caller's continuation. */
    void complete(std::uint32_t op);

    /** Mark the queue busy; panics on concurrent use (sync API). */
    void occupy(unsigned queue);
    void release(unsigned queue);

    /**
     * Move a command through the queue pair: submit + controller
     * fetch. @return the ring-assigned command with its CID.
     */
    NvmeCommand enqueue(unsigned queue, const NvmeCommand &cmd);

    /** Consume the completion for `cid` from the queue's CQ ring. */
    void consumeCompletion(unsigned queue, std::uint16_t cid);

    EventQueue &eq_;
    HostCpu &cpu_;
    HostController &ctrl_;
    unsigned numQueues_;
    std::vector<bool> queueBusy_;
    /** Tick each queue's in-flight command occupied it (utilization
     *  timelines report occupancy as one op per command). */
    std::vector<Tick> occupiedAt_;
    /** Pre-built trace track names, one per I/O queue. */
    std::vector<std::string> queueTrackNames_;
    std::vector<std::unique_ptr<SerialResource>> ioThreads_;
    std::vector<std::unique_ptr<NvmeQueuePair>> queuePairs_;
    std::uint64_t nextRequestId_ = 1;
    unsigned rrNext_ = 0;  ///< round-robin rotor for pickQueue()
    SlotPool<Op> ops_;

    Counter commands_;
    std::vector<Counter> perQueueCommands_;
};

}  // namespace recssd

#endif  // RECSSD_HOST_UNVME_DRIVER_H
