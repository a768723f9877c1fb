#include "src/host/unvme_driver.h"

#include <algorithm>

#include "src/common/analysis.h"
#include "src/common/logging.h"
#include "src/obs/tracer.h"
#include "src/obs/utilization.h"

namespace recssd
{

namespace
{

void
endSpan(EventQueue &eq, SpanId span)
{
    if (span == invalidSpan)
        return;
    if (Tracer *tracer = tracerOf(eq))
        tracer->end(span);
}

}  // namespace

UnvmeDriver::UnvmeDriver(EventQueue &eq, HostCpu &cpu, HostController &ctrl,
                         const std::string &track_prefix)
    : eq_(eq), cpu_(cpu), ctrl_(ctrl)
{
    numQueues_ = std::min(cpu.params().ioQueues, ctrl.params().numQueues);
    recssd_assert(numQueues_ > 0, "driver bound zero I/O queues");
    queueBusy_.assign(numQueues_, false);
    occupiedAt_.assign(numQueues_, 0);
    perQueueCommands_.resize(numQueues_);
    for (unsigned q = 0; q < numQueues_; ++q) {
        ioThreads_.push_back(std::make_unique<SerialResource>(
            eq_, track_prefix + "unvme.worker" + std::to_string(q)));
        queuePairs_.push_back(std::make_unique<NvmeQueuePair>(64));
        queueTrackNames_.push_back(track_prefix + "unvme.q" +
                                   std::to_string(q));
    }
}

unsigned
UnvmeDriver::pickQueue()
{
    for (unsigned i = 0; i < numQueues_; ++i) {
        unsigned q = (rrNext_ + i) % numQueues_;
        if (!queueBusy_[q]) {
            rrNext_ = (q + 1) % numQueues_;
            return q;
        }
    }
    unsigned q = rrNext_;
    rrNext_ = (rrNext_ + 1) % numQueues_;
    return q;
}

NvmeCommand
UnvmeDriver::enqueue(unsigned queue, const NvmeCommand &cmd)
{
    NvmeQueuePair &qp = queuePair(queue);
    recssd_assert(qp.canSubmit(), "submission ring full");
    qp.submit(cmd);
    auto fetched = qp.fetch();
    recssd_assert(fetched.has_value(), "ring lost a command");
    return *fetched;
}

void
UnvmeDriver::consumeCompletion(unsigned queue, std::uint16_t cid)
{
    NvmeQueuePair &qp = queuePair(queue);
    qp.complete(cid);
    auto cqe = qp.poll();
    recssd_assert(cqe.has_value() && cqe->cid == cid,
                  "completion did not match the submitted command");
    recssd_assert(cqe->status == 0, "command failed");
}

void
UnvmeDriver::occupy(unsigned queue)
{
    recssd_assert(queue < numQueues_, "I/O queue index out of range");
    recssd_assert(!queueBusy_[queue],
                  "sync API misuse: queue %u already has a command in "
                  "flight", queue);
    queueBusy_[queue] = true;
    occupiedAt_[queue] = eq_.now();
    perQueueCommands_[queue].inc();
}

void
UnvmeDriver::release(unsigned queue)
{
    queueBusy_[queue] = false;
    // Queue-pair occupancy: the command was "in service" on the pair
    // from occupy to release, so the pair's utilization timeline is
    // its submission-to-completion residency.
    if (UtilizationCollector *util = eq_.util())
        util->record(queueTrackNames_[queue], occupiedAt_[queue],
                     occupiedAt_[queue], eq_.now());
}

std::uint64_t
UnvmeDriver::allocRequestId()
{
    std::uint64_t id = nextRequestId_++;
    // Keep ids well below the table alignment so base+id decoding is
    // unambiguous.
    if (nextRequestId_ >= slsTableAlign / 2)
        nextRequestId_ = 1;
    return id;
}

void
UnvmeDriver::issue(Op rec, const char *span_name, Tick submit_cost)
{
    unsigned queue = rec.queue;
    occupy(queue);
    commands_.inc();
    // Observability: the outer span is the command's full residence on
    // this queue (submit CPU -> device -> completion poll); the inner
    // submit/poll spans mark the io-thread occupancy at each end.
    if (Tracer *tracer = tracerOf(eq_)) {
        TrackId track = tracer->track(queueTrackNames_[queue]);
        rec.devSpan = tracer->begin(track, span_name, Phase::DeviceWait,
                                    rec.cmd.traceId);
        rec.submitSpan = tracer->begin(track, "submit", Phase::DriverSubmit,
                                       rec.cmd.traceId);
    }
    // Submission burns host CPU, then the device takes over; on
    // completion the polling thread burns CPU again before the
    // caller's continuation runs.
    std::uint32_t op = ops_.put(std::move(rec));
    ioThread(queue).acquire(submit_cost, [this, op]() { ringDoorbell(op); });
}

void
UnvmeDriver::ringDoorbell(std::uint32_t op)
{
    endSpan(eq_, ops_[op].submitSpan);
    NvmeCommand entry = enqueue(ops_[op].queue, ops_[op].cmd);
    ops_[op].cid = entry.cid;
    switch (ops_[op].kind) {
    case OpKind::Read:
        ctrl_.submitRead(entry, [this, op](const PageView &view) {
            ops_[op].view = view;
            poll(op);
        });
        break;
    case OpKind::Write:
        ctrl_.submitWrite(entry, [this, op]() { poll(op); });
        break;
    case OpKind::Trim:
        ctrl_.submitTrim(entry, [this, op]() { poll(op); });
        break;
    case OpKind::SlsConfig:
        ctrl_.submitSlsConfig(entry, [this, op]() { poll(op); });
        break;
    case OpKind::SlsResult:
        ctrl_.submitSlsRead(
            entry, [this, op](std::shared_ptr<std::vector<std::byte>> data) {
                ops_[op].result = std::move(data);
                poll(op);
            });
        break;
    }
}

void
UnvmeDriver::poll(std::uint32_t op)
{
    unsigned queue = ops_[op].queue;
    if (Tracer *tracer = tracerOf(eq_)) {
        ops_[op].pollSpan =
            tracer->begin(tracer->track(queueTrackNames_[queue]), "poll",
                          Phase::DriverSubmit, ops_[op].cmd.traceId);
    }
    ioThread(queue).acquire(cpu_.params().completionCost,
                            [this, op]() { complete(op); });
}

void
UnvmeDriver::complete(std::uint32_t op)
{
    // A read's view binds a physical page the FTL resolved (and
    // fenced) at service time; log-structured writes allocate fresh
    // ppns, so the bytes under an outstanding view never change across
    // the driver's completion-poll delay.
    Op rec = ops_.take(op);
    endSpan(eq_, rec.pollSpan);
    consumeCompletion(rec.queue, rec.cid);
    release(rec.queue);
    endSpan(eq_, rec.devSpan);
    switch (rec.kind) {
    case OpKind::Read:
        rec.readDone(*rec.view);
        break;
    case OpKind::SlsResult:
        rec.slsDone(rec.result);
        break;
    case OpKind::Write:
    case OpKind::Trim:
    case OpKind::SlsConfig:
        rec.done();
        break;
    }
}

void
UnvmeDriver::readPage(unsigned queue, Lpn lpn, ReadDone done,
                      std::uint64_t trace_id)
{
    Op rec;
    rec.kind = OpKind::Read;
    rec.queue = queue;
    rec.cmd.opcode = NvmeOpcode::Read;
    rec.cmd.slba = lpn;
    rec.cmd.traceId = trace_id;
    rec.readDone = std::move(done);
    issue(std::move(rec), "read", cpu_.params().submitCost);
}

void
UnvmeDriver::writePage(unsigned queue, Lpn lpn,
                       std::shared_ptr<std::vector<std::byte>> data,
                       Done done, std::uint64_t trace_id)
{
    Op rec;
    rec.kind = OpKind::Write;
    rec.queue = queue;
    rec.cmd.opcode = NvmeOpcode::Write;
    rec.cmd.slba = lpn;
    rec.cmd.payload = std::move(data);
    rec.cmd.traceId = trace_id;
    rec.done = std::move(done);
    issue(std::move(rec), "write", cpu_.params().submitCost);
}

void
UnvmeDriver::trimPage(unsigned queue, Lpn lpn, Done done,
                      std::uint64_t trace_id)
{
    Op rec;
    rec.kind = OpKind::Trim;
    rec.queue = queue;
    rec.cmd.opcode = NvmeOpcode::Dsm;
    rec.cmd.slba = lpn;
    rec.cmd.traceId = trace_id;
    rec.done = std::move(done);
    issue(std::move(rec), "trim", cpu_.params().submitCost);
}

void
UnvmeDriver::slsConfigWrite(unsigned queue, Lpn table_base,
                            std::uint64_t request_id,
                            const SlsConfig &config, Done done,
                            std::uint64_t trace_id)
{
    recssd_assert(table_base % slsTableAlign == 0,
                  "embedding table base must be aligned");
    recssd_assert(request_id > 0 && request_id < slsTableAlign,
                  "SLS request id out of range");
    Op rec;
    rec.kind = OpKind::SlsConfig;
    rec.queue = queue;
    rec.cmd.opcode = NvmeOpcode::Write;
    rec.cmd.slsFlag = true;
    rec.cmd.slba = SlsAddress::encode(table_base, request_id);
    rec.cmd.payload =
        std::make_shared<std::vector<std::byte>>(config.serialize());
    rec.cmd.traceId = trace_id;
    rec.done = std::move(done);
    // Building the pair list costs more than a plain 64B command:
    // charge the submit cost plus a store per pair.
    Tick build = cpu_.params().submitCost +
                 static_cast<Tick>(config.pairs.size()) * 2;
    issue(std::move(rec), "sls_config", build);
}

void
UnvmeDriver::slsResultRead(unsigned queue, Lpn table_base,
                           std::uint64_t request_id, SlsResultDone done,
                           std::uint64_t trace_id)
{
    Op rec;
    rec.kind = OpKind::SlsResult;
    rec.queue = queue;
    rec.cmd.opcode = NvmeOpcode::Read;
    rec.cmd.slsFlag = true;
    rec.cmd.slba = SlsAddress::encode(table_base, request_id);
    rec.cmd.traceId = trace_id;
    rec.slsDone = std::move(done);
    issue(std::move(rec), "sls_result", cpu_.params().submitCost);
}

}  // namespace recssd
