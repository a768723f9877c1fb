#include "src/nvme/host_controller.h"

#include <utility>

#include "src/common/logging.h"
#include "src/obs/tracer.h"

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

HostController::HostController(EventQueue &eq, const NvmeParams &params,
                               PcieLink &pcie, Ftl &ftl,
                               const std::string &track_prefix)
    : eq_(eq), params_(params), pcie_(pcie), ftl_(ftl),
      trackName_(track_prefix + "nvme.ctrl"), ctrl_(eq, trackName_)
{
}

void
HostController::fetchCommand(Cmd rec)
{
    if (dead_) {
        // The drive fell off the bus: the SQ doorbell rings into the
        // void and the command chain is dropped on the floor.
        dropped_.inc();
        return;
    }
    commands_.inc();
    std::uint64_t tid = rec.cmd.traceId;
    std::uint32_t c = cmds_.put(std::move(rec));
    pcie_.transfer(params_.sqeBytes, [this, c]() { parse(c); }, tid);
}

void
HostController::parse(std::uint32_t c)
{
    if (Tracer *tracer = tracerOf(eq_)) {
        cmds_[c].span = tracer->begin(tracer->track(trackName_),
                                      "cmd_process", Phase::NvmeXfer,
                                      cmds_[c].cmd.traceId);
    }
    ctrl_.acquire(params_.cmdProcessCost, [this, c]() {
        endSpan(eq_, std::exchange(cmds_[c].span, invalidSpan));
        execute(c);
    });
}

void
HostController::execute(std::uint32_t c)
{
    // A copy: the FTL and the SLS handler may hold the command past
    // this call, and the table can grow under a reference.
    const NvmeCommand cmd = cmds_[c].cmd;
    const std::uint64_t tid = cmd.traceId;
    const unsigned page_size = ftl_.flash().params().pageSize;
    switch (cmds_[c].kind) {
    case CmdKind::Read:
        ftl_.hostRead(
            cmd.slba,
            [this, c](const PageView &view) {
                // Page data DMA to host, then the completion entry.
                cmds_[c].view = view;
                pcie_.transfer(ftl_.flash().params().pageSize,
                               [this, c]() { postCompletion(c); },
                               cmds_[c].cmd.traceId);
            },
            tid);
        break;
    case CmdKind::Write:
        // Pull the data from host memory before programming.
        pcie_.transfer(
            page_size,
            [this, c]() {
                const NvmeCommand &w = cmds_[c].cmd;
                ftl_.hostWrite(w.slba, *w.payload,
                               [this, c]() { postCompletion(c); },
                               w.traceId);
            },
            tid);
        break;
    case CmdKind::Trim:
        ftl_.hostTrim(cmd.slba, [this, c]() { postCompletion(c); }, tid);
        break;
    case CmdKind::SlsConfig:
        // Step 1a (Fig 7): DMA the configuration data from the host.
        pcie_.transfer(
            cmd.payload->size(),
            [this, c]() {
                const NvmeCommand config = cmds_[c].cmd;
                sls_->configWrite(config,
                                  [this, c]() { postCompletion(c); });
            },
            tid);
        break;
    case CmdKind::SlsRead:
        // Step 1b (Fig 7): register the host page request; the engine
        // calls back with packed result bytes when ready, which we
        // then DMA to the host.
        sls_->resultRead(
            cmd, [this, c](std::shared_ptr<std::vector<std::byte>> data) {
                std::uint64_t bytes = data->size();
                cmds_[c].result = std::move(data);
                pcie_.transfer(bytes, [this, c]() { postCompletion(c); },
                               cmds_[c].cmd.traceId, Phase::ResultDma);
            });
        break;
    }
}

void
HostController::postCompletion(std::uint32_t c)
{
    if (dead_) {
        // In-flight command whose device died mid-chain: the host
        // never sees a CQE.
        dropped_.inc();
        cmds_.drop(c);
        return;
    }
    if (Tracer *tracer = tracerOf(eq_)) {
        cmds_[c].span = tracer->begin(tracer->track(trackName_), "cqe_post",
                                      Phase::NvmeXfer, cmds_[c].cmd.traceId);
    }
    ctrl_.acquire(params_.completionPostCost, [this, c]() { sendCqe(c); });
}

void
HostController::sendCqe(std::uint32_t c)
{
    Cmd &rec = cmds_[c];
    endSpan(eq_, std::exchange(rec.span, invalidSpan));
    std::uint64_t tid = rec.cmd.traceId;
    bool write_like = rec.kind == CmdKind::Write ||
                      rec.kind == CmdKind::Trim ||
                      rec.kind == CmdKind::SlsConfig;
    if (write_like && !rec.writeDone) {
        // Nobody waits on this completion: the CQE still crosses the
        // link, with no arrival event to run.
        cmds_.drop(c);
        pcie_.transfer(params_.cqeBytes, nullptr, tid);
        return;
    }
    pcie_.transfer(params_.cqeBytes, [this, c]() { finish(c); }, tid);
}

void
HostController::finish(std::uint32_t c)
{
    Cmd rec = cmds_.take(c);
    switch (rec.kind) {
    case CmdKind::Read:
        rec.readDone(*rec.view);
        break;
    case CmdKind::SlsRead:
        rec.slsDone(rec.result);
        break;
    case CmdKind::Write:
    case CmdKind::Trim:
    case CmdKind::SlsConfig:
        rec.writeDone();
        break;
    }
}

void
HostController::submitRead(const NvmeCommand &cmd, ReadDone done)
{
    recssd_assert(!cmd.slsFlag, "use submitSlsRead for SLS commands");
    recssd_assert(cmd.nlb == 1, "data path reads one page per command");
    Cmd rec;
    rec.kind = CmdKind::Read;
    rec.cmd = cmd;
    rec.readDone = std::move(done);
    fetchCommand(std::move(rec));
}

void
HostController::submitWrite(const NvmeCommand &cmd, WriteDone done)
{
    recssd_assert(!cmd.slsFlag, "use submitSlsConfig for SLS commands");
    recssd_assert(cmd.nlb == 1, "data path writes one page per command");
    recssd_assert(cmd.payload != nullptr, "write without payload");
    Cmd rec;
    rec.kind = CmdKind::Write;
    rec.cmd = cmd;
    rec.writeDone = std::move(done);
    fetchCommand(std::move(rec));
}

void
HostController::submitTrim(const NvmeCommand &cmd, WriteDone done)
{
    recssd_assert(cmd.opcode == NvmeOpcode::Dsm, "submitTrim needs DSM");
    Cmd rec;
    rec.kind = CmdKind::Trim;
    rec.cmd = cmd;
    rec.writeDone = std::move(done);
    fetchCommand(std::move(rec));
}

void
HostController::submitSlsConfig(const NvmeCommand &cmd, WriteDone done)
{
    recssd_assert(cmd.slsFlag, "submitSlsConfig requires the SLS flag");
    recssd_assert(sls_ != nullptr, "no SLS handler registered");
    recssd_assert(cmd.payload != nullptr, "SLS config without payload");
    Cmd rec;
    rec.kind = CmdKind::SlsConfig;
    rec.cmd = cmd;
    rec.cmd.submitTick = eq_.now();
    rec.writeDone = std::move(done);
    fetchCommand(std::move(rec));
}

void
HostController::submitSlsRead(const NvmeCommand &cmd, SlsReadDone done)
{
    recssd_assert(cmd.slsFlag, "submitSlsRead requires the SLS flag");
    recssd_assert(sls_ != nullptr, "no SLS handler registered");
    Cmd rec;
    rec.kind = CmdKind::SlsRead;
    rec.cmd = cmd;
    rec.slsDone = std::move(done);
    fetchCommand(std::move(rec));
}

void
HostController::dmaToHost(std::uint64_t bytes, EventQueue::Callback done,
                          std::uint64_t trace_id)
{
    pcie_.transfer(bytes, std::move(done), trace_id, Phase::ResultDma);
}

void
HostController::dmaFromHost(std::uint64_t bytes, EventQueue::Callback done,
                            std::uint64_t trace_id)
{
    pcie_.transfer(bytes, std::move(done), trace_id);
}

}  // namespace recssd
