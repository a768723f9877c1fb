#include "src/nvme/pcie_link.h"

#include "src/obs/tracer.h"

namespace recssd
{

PcieLink::PcieLink(EventQueue &eq, const PcieParams &params,
                   const std::string &track_prefix)
    : eq_(eq), params_(params), trackName_(track_prefix + "pcie"),
      link_(eq, trackName_)
{
}

Tick
PcieLink::occupancy(std::uint64_t bytes) const
{
    return static_cast<Tick>(static_cast<double>(bytes) /
                             static_cast<double>(params_.bytesPerSec) *
                             static_cast<double>(sec));
}

void
PcieLink::transfer(std::uint64_t bytes, EventQueue::Callback done,
                   std::uint64_t trace_id, Phase phase)
{
    bytesMoved_ += bytes;
    SpanId span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_))
        span = tracer->begin(tracer->track(trackName_), "xfer", phase,
                             trace_id);
    std::uint32_t xfer = xfers_.put(Xfer{span, std::move(done)});
    link_.acquire(occupancy(bytes), [this, xfer]() { onWire(xfer); });
}

void
PcieLink::onWire(std::uint32_t xfer)
{
    // The span covers queueing + occupancy + propagation: the bytes'
    // full time on the wire from the request's viewpoint. With no
    // continuation and no tracer there is nothing left to time.
    if (!xfers_[xfer].done && tracerOf(eq_) == nullptr) {
        xfers_.drop(xfer);
        return;
    }
    eq_.scheduleAfter(params_.latency, [this, xfer]() { arrive(xfer); });
}

void
PcieLink::arrive(std::uint32_t xfer)
{
    Xfer rec = xfers_.take(xfer);
    if (Tracer *tracer = tracerOf(eq_))
        tracer->end(rec.span);
    if (rec.done)
        rec.done();
}

}  // namespace recssd
