#include "src/embedding/ndp_backend.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "src/common/logging.h"
#include "src/ndp/sls_config.h"
#include "src/obs/tracer.h"

namespace recssd
{

NdpSlsBackend::NdpSlsBackend(EventQueue &eq, HostCpu &cpu,
                             UnvmeDriver &driver, QueueAllocator &queues,
                             Options options)
    : eq_(eq), cpu_(cpu), driver_(driver), queues_(queues), options_(options)
{
}

void
NdpSlsBackend::run(const SlsOp &op, Done done)
{
    recssd_assert(op.table != nullptr, "SLS op without table");
    opsIssued_.inc();
    auto state = std::make_unique<OpState>();
    state->table = *op.table;
    state->traceId = op.traceId;
    state->result.assign(op.batch() * op.table->dim, 0.0f);
    state->done = std::move(done);

    SlsConfig &cfg = state->config;
    cfg.featureDim = op.table->dim;
    cfg.attrBytes = op.table->attrBytes;
    cfg.rowsPerPage = op.table->rowsPerPage;
    cfg.numResults = static_cast<std::uint32_t>(op.batch());

    for (std::uint32_t b = 0; b < op.indices.size(); ++b) {
        for (RowId row : op.indices[b]) {
            if (options_.partition) {
                // Partition entries are keyed by global row id so one
                // profile serves every shard slice of the table.
                if (const auto *vec = options_.partition->lookup(
                        state->table.id, state->table.globalRow(row))) {
                    hotLookups_.inc();
                    state->hot.emplace_back(b, vec);
                    continue;
                }
            }
            coldLookups_.inc();
            cfg.pairs.push_back(
                SlsPair{static_cast<std::uint32_t>(row), b});
        }
    }
    // The interface requires the list sorted by input id so the device
    // can group by page in one scan (§4.3).
    std::stable_sort(cfg.pairs.begin(), cfg.pairs.end(),
                     [](const SlsPair &a, const SlsPair &b) {
                         return a.inputId < b.inputId;
                     });

    bool host_only = cfg.pairs.empty();
    std::uint32_t id = ops_.put(std::move(state));
    if (host_only) {
        // Everything was host resident; no device round trip at all.
        finish(id);
        return;
    }

    if (Tracer *tracer = tracerOf(eq_)) {
        ops_[id]->span = tracer->begin(tracer->track("host.sls"),
                                       "queue_wait", Phase::HostQueueWait,
                                       ops_[id]->traceId);
    }
    queues_.acquire([this, id](unsigned q) { granted(id, q); });
}

void
NdpSlsBackend::granted(std::uint32_t op, unsigned queue)
{
    OpState &rec = *ops_[op];
    if (Tracer *tracer = tracerOf(eq_))
        tracer->end(rec.span);
    rec.queue = queue;
    rec.requestId = driver_.allocRequestId();
    driver_.slsConfigWrite(queue, rec.table.baseLpn, rec.requestId,
                           rec.config, [this, op]() { readResult(op); },
                           rec.traceId);
}

void
NdpSlsBackend::readResult(std::uint32_t op)
{
    const OpState &rec = *ops_[op];
    driver_.slsResultRead(
        rec.queue, rec.table.baseLpn, rec.requestId,
        [this, op](std::shared_ptr<std::vector<std::byte>> bytes) {
            unpack(op, bytes);
        },
        rec.traceId);
}

void
NdpSlsBackend::unpack(std::uint32_t op,
                      const std::shared_ptr<std::vector<std::byte>> &bytes)
{
    OpState &rec = *ops_[op];
    queues_.release(rec.queue);
    // Unpack the device's partial sums.
    SlsResult &result = rec.result;
    std::size_t raw = result.size() * sizeof(float);
    recssd_assert(bytes->size() >= raw, "short SLS result payload");
    std::memcpy(result.data(), bytes->data(), raw);
    finish(op);
}

void
NdpSlsBackend::finish(std::uint32_t op)
{
    // Merge the hot (host-resident) contributions into the returned
    // partial sums.
    OpState &rec = *ops_[op];
    const std::uint32_t dim = rec.table.dim;
    Tick merge = cpu_.params().extractBase;
    for (auto &[b, vec] : rec.hot) {
        float *res = rec.result.data() + std::size_t(b) * dim;
        for (std::uint32_t e = 0; e < dim; ++e)
            res[e] += (*vec)[e];
        merge += cpu_.dramLookupCost(rec.table.vectorBytes());
    }
    rec.span = invalidSpan;
    if (Tracer *tracer = tracerOf(eq_)) {
        rec.span = tracer->begin(tracer->track("host.sls"), "merge",
                                 Phase::HostCompute, rec.traceId);
    }
    cpu_.run(merge, [this, op]() {
        std::unique_ptr<OpState> fin = ops_.take(op);
        if (Tracer *tracer = tracerOf(eq_))
            tracer->end(fin->span);
        fin->done(std::move(fin->result));
    });
}

}  // namespace recssd
