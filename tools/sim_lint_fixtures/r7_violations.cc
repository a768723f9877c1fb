/**
 * @file
 * sim-lint self-test fixture: R7 span-pairing violations.
 *
 * A span begun and never ended never reaches the trace artifact (the
 * Perfetto exporter drops unbalanced spans), so the phase-attribution
 * accounting silently loses the phase -- worse than crashing.  Every
 * begun span must be ended, captured into the continuation that will
 * end it, stored, or returned, with no plain `return` sneaking out
 * between the begin and that resolution.  Never compiled; never
 * scanned by CI.
 */

#include "src/common/analysis.h"

namespace r7_fixture
{

using SpanId = unsigned long;

struct Tracer
{
    SpanId begin(const char *track, const char *name) RECSSD_SPAN_BEGIN;
    SpanId beginRequest(const char *name, unsigned long id)
        RECSSD_SPAN_BEGIN;
    void end(SpanId span) RECSSD_SPAN_END;
};

// Begun and dropped on the floor: the span id dies with this frame.
void
leakSpan(Tracer &tracer)
{
    SpanId span = tracer.begin("cpu", "reduce");  // expect: R7
    int busy = 0;
    (void)busy;
}

// The early-out path returns without ending the request span.
int
earlyReturn(Tracer &tracer, int rows)
{
    SpanId span = tracer.beginRequest("gather", 7);
    if (rows == 0)
        return -1;  // expect: R7
    tracer.end(span);
    return rows;
}

// The QoS submission shape gone wrong: the per-query root span is
// opened when the query enters the tag queue, but the reject path
// (malformed shape, tenant over hard cap) bails before the span is
// ended or handed to the pending record -- the query's whole
// queueing phase vanishes from the trace.
int
submitRejectLeaks(Tracer &tracer, unsigned tenant, int batch)
{
    SpanId rootSpan = tracer.beginRequest("qos.submit", tenant);
    if (batch <= 0)
        return -1;  // expect: R7
    tracer.end(rootSpan);
    return batch;
}

struct Pending
{
    SpanId span;
};

/** A pooled hop's op table: records addressed by index. */
struct OpTable
{
    unsigned put(Pending rec);
};

// The pooled-hop shape gone wrong: the read's span is begun, but the
// table-full early-out returns before the id is stored into the op
// table record, so no pooled completion will ever end it.
int
pooledIssueLeaks(Tracer &tracer, OpTable &ops, bool full)
{
    SpanId span = tracer.begin("flash", "read");
    if (full)
        return -1;  // expect: R7
    ops.put(Pending{span});
    return 0;
}

}  // namespace r7_fixture
