/**
 * @file
 * sim-lint self-test fixture: R7 span-pairing clean shapes.
 * The self-test fails if the linter reports anything here.
 */

#include "src/common/analysis.h"

namespace r7_clean_fixture
{

using SpanId = unsigned long;

struct Tracer
{
    SpanId begin(const char *track, const char *name) RECSSD_SPAN_BEGIN;
    void end(SpanId span) RECSSD_SPAN_END;
};

struct EventQueue
{
    template <typename Fn>
    void scheduleAfter(long delay, Fn fn) RECSSD_DEFERS_CALLBACK;
};

// Straight-line begin/end.
void
paired(Tracer &tracer)
{
    SpanId span = tracer.begin("cpu", "reduce");
    tracer.end(span);
}

// End on the early path before the return, end on the main path too.
int
endedOnEveryPath(Tracer &tracer, int rows)
{
    SpanId span = tracer.begin("cpu", "gather");
    if (rows == 0) {
        tracer.end(span);
        return -1;
    }
    tracer.end(span);
    return rows;
}

// Handed off into the continuation that ends it at completion time.
void
handoff(Tracer &tracer, EventQueue &eq, long delay)
{
    SpanId span = tracer.begin("flash", "read");
    eq.scheduleAfter(delay, [&tracer, span]() {
        RECSSD_CAPTURES_MAPPING("tracer outlives the drained queue");
        tracer.end(span);
    });
}

// Returned to the caller, who owns ending it.
SpanId
beginPhase(Tracer &tracer)
{
    SpanId span = tracer.begin("cpu", "phase");
    return span;
}

struct Pending
{
    SpanId span;
};

// Stored into a pending record; the drain path ends it later.
void
stash(Tracer &tracer, Pending &pending)
{
    SpanId span = tracer.begin("queue", "wait");
    pending.span = span;
}

struct QueuedQuery
{
    unsigned tenant;
    SpanId rootSpan;
};

// The QoS submission shape: the root span opened at tag-queue entry
// is stored into the queued record, whose grant path ends it when
// the query dispatches -- storage is a handoff, and the early reject
// ends the span before bailing.
int
submitHandsOff(Tracer &tracer, QueuedQuery &slot, unsigned tenant,
               int batch)
{
    SpanId rootSpan = tracer.begin("qos", "queue_wait");
    if (batch <= 0) {
        tracer.end(rootSpan);
        return -1;
    }
    slot.tenant = tenant;
    slot.rootSpan = rootSpan;
    return batch;
}

// The grant side of the handoff: the span arrives in the record and
// is ended when the dispatch completion fires.
void
grantEnds(Tracer &tracer, EventQueue &eq, QueuedQuery &slot, long delay)
{
    SpanId span = slot.rootSpan;
    eq.scheduleAfter(delay, [&tracer, span]() {
        RECSSD_CAPTURES_MAPPING("tracer outlives the drained queue");
        tracer.end(span);
    });
}

/** A pooled hop's op table: records addressed by index. */
struct OpTable
{
    unsigned put(Pending rec);
    Pending take(unsigned op);
};

// The pooled-hop shape: the span id is stored into the op table
// record, and the pooled completion (an event capturing only the
// index) takes the record out and ends the span.
void
pooledIssue(Tracer &tracer, EventQueue &eq, OpTable &ops, long delay)
{
    SpanId span = tracer.begin("flash", "read");
    unsigned op = ops.put(Pending{span});
    eq.scheduleAfter(delay, [&tracer, &ops, op]() {
        RECSSD_CAPTURES_MAPPING("tracer and table outlive the queue");
        Pending rec = ops.take(op);
        tracer.end(rec.span);
    });
}

// A container `.begin()` assignment is not a span begin (zero-arg
// call): iterators are exempt even though the method is named begin.
template <typename Map>
unsigned long
firstKey(const Map &m)
{
    auto it = m.begin();
    return it == m.end() ? 0UL : it->first;
}

}  // namespace r7_clean_fixture
