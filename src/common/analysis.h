/**
 * @file
 * Protocol annotations for static analysis.
 *
 * Two consumers read these macros:
 *
 *  1. `tools/sim_lint.py` (rules R5-R8). The protocol markers expand
 *     to nothing for every compiler; the linter reads the tokens from
 *     source text and builds a registry of which functions defer
 *     callbacks, which consult the *live* L2P/epoch state, which
 *     register stats, and which open/close tracer spans. The deferred-
 *     state contract they encode is documented in DESIGN.md
 *     ("Deferred-state protocol"): state captured at command issue
 *     (a PPN, a PageView, a cache slot, a hot-tier pin) must be passed
 *     through a live-lookup or epoch check at completion time before
 *     it is re-inserted into any mapping-derived structure.
 *
 *  2. clang's `-Wthread-safety` analysis. The RECSSD_GUARDED_BY /
 *     RECSSD_REQUIRES / capability macros map onto the Clang
 *     thread-safety attributes when compiling with clang and expand to
 *     nothing under gcc. The simulator is single-threaded and stays
 *     so (parallel DES is retired, DESIGN.md "Simulator cost"), so
 *     `SimMutex` is a zero-cost marker. It remains on the two
 *     structures whose access discipline the deferred-state protocol
 *     documents -- the StatRegistry shape and the FTL remap epochs --
 *     where the guarded accessors name the only legal entry points.
 *     The event queue carries no capability: it has one owner.
 */

#ifndef RECSSD_COMMON_ANALYSIS_H
#define RECSSD_COMMON_ANALYSIS_H

/* ------------------------------------------------------------------ */
/* Clang thread-safety attribute mapping (no-ops everywhere else).    */
/* ------------------------------------------------------------------ */

#ifndef __has_attribute
#define __has_attribute(x) 0
#endif

#if defined(__clang__) && __has_attribute(capability)
#define RECSSD_TSA(x) __attribute__((x))
#else
#define RECSSD_TSA(x)  // not clang: contracts are checked by CI's clang leg
#endif

/** Declares a type to be a lockable capability. */
#define RECSSD_CAPABILITY(name) RECSSD_TSA(capability(name))
/** An RAII type that acquires a capability for its lifetime. */
#define RECSSD_SCOPED_CAPABILITY RECSSD_TSA(scoped_lockable)
/** Data member readable/writable only while `x` is held. */
#define RECSSD_GUARDED_BY(x) RECSSD_TSA(guarded_by(x))
/** Pointer member whose *pointee* is guarded by `x`. */
#define RECSSD_PT_GUARDED_BY(x) RECSSD_TSA(pt_guarded_by(x))
/** Function that may only be called while holding the capabilities. */
#define RECSSD_REQUIRES(...) RECSSD_TSA(requires_capability(__VA_ARGS__))
/** Function that acquires the capabilities and holds them on return. */
#define RECSSD_ACQUIRE(...) RECSSD_TSA(acquire_capability(__VA_ARGS__))
/** Function that releases the capabilities. */
#define RECSSD_RELEASE(...) RECSSD_TSA(release_capability(__VA_ARGS__))
/** Function that must NOT be entered holding the capabilities. */
#define RECSSD_EXCLUDES(...) RECSSD_TSA(locks_excluded(__VA_ARGS__))
/** Escape hatch: disable the analysis for one function. */
#define RECSSD_NO_THREAD_SAFETY_ANALYSIS \
    RECSSD_TSA(no_thread_safety_analysis)

/* ------------------------------------------------------------------ */
/* sim-lint protocol markers (rules R5-R8). All expand to nothing;    */
/* their value is the token in the source text.                       */
/* ------------------------------------------------------------------ */

/**
 * R5: this function consults the *live* mapping / epoch state, not a
 * snapshot. Calling it inside a deferred body (completion callback,
 * scheduled event) is what re-validates captured PPNs/views before
 * use. Place after the parameter list:
 *
 *     Ppn translate(Lpn lpn) RECSSD_LIVE_LOOKUP { ... }
 */
#define RECSSD_LIVE_LOOKUP

/**
 * R5/R8: callable arguments to this function run *later* (at a
 * completion, a resource grant, a scheduled tick), not inline. Lambdas
 * passed to it are deferred bodies: their captures are issue-time
 * snapshots and fall under the deferred-state protocol.
 */
#define RECSSD_DEFERS_CALLBACK

/**
 * R5: this function mutates the L2P mapping (bumps a page's remap
 * epoch). Observer notifications annotated RECSSD_NOTIFIES_MAP_SET
 * must be dominated by a call to one of these in the same body.
 */
#define RECSSD_MAP_MUTATOR

/**
 * R5: the observer installed through this setter reports mapping
 * changes; the stored callback must only ever be invoked *after* a
 * RECSSD_MAP_MUTATOR call in the same body (at the map-set instant,
 * never at command entry). The linter derives the member name from
 * the setter (`setWriteObserver` -> `writeObserver_`).
 */
#define RECSSD_NOTIFIES_MAP_SET

/**
 * R6: this function appends a named getter to a StatRegistry.
 * Registrations must dominate sampler/exporter touches within a body,
 * and must never run from a deferred event body.
 */
#define RECSSD_STAT_REGISTRATION

/**
 * R6: this function reads the registry's current shape (samples it,
 * exports rows, scans names). A registration after one of these in
 * the same body is the PR 8 out-of-bounds class.
 */
#define RECSSD_REGISTRY_SAMPLING

/**
 * R7: this function opens a tracer span and returns its SpanId. Every
 * begun span must be ended, captured into a continuation, stored, or
 * returned on every path of the body that begins it.
 */
#define RECSSD_SPAN_BEGIN

/** R7: this function closes a span passed to it. */
#define RECSSD_SPAN_END

/**
 * R5/R8 suppression, placed as the first statement of a deferred
 * body whose captured state is safe without a live lookup. The
 * justification is mandatory and should say *why* the snapshot cannot
 * go stale (immutable region, value-copied payload, ...).
 *
 *     eq.scheduleAfter(d, [snapshot]() {
 *         RECSSD_DEFERRED_SAFE("value copy; no mapping state");
 *         ...
 *     });
 */
#define RECSSD_DEFERRED_SAFE(why)

/**
 * R8 ownership annotation: this deferred body intentionally captures
 * a raw reference/pointer to mutable simulator state. The
 * justification must name the lifetime argument (e.g. "outlives the
 * drained event queue").
 */
#define RECSSD_CAPTURES_MAPPING(why)

namespace recssd
{

/**
 * Zero-cost capability object documenting an access contract.
 *
 * lock()/unlock() compile to nothing, so artifacts stay byte-identical
 * (enforced by test_determinism). Under clang the capability
 * attributes make every RECSSD_GUARDED_BY member access require a
 * SimLockGuard in scope, which pins the guarded state to the
 * accessors that hold one.
 */
class RECSSD_CAPABILITY("mutex") SimMutex
{
  public:
    SimMutex() = default;
    SimMutex(const SimMutex &) = delete;
    SimMutex &operator=(const SimMutex &) = delete;

    void lock() RECSSD_ACQUIRE() {}
    void unlock() RECSSD_RELEASE() {}
};

/** RAII holder for a SimMutex (empty; optimized out entirely). */
class RECSSD_SCOPED_CAPABILITY SimLockGuard
{
  public:
    explicit SimLockGuard(SimMutex &mu) RECSSD_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~SimLockGuard() RECSSD_RELEASE() { mu_.unlock(); }

    SimLockGuard(const SimLockGuard &) = delete;
    SimLockGuard &operator=(const SimLockGuard &) = delete;

  private:
    SimMutex &mu_;
};

}  // namespace recssd

#endif  // RECSSD_COMMON_ANALYSIS_H
