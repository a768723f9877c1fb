/**
 * @file
 * The benchmark's own metric code: tail-percentile eligibility, SLO
 * attainment over issued work, per-process peak RSS, and the span
 * recorder of the traced run with its self-time computation. Kept
 * apart from the driver so the rules are unit-tested (test_metrics.cc).
 */

#ifndef RECSSD_PERFBENCH_METRICS_H
#define RECSSD_PERFBENCH_METRICS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Samples strictly beyond the nearest-rank q-quantile of n samples. */
std::uint64_t samplesBeyond(std::uint64_t n, double q);

/**
 * A percentile is reported only when at least `minBeyond` samples lie
 * beyond it (10 by default): p95 needs 200 samples, p99 1000.
 */
bool percentileSupported(std::uint64_t n, double q,
                         std::uint64_t minBeyond = 10);

/**
 * Share of issued queries that completed within the latency limit and
 * were not degraded. Missing queries (issued - completed) are misses.
 * The serve stats do not say which degraded queries met the limit, so
 * every degraded query is taken off the within-limit count: exact when
 * none is degraded, and never an overstatement otherwise.
 */
double sloAttainment(std::uint64_t issued, std::uint64_t withinLimit,
                     std::uint64_t degraded);

/** Peak resident set of the calling process (VmHWM), in MiB; -1 when
 *  /proc is unavailable. */
double peakRssMb();

/** One recorded span of the benchmark's own calls (host time). */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span in the recorder, -1 for a root. */
    int parent = -1;
};

/**
 * Records nested spans around the benchmark's calls into each layer.
 * Spans stay in memory; the caller writes them once at the end. When
 * disabled, begin/end cost one branch and record nothing.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    /** Open a span as a child of the innermost open one. */
    int begin(const std::string &name);
    /** Close span `id` (must be the innermost open span). */
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * Self time of each span, in seconds: its duration minus the part of
 * its interval that its direct children cover (overlapping children
 * count once). Parallel to `spans`.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

}  // namespace perfbench

#endif  // RECSSD_PERFBENCH_METRICS_H
