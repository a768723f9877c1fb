#include "perfbench/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench
{

std::uint64_t
samplesBeyond(std::uint64_t n, double q)
{
    if (n == 0)
        return 0;
    // The same nearest-rank rule as recssd::LatencyRecorder, which
    // computes the percentiles the benchmark reports.
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::max<std::uint64_t>(1, std::min(rank, n));
    return n - rank;
}

bool
percentileSupported(std::uint64_t n, double q, std::uint64_t minBeyond)
{
    return samplesBeyond(n, q) >= minBeyond;
}

double
sloAttainment(std::uint64_t issued, std::uint64_t withinLimit,
              std::uint64_t degraded)
{
    if (issued == 0)
        return 0.0;
    std::uint64_t met = withinLimit > degraded ? withinLimit - degraded : 0;
    met = std::min(met, issued);
    return static_cast<double>(met) / static_cast<double>(issued);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
    return -1.0;
}

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

int
SpanRecorder::begin(const std::string &name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    if (!enabled_)
        return;
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("span closed out of order");
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    open_.pop_back();
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs,
                                                                  s.endNs);
    }
    std::vector<double> out(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children's intervals, clamped to the parent.
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            b = std::min(b, s.endNs);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        out[i] = static_cast<double>(s.endNs - s.startNs - covered) * 1e-9;
    }
    return out;
}

}  // namespace perfbench
