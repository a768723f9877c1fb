/**
 * @file
 * Unit tests of the benchmark's own metric code (perfbench/metrics.h).
 * Build and run with `python3 perfbench/run.py --self-test`.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "perfbench/metrics.h"

using namespace perfbench;

TEST(PercentileRule, P95NeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(200, 0.95), 10u);
    EXPECT_TRUE(percentileSupported(200, 0.95));
    EXPECT_EQ(samplesBeyond(199, 0.95), 9u);
    EXPECT_FALSE(percentileSupported(199, 0.95));
    EXPECT_TRUE(percentileSupported(1000, 0.99));
    EXPECT_FALSE(percentileSupported(999, 0.99));
    // The median is always supported once there are 20 samples.
    EXPECT_TRUE(percentileSupported(20, 0.5));
    EXPECT_FALSE(percentileSupported(0, 0.5));
}

TEST(PercentileRule, MatchesNearestRank)
{
    // Nearest rank: p95 of 400 samples is the 380th, 20 lie beyond.
    EXPECT_EQ(samplesBeyond(400, 0.95), 20u);
    EXPECT_EQ(samplesBeyond(1, 0.95), 0u);
    EXPECT_EQ(samplesBeyond(10, 1.0), 0u);
}

TEST(Attainment, DegradedAndMissingCountAsMisses)
{
    // 100 issued, all completed within the limit: full attainment.
    EXPECT_DOUBLE_EQ(sloAttainment(100, 100, 0), 1.0);
    // 10 never completed: only 90 of the 100 issued can meet it.
    EXPECT_DOUBLE_EQ(sloAttainment(100, 90, 0), 0.9);
    // 5 of the within-limit completions were degraded answers.
    EXPECT_DOUBLE_EQ(sloAttainment(100, 90, 5), 0.85);
    // More degraded than within-limit never goes negative.
    EXPECT_DOUBLE_EQ(sloAttainment(100, 3, 7), 0.0);
    EXPECT_DOUBLE_EQ(sloAttainment(0, 0, 0), 0.0);
}

namespace
{

/** Peak RSS reported by a forked child that touches `mb` MiB. */
double
childPeakRss(std::size_t mb)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -2.0;
    pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        std::vector<char> block(mb << 20);
        std::memset(block.data(), 1, block.size());
        double rss = peakRssMb() + (block[block.size() / 2] == 1 ? 0 : 1);
        ssize_t n = write(fds[1], &rss, sizeof rss);
        _exit(n == sizeof rss ? 0 : 1);
    }
    close(fds[1]);
    double rss = -3.0;
    if (read(fds[0], &rss, sizeof rss) != sizeof rss)
        rss = -4.0;
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    return rss;
}

}  // namespace

TEST(PeakRss, IsPerProcess)
{
    const double base = peakRssMb();
    ASSERT_GT(base, 0.0);
    const double big = childPeakRss(96);
    const double small = childPeakRss(4);
    // The big child saw its own allocation...
    EXPECT_GE(big, 96.0);
    // ...and neither the next process nor this one inherited it.
    EXPECT_LT(small, big - 64.0);
    EXPECT_LT(peakRssMb(), big - 64.0);
}

TEST(SelfTime, SubtractsChildrenOnce)
{
    // root [0, 100] with children a [10, 40] and b [30, 60] (overlap
    // counted once), and a grandchild under a that must not be
    // subtracted from the root.
    std::vector<Span> spans = {
        {"root", 0, 100'000'000'000, -1},
        {"a", 10'000'000'000, 40'000'000'000, 0},
        {"b", 30'000'000'000, 60'000'000'000, 0},
        {"a.child", 15'000'000'000, 25'000'000'000, 1},
    };
    std::vector<double> self = selfTimes(spans);
    ASSERT_EQ(self.size(), 4u);
    EXPECT_DOUBLE_EQ(self[0], 50.0);  // 100 - |[10, 60]|
    EXPECT_DOUBLE_EQ(self[1], 20.0);  // 30 - 10
    EXPECT_DOUBLE_EQ(self[2], 30.0);
    EXPECT_DOUBLE_EQ(self[3], 10.0);
}

TEST(SelfTime, ChildrenClampedToParent)
{
    std::vector<Span> spans = {
        {"root", 10, 20, -1},
        {"late", 15, 30, 0},
    };
    std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 5e-9);
}

TEST(SpanRecorder, NestsAndRejectsOutOfOrderEnds)
{
    SpanRecorder rec(true);
    int root = rec.begin("root");
    int child = rec.begin("child");
    EXPECT_THROW(rec.end(root), std::logic_error);
    rec.end(child);
    rec.end(root);
    ASSERT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spans()[1].parent, root);
    EXPECT_LE(rec.spans()[0].startNs, rec.spans()[1].startNs);
    EXPECT_GE(rec.spans()[0].endNs, rec.spans()[1].endNs);

    SpanRecorder off(false);
    off.end(off.begin("ignored"));
    EXPECT_TRUE(off.spans().empty());
}
