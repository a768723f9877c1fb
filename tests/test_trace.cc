/**
 * @file
 * Trace generator tests, including the paper's K-locality calibration
 * points (unique fractions and LRU hit rates).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"
#include "src/trace/recency_stack.h"
#include "src/trace/stack_distance.h"
#include "src/trace/trace_gen.h"

namespace recssd
{
namespace
{

/**
 * Reference trace generator: the move-to-front vector implementation
 * the order-statistic reuse stack replaced, kept verbatim as the
 * oracle that TraceGenerator must match draw for draw.
 */
class VectorTraceGenerator
{
  public:
    explicit VectorTraceGenerator(const TraceSpec &spec)
        : spec_(spec), rng_(spec.seed)
    {
        switch (spec_.kind) {
          case TraceKind::Zipf:
            zipf_ = std::make_unique<ZipfSampler>(spec_.universe,
                                                  spec_.zipfAlpha);
            break;
          case TraceKind::LocalityK:
            pNew_ = uniqueFractionForK(spec_.k);
            break;
          default:
            break;
        }
    }

    RowId
    next()
    {
        switch (spec_.kind) {
          case TraceKind::Sequential: {
            RowId id = cursor_ % spec_.universe;
            ++cursor_;
            return id;
          }
          case TraceKind::Strided: {
            RowId id = cursor_ % spec_.universe;
            cursor_ += spec_.stride;
            return id;
          }
          case TraceKind::Uniform:
            return rng_.uniformInt(spec_.universe);
          case TraceKind::Zipf:
            return zipf_->sample(rng_);
          case TraceKind::LocalityK:
            return nextLocality();
        }
        return 0;
    }

    std::vector<std::vector<RowId>>
    nextBatch(std::size_t batch, std::size_t lookups)
    {
        std::vector<std::vector<RowId>> out(batch);
        for (auto &list : out) {
            list.reserve(lookups);
            if (spec_.kind == TraceKind::LocalityK) {
                inRequest_ = true;
                for (std::size_t i = 0; i < lookups; ++i)
                    list.push_back(next());
                inRequest_ = false;
                commitRequest();
            } else {
                for (std::size_t i = 0; i < lookups; ++i)
                    list.push_back(next());
            }
        }
        return out;
    }

  private:
    void
    commitRequest()
    {
        constexpr std::size_t kStackCap = 4096;
        // Most-recent first so this request's ids become the top of the
        // reuse stack.
        for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
            auto pos = std::find(stack_.begin(), stack_.end(), *it);
            if (pos != stack_.end())
                stack_.erase(pos);
            stack_.insert(stack_.begin(), *it);
        }
        pending_.clear();
        if (stack_.size() > kStackCap)
            stack_.resize(kStackCap);
    }

    RowId
    nextLocality()
    {
        RowId id;
        if (stack_.empty() || rng_.bernoulli(pNew_)) {
            id = cursor_ % std::min(spec_.activeUniverse, spec_.universe);
            ++cursor_;
        } else {
            auto d = static_cast<std::size_t>(
                rng_.exponential(spec_.reuseStackMean));
            d = std::min(d, stack_.size() - 1);
            id = stack_[d];
        }
        pending_.push_back(id);
        if (!inRequest_)
            commitRequest();
        return id;
    }

    TraceSpec spec_;
    Rng rng_;
    std::unique_ptr<ZipfSampler> zipf_;
    std::uint64_t cursor_ = 0;
    double pNew_ = 1.0;
    bool inRequest_ = false;
    std::vector<RowId> stack_;
    std::vector<RowId> pending_;
};

// The reference has the replaced class's layout: the LocalityK state
// moved behind one pointer, so the other kinds carry no more bytes.
static_assert(sizeof(TraceGenerator) <= sizeof(VectorTraceGenerator));

/**
 * Draw `draws` ids from both generators through a fixed mix of next()
 * and nextBatch() calls and require identical ids, in order.
 */
void
expectSameDraws(const TraceSpec &spec, std::size_t draws)
{
    TraceGenerator got(spec);
    VectorTraceGenerator want(spec);
    struct Call
    {
        std::size_t batch, lookups;  // batch 0 means one next()
    };
    const Call pattern[] = {{0, 1}, {2, 80}, {0, 1}, {0, 1},
                            {4, 13}, {1, 600}, {3, 1}, {1, 0}};
    std::size_t drawn = 0;
    for (std::size_t c = 0; drawn < draws; ++c) {
        const Call &call = pattern[c % std::size(pattern)];
        if (call.batch == 0) {
            ASSERT_EQ(got.next(), want.next())
                << "next() at draw " << drawn;
            ++drawn;
        } else {
            ASSERT_EQ(got.nextBatch(call.batch, call.lookups),
                      want.nextBatch(call.batch, call.lookups))
                << "nextBatch(" << call.batch << ", " << call.lookups
                << ") at draw " << drawn;
            drawn += call.batch * call.lookups;
        }
    }
}

TEST(TraceGen, SequentialWrapsUniverse)
{
    TraceSpec spec;
    spec.kind = TraceKind::Sequential;
    spec.universe = 5;
    TraceGenerator gen(spec);
    std::vector<RowId> got;
    for (int i = 0; i < 7; ++i)
        got.push_back(gen.next());
    EXPECT_EQ(got, (std::vector<RowId>{0, 1, 2, 3, 4, 0, 1}));
}

TEST(TraceGen, StridedStepsByStride)
{
    TraceSpec spec;
    spec.kind = TraceKind::Strided;
    spec.universe = 1000;
    spec.stride = 128;
    TraceGenerator gen(spec);
    EXPECT_EQ(gen.next(), 0u);
    EXPECT_EQ(gen.next(), 128u);
    EXPECT_EQ(gen.next(), 256u);
}

TEST(TraceGen, UniformStaysInUniverseAndCovers)
{
    TraceSpec spec;
    spec.kind = TraceKind::Uniform;
    spec.universe = 64;
    TraceGenerator gen(spec);
    std::unordered_set<RowId> seen;
    for (int i = 0; i < 2000; ++i) {
        RowId id = gen.next();
        ASSERT_LT(id, 64u);
        seen.insert(id);
    }
    EXPECT_EQ(seen.size(), 64u);
}

TEST(TraceGen, DeterministicPerSeed)
{
    TraceSpec spec;
    spec.kind = TraceKind::LocalityK;
    spec.k = 1.0;
    spec.seed = 5;
    TraceGenerator a(spec);
    TraceGenerator b(spec);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());

    TraceSpec other = spec;
    other.seed = 6;
    TraceGenerator c(spec);
    TraceGenerator d(other);
    int same = 0;
    for (int i = 0; i < 500; ++i)
        same += c.next() == d.next() ? 1 : 0;
    EXPECT_LT(same, 400) << "different seeds must diverge";
}

TEST(TraceGen, NextBatchShapes)
{
    TraceSpec spec;
    spec.kind = TraceKind::Uniform;
    spec.universe = 100;
    TraceGenerator gen(spec);
    auto batch = gen.nextBatch(4, 7);
    ASSERT_EQ(batch.size(), 4u);
    for (const auto &list : batch)
        EXPECT_EQ(list.size(), 7u);
}

TEST(TraceGen, UniqueFractionAnchors)
{
    EXPECT_NEAR(uniqueFractionForK(0.0), 0.13, 0.005);
    EXPECT_NEAR(uniqueFractionForK(2.0), 0.72, 0.005);
    EXPECT_NEAR(uniqueFractionForK(1.0), 0.54, 0.05);
    EXPECT_LT(uniqueFractionForK(0.0), uniqueFractionForK(1.0));
    EXPECT_LT(uniqueFractionForK(1.0), uniqueFractionForK(2.0));
}

class LocalityKTest : public ::testing::TestWithParam<double>
{
};

TEST_P(LocalityKTest, HitRateTracksPaperCalibration)
{
    double k = GetParam();
    TraceSpec spec;
    spec.kind = TraceKind::LocalityK;
    spec.k = k;
    spec.universe = 1'000'000;
    spec.seed = 31;
    TraceGenerator gen(spec);

    StackDistanceAnalyzer analyzer;
    constexpr int n = 40'000;
    for (int i = 0; i < n; ++i)
        analyzer.access(gen.next());

    // The paper quotes 84% / 44% / 28% LRU cache hit rates for
    // K = 0 / 1 / 2 with the 2K-entry host cache.
    double hit = analyzer.hitRateAtCapacity(2048);
    double expect = 1.0 - uniqueFractionForK(k);
    EXPECT_NEAR(hit, expect, 0.06);
}

INSTANTIATE_TEST_SUITE_P(Ks, LocalityKTest,
                         ::testing::Values(0.0, 1.0, 2.0));

TEST(LocalityK, FreshIdsCycleActiveUniverse)
{
    TraceSpec spec;
    spec.kind = TraceKind::LocalityK;
    spec.k = 2.0;
    spec.activeUniverse = 100;
    spec.universe = 1'000'000;
    TraceGenerator gen(spec);
    for (int i = 0; i < 5000; ++i)
        ASSERT_LT(gen.next(), 100u);
}

TEST(TraceGenOracle, NonLocalityKindsMatchReference)
{
    for (TraceKind kind : {TraceKind::Sequential, TraceKind::Strided,
                           TraceKind::Uniform, TraceKind::Zipf}) {
        TraceSpec spec;
        spec.kind = kind;
        spec.universe = 100'003;
        spec.stride = 129;
        spec.seed = 11;
        SCOPED_TRACE(static_cast<int>(kind));
        expectSameDraws(spec, 20'000);
    }
}

TEST(TraceGenOracle, LocalityKMatchesReference)
{
    for (double k : {0.0, 0.5, 1.0, 2.0, 4.0}) {
        for (double mean : {4.0, 256.0, 5000.0}) {
            for (std::uint64_t active : {std::uint64_t(7), std::uint64_t(8192),
                                         std::uint64_t(1) << 20}) {
                TraceSpec spec;
                spec.kind = TraceKind::LocalityK;
                spec.k = k;
                spec.reuseStackMean = mean;
                spec.activeUniverse = active;
                spec.universe = 1'000'000;
                spec.seed = 3 + static_cast<std::uint64_t>(k * 10) +
                            static_cast<std::uint64_t>(mean);
                SCOPED_TRACE("k=" + std::to_string(k) + " mean=" +
                             std::to_string(mean) +
                             " active=" + std::to_string(active));
                // Tiny active universes cost the reference nothing and
                // are where compactions pile up, so draw more there.
                expectSameDraws(spec, active == 7 ? 15'000 : 3'000);
            }
        }
    }
}

TEST(TraceGenOracle, OversizeRequestMatchesReference)
{
    // One request with far more distinct ids than the 4096-entry cap:
    // the stack grows past the cap inside the commit, then truncates.
    TraceSpec spec;
    spec.kind = TraceKind::LocalityK;
    spec.k = 2.0;
    spec.activeUniverse = 1 << 20;
    spec.universe = 1 << 21;
    spec.seed = 77;
    TraceGenerator got(spec);
    VectorTraceGenerator want(spec);
    ASSERT_EQ(got.nextBatch(2, 80), want.nextBatch(2, 80));
    ASSERT_EQ(got.nextBatch(1, 12'000), want.nextBatch(1, 12'000));
    for (int i = 0; i < 20; ++i)
        ASSERT_EQ(got.nextBatch(2, 80), want.nextBatch(2, 80)) << i;
    ASSERT_EQ(got.nextBatch(1, 6'000), want.nextBatch(1, 6'000));
    for (int i = 0; i < 1'000; ++i)
        ASSERT_EQ(got.next(), want.next()) << i;
}

TEST(TraceGenOracle, LocalityKWithoutLookupsDrawsNothing)
{
    TraceSpec spec;
    spec.kind = TraceKind::LocalityK;
    TraceGenerator got(spec);
    VectorTraceGenerator want(spec);
    auto empty = got.nextBatch(3, 0);
    ASSERT_EQ(empty.size(), 3u);
    EXPECT_TRUE(empty[0].empty());
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(got.next(), want.next());
}

TEST(RecencyStack, MatchesMoveToFrontVector)
{
    // Phase 1 draws keys from a tiny universe with random caps, so the
    // stack stays small and the stamp space wraps (and compacts) every
    // few touches. Phase 2 keeps ~1500 random 64-bit keys live, so the
    // key->stamp table runs near its load limit with long probe runs
    // that truncation has to delete from.
    RecencyStack stack;
    std::vector<std::uint64_t> ref;  // front = most recent
    Rng rng(5);
    std::vector<std::uint64_t> wide(3000);
    for (auto &key : wide)
        key = rng();
    for (int i = 0; i < 60'000; ++i) {
        bool tiny = i < 30'000;
        std::uint64_t key =
            tiny ? rng.uniformInt(9) : wide[rng.uniformInt(wide.size())];
        auto pos = std::find(ref.begin(), ref.end(), key);
        std::size_t want = RecencyStack::absent;
        if (pos != ref.end()) {
            want = static_cast<std::size_t>(pos - ref.begin());
            ref.erase(pos);
        }
        ref.insert(ref.begin(), key);
        ASSERT_EQ(stack.touch(key), want) << i;
        if (i % 7 == 0) {
            std::size_t cap = tiny || i % 700 == 0
                                  ? rng.uniformInt(ref.size() + 2)
                                  : 1500;
            if (ref.size() > cap)
                ref.resize(cap);
            stack.truncate(cap);
        }
        ASSERT_EQ(stack.size(), ref.size());
        if (!ref.empty()) {
            std::size_t d = rng.uniformInt(ref.size());
            ASSERT_EQ(stack.at(d), ref[d]) << i;
        }
    }
    EXPECT_GT(stack.compactions(), 1000u);
}

TEST(RecencyStack, GrowsPastAnyFixedStampSpace)
{
    // 20000 distinct keys on the stack at once, then cut to 4096.
    RecencyStack stack;
    for (std::uint64_t key = 0; key < 20'000; ++key)
        ASSERT_EQ(stack.touch(key * 7919), RecencyStack::absent);
    ASSERT_EQ(stack.size(), 20'000u);
    EXPECT_EQ(stack.at(0), 19'999u * 7919);
    EXPECT_EQ(stack.at(19'999), 0u);
    EXPECT_EQ(stack.touch(0), 19'999u);
    stack.truncate(4096);
    ASSERT_EQ(stack.size(), 4096u);
    EXPECT_EQ(stack.at(0), 0u);
    EXPECT_EQ(stack.at(1), 19'999u * 7919);
    EXPECT_EQ(stack.at(4095), (20'000u - 4095) * 7919);
    EXPECT_EQ(stack.touch(1 * 7919), RecencyStack::absent);
}

TEST(StackDistance, KnownSequence)
{
    StackDistanceAnalyzer a;
    EXPECT_EQ(a.access(1), StackDistanceAnalyzer::coldDistance);
    EXPECT_EQ(a.access(2), StackDistanceAnalyzer::coldDistance);
    EXPECT_EQ(a.access(1), 1u);
    EXPECT_EQ(a.access(1), 0u);
    EXPECT_EQ(a.access(2), 1u);
    EXPECT_EQ(a.accesses(), 5u);
    EXPECT_EQ(a.uniqueKeys(), 2u);
    EXPECT_NEAR(a.uniqueFraction(), 0.4, 1e-9);
    EXPECT_NEAR(a.hitRateAtCapacity(1), 0.2, 1e-9);
    EXPECT_NEAR(a.hitRateAtCapacity(2), 0.6, 1e-9);
}

TEST(StackDistance, MatchesMoveToFrontLoop)
{
    // The unbounded move-to-front loop the analyzer used to run.
    std::vector<std::uint64_t> stack;
    std::unordered_set<std::uint64_t> seen;
    auto reference = [&](std::uint64_t key) -> std::uint64_t {
        auto it = std::find(stack.begin(), stack.end(), key);
        if (it == stack.end()) {
            seen.insert(key);
            stack.insert(stack.begin(), key);
            return StackDistanceAnalyzer::coldDistance;
        }
        auto d = static_cast<std::uint64_t>(it - stack.begin());
        stack.erase(it);
        stack.insert(stack.begin(), key);
        return d;
    };

    TraceSpec spec;
    spec.kind = TraceKind::Zipf;
    spec.universe = 5'000;
    spec.zipfAlpha = 0.9;
    spec.seed = 9;
    TraceGenerator gen(spec);
    StackDistanceAnalyzer a;
    for (int i = 0; i < 20'000; ++i) {
        std::uint64_t key = gen.next();
        ASSERT_EQ(a.access(key), reference(key)) << i;
    }
    EXPECT_EQ(a.uniqueKeys(), seen.size());
}

}  // namespace
}  // namespace recssd
