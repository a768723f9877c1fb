/**
 * @file
 * Unit and property tests for the cache family: the generic LRU
 * template, the key-only set-associative LRU, the FTL page cache, the
 * host embedding cache and the static partition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cache/host_embedding_cache.h"
#include "src/cache/lru_cache.h"
#include "src/cache/set_assoc_lru.h"
#include "src/cache/static_partition.h"
#include "src/common/random.h"
#include "src/ftl/page_cache.h"

namespace recssd
{
namespace
{

TEST(LruCache, BasicPutGet)
{
    LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    EXPECT_EQ(*cache.get(1), 10);
    EXPECT_EQ(*cache.get(2), 20);
    EXPECT_EQ(cache.get(3), nullptr);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed)
{
    LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    cache.get(1);          // 2 becomes LRU
    cache.put(3, 30);      // evicts 2
    EXPECT_NE(cache.get(1), nullptr);
    EXPECT_EQ(cache.get(2), nullptr);
    EXPECT_NE(cache.get(3), nullptr);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCache, PutOverwritesAndPromotes)
{
    LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    cache.put(1, 11);  // promote 1
    cache.put(3, 30);  // evicts 2
    EXPECT_EQ(*cache.get(1), 11);
    EXPECT_EQ(cache.get(2), nullptr);
}

/** Property: LruCache matches a straightforward reference model. */
TEST(LruCache, MatchesReferenceModel)
{
    constexpr std::size_t kCap = 16;
    LruCache<std::uint64_t, std::uint64_t> cache(kCap);
    // Reference: map + recency list.
    std::vector<std::uint64_t> recency;  // front = MRU
    std::map<std::uint64_t, std::uint64_t> ref;
    Rng rng(77);
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t key = rng.uniformInt(64);
        auto *hit = cache.get(key);
        bool ref_hit = ref.contains(key);
        ASSERT_EQ(hit != nullptr, ref_hit) << "step " << i;
        if (ref_hit) {
            ASSERT_EQ(*hit, ref[key]);
            recency.erase(std::find(recency.begin(), recency.end(), key));
            recency.insert(recency.begin(), key);
        } else {
            std::uint64_t value = rng();
            cache.put(key, value);
            if (ref.size() >= kCap) {
                ref.erase(recency.back());
                recency.pop_back();
            }
            ref[key] = value;
            recency.insert(recency.begin(), key);
        }
    }
}

class SetAssocLruTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SetAssocLruTest, HitsAfterInsert)
{
    unsigned ways = GetParam();
    SetAssocLru cache(64 * ways / ways * ways, ways);
    EXPECT_FALSE(cache.access(5));
    EXPECT_TRUE(cache.access(5));
    EXPECT_TRUE(cache.contains(5));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST_P(SetAssocLruTest, WorkingSetWithinCapacityAlwaysHits)
{
    unsigned ways = GetParam();
    SetAssocLru cache(256, ways);
    // A tiny working set re-accessed in a loop must stabilize at
    // 100% hits regardless of associativity. Warm the set first.
    for (std::uint64_t k = 0; k < 8; ++k)
        cache.access(k);
    cache.resetStats();
    for (int round = 0; round < 4; ++round) {
        for (std::uint64_t k = 0; k < 8; ++k)
            cache.access(k);
    }
    EXPECT_EQ(cache.misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Ways, SetAssocLruTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

TEST(SetAssocLru, FullyAssocMatchesLruSemantics)
{
    SetAssocLru cache(4, 4);  // one set of 4 ways = fully associative
    for (std::uint64_t k : {1, 2, 3, 4})
        cache.access(k);
    cache.access(1);   // 2 is now LRU
    cache.access(5);   // evicts 2
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(5));
}

TEST(PageCache, LookupInsertInvalidate)
{
    PageCache cache(16, 4);
    Ppn out = 0;
    EXPECT_FALSE(cache.lookup(1, out));
    cache.insert(1, 100);
    EXPECT_TRUE(cache.lookup(1, out));
    EXPECT_EQ(out, 100u);
    cache.insert(1, 200);  // update in place
    EXPECT_TRUE(cache.lookup(1, out));
    EXPECT_EQ(out, 200u);
    cache.invalidate(1);
    EXPECT_FALSE(cache.lookup(1, out));
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(PageCacheDeathTest, BadGeometryPanics)
{
    EXPECT_DEATH(PageCache(10, 4), "multiple of ways");
}

TEST(HostEmbeddingCache, PerTableIsolation)
{
    HostEmbeddingCache cache(2);
    cache.put(0, 5, {1.0f});
    cache.put(1, 5, {2.0f});
    EXPECT_EQ((*cache.get(0, 5))[0], 1.0f);
    EXPECT_EQ((*cache.get(1, 5))[0], 2.0f);
    // Capacity is per table: filling table 0 leaves table 1 alone.
    cache.put(0, 6, {3.0f});
    cache.put(0, 7, {4.0f});  // evicts row 5 of table 0
    EXPECT_EQ(cache.get(0, 5), nullptr);
    EXPECT_NE(cache.get(1, 5), nullptr);
}

TEST(HostEmbeddingCache, AggregatedStats)
{
    HostEmbeddingCache cache(4);
    cache.get(0, 1);
    cache.put(0, 1, {1.0f});
    cache.get(0, 1);
    cache.get(1, 9);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_NEAR(cache.hitRate(), 1.0 / 3.0, 1e-9);
    cache.resetStats();
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(StaticPartition, KeepsHottestRows)
{
    StaticPartition part(2);
    for (int i = 0; i < 10; ++i)
        part.profile(0, 1);
    for (int i = 0; i < 5; ++i)
        part.profile(0, 2);
    part.profile(0, 3);
    part.build([](std::uint32_t, RowId row) {
        return std::vector<float>{static_cast<float>(row)};
    });
    EXPECT_TRUE(part.built());
    EXPECT_EQ(part.residentRows(0), 2u);
    EXPECT_NE(part.lookup(0, 1), nullptr);
    EXPECT_NE(part.lookup(0, 2), nullptr);
    EXPECT_EQ(part.lookup(0, 3), nullptr);
    EXPECT_EQ(part.hits(), 2u);
    EXPECT_EQ(part.misses(), 1u);
}

TEST(StaticPartition, ValuesComeFromProvider)
{
    StaticPartition part(1);
    part.profile(7, 42);
    part.build([](std::uint32_t table, RowId row) {
        return std::vector<float>{static_cast<float>(table * 1000 + row)};
    });
    EXPECT_EQ((*part.lookup(7, 42))[0], 7042.0f);
}

std::vector<float>
rowValue(std::uint32_t table, RowId row)
{
    return {static_cast<float>(table), static_cast<float>(row)};
}

TEST(StaticPartition, UnknownTablesMiss)
{
    StaticPartition part(4);
    part.profile(2, 10);
    part.build(rowValue);
    EXPECT_EQ(part.lookup(0, 10), nullptr);  // below the profiled id
    EXPECT_EQ(part.lookup(3, 10), nullptr);  // beyond the largest id
    EXPECT_EQ(part.lookup(1'000'000, 10), nullptr);
    EXPECT_EQ(part.residentRows(0), 0u);
    EXPECT_EQ(part.residentRows(1'000'000), 0u);
    EXPECT_NE(part.lookup(2, 10), nullptr);
    EXPECT_EQ(part.hits(), 1u);
    EXPECT_EQ(part.misses(), 3u);
}

TEST(StaticPartition, SparseTableIds)
{
    StaticPartition part(2);
    part.profile(0, 1);
    part.profile(5, 1);
    part.profile(5, 2);
    part.profile(5, 2);
    part.profile(5, 3);
    part.build(rowValue);
    EXPECT_EQ(part.residentRows(0), 1u);
    EXPECT_EQ(part.residentRows(1), 0u);
    EXPECT_EQ(part.residentRows(4), 0u);
    EXPECT_EQ(part.residentRows(5), 2u);
    EXPECT_EQ(*part.lookup(0, 1), rowValue(0, 1));
    EXPECT_EQ(part.lookup(0, 2), nullptr);
    EXPECT_EQ(part.lookup(3, 1), nullptr);
    EXPECT_EQ(*part.lookup(5, 1), rowValue(5, 1));  // 1 beats 3 on row id
    EXPECT_EQ(*part.lookup(5, 2), rowValue(5, 2));
    EXPECT_EQ(part.lookup(5, 3), nullptr);
}

TEST(StaticPartition, FewerProfiledRowsThanCapacity)
{
    StaticPartition part(100);
    for (RowId row : {40, 7, 7, 1000, 3})
        part.profile(1, row);
    part.build(rowValue);
    EXPECT_EQ(part.residentRows(1), 4u);
    for (RowId row : {3, 7, 40, 1000})
        EXPECT_EQ(*part.lookup(1, row), rowValue(1, row)) << row;
    for (RowId row : {0, 2, 8, 39, 41, 999, 1001})
        EXPECT_EQ(part.lookup(1, row), nullptr) << row;
}

TEST(StaticPartition, MatchesNestedMapReference)
{
    // Reference: the nested-hash-map partition the flat one replaced
    // (same ranking, per-table resident sets keyed by row).
    constexpr std::size_t capacity = 64;
    std::map<std::uint32_t, std::unordered_map<RowId, std::uint64_t>> counts;
    std::map<std::uint32_t, std::unordered_map<RowId, std::vector<float>>>
        resident;
    StaticPartition part(capacity);
    Rng rng(21);
    ZipfSampler zipf(500, 0.9);
    const std::uint32_t tables[] = {0, 1, 3, 6};
    for (int i = 0; i < 20'000; ++i) {
        std::uint32_t table = tables[rng.uniformInt(std::size(tables))];
        RowId row = zipf.sample(rng) * 3 + table;
        part.profile(table, row);
        ++counts[table][row];
    }
    part.build(rowValue);
    for (auto &[table, rows] : counts) {
        std::vector<std::pair<RowId, std::uint64_t>> ranked(rows.begin(),
                                                            rows.end());
        std::size_t keep = std::min(capacity, ranked.size());
        std::partial_sort(ranked.begin(), ranked.begin() + keep,
                          ranked.end(), [](const auto &a, const auto &b) {
                              if (a.second != b.second)
                                  return a.second > b.second;
                              return a.first < b.first;
                          });
        for (std::size_t i = 0; i < keep; ++i)
            resident[table].emplace(ranked[i].first,
                                    rowValue(table, ranked[i].first));
    }

    std::uint64_t hits = 0, misses = 0;
    for (int i = 0; i < 50'000; ++i) {
        auto table = static_cast<std::uint32_t>(rng.uniformInt(8));
        RowId row = zipf.sample(rng) * 3 + rng.uniformInt(4);
        const std::vector<float> *want = nullptr;
        if (auto t = resident.find(table); t != resident.end()) {
            if (auto r = t->second.find(row); r != t->second.end())
                want = &r->second;
        }
        const std::vector<float> *got = part.lookup(table, row);
        ASSERT_EQ(got == nullptr, want == nullptr) << table << "/" << row;
        if (want) {
            ASSERT_EQ(*got, *want);
            ++hits;
        } else {
            ++misses;
        }
    }
    EXPECT_EQ(part.hits(), hits);
    EXPECT_EQ(part.misses(), misses);
    EXPECT_GT(hits, 0u);
    EXPECT_GT(misses, 0u);
    for (std::uint32_t table = 0; table < 8; ++table) {
        std::size_t want =
            resident.count(table) ? resident.at(table).size() : 0;
        EXPECT_EQ(part.residentRows(table), want) << table;
    }
}

TEST(StaticPartition, ReturnedPointersStayValid)
{
    StaticPartition part(32);
    for (std::uint32_t table = 0; table < 4; ++table) {
        for (RowId row = 0; row < 40; ++row)
            part.profile(table, row * 5);
    }
    part.build(rowValue);
    std::vector<std::pair<const std::vector<float> *, std::vector<float>>>
        held;
    for (std::uint32_t table = 0; table < 4; ++table) {
        for (RowId row = 0; row < 200; ++row) {
            if (const auto *vec = part.lookup(table, row))
                held.emplace_back(vec, rowValue(table, row));
        }
    }
    ASSERT_EQ(held.size(), 4u * 32);
    // Later lookups never move what earlier ones returned.
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint32_t table = 0; table < 6; ++table) {
            for (RowId row = 0; row < 200; ++row)
                part.lookup(table, row);
        }
    }
    for (const auto &[vec, value] : held)
        EXPECT_EQ(*vec, value);
}

TEST(StaticPartitionDeathTest, LookupBeforeBuildPanics)
{
    StaticPartition part(1);
    EXPECT_DEATH(part.lookup(0, 0), "not built");
}

TEST(StaticPartitionDeathTest, ProfileAfterBuildPanics)
{
    StaticPartition part(1);
    part.profile(0, 0);
    part.build([](std::uint32_t, RowId) { return std::vector<float>{}; });
    EXPECT_DEATH(part.profile(0, 1), "frozen");
}

}  // namespace
}  // namespace recssd
