#include "src/cache/static_partition.h"

#include <algorithm>

#include "src/common/logging.h"

namespace recssd
{

StaticPartition::StaticPartition(std::size_t entries_per_table)
    : entriesPerTable_(entries_per_table)
{
    recssd_assert(entries_per_table > 0, "partition needs capacity");
}

void
StaticPartition::profile(std::uint32_t table_id, RowId row)
{
    recssd_assert(!built_, "cannot profile a frozen partition");
    if (table_id >= counts_.size())
        counts_.resize(std::size_t(table_id) + 1);
    ++counts_[table_id][row];
}

void
StaticPartition::build(ValueProvider values)
{
    recssd_assert(!built_, "partition already built");
    resident_.resize(counts_.size());
    for (std::uint32_t table_id = 0; table_id < counts_.size(); ++table_id) {
        // The resident set is fixed by the deterministic partial_sort
        // tie-break below, so hash order cannot leak into the result.
        std::vector<std::pair<RowId, std::uint64_t>> ranked(
            counts_[table_id].begin(), counts_[table_id].end());
        std::size_t keep = std::min(entriesPerTable_, ranked.size());
        std::partial_sort(ranked.begin(), ranked.begin() + keep,
                          ranked.end(), [](const auto &a, const auto &b) {
                              if (a.second != b.second)
                                  return a.second > b.second;
                              return a.first < b.first;
                          });
        ranked.resize(keep);
        std::sort(ranked.begin(), ranked.end());
        Resident &res = resident_[table_id];
        res.rows.reserve(keep);
        res.values.reserve(keep);
        for (const auto &[row, count] : ranked) {
            res.rows.push_back(row);
            res.values.push_back(values(table_id, row));
        }
    }
    counts_.clear();
    built_ = true;
}

const std::vector<float> *
StaticPartition::lookup(std::uint32_t table_id, RowId row)
{
    recssd_assert(built_, "partition not built yet");
    if (table_id < resident_.size()) {
        const Resident &res = resident_[table_id];
        auto it = std::lower_bound(res.rows.begin(), res.rows.end(), row);
        if (it != res.rows.end() && *it == row) {
            ++hits_;
            return &res.values[it - res.rows.begin()];
        }
    }
    ++misses_;
    return nullptr;
}

std::size_t
StaticPartition::residentRows(std::uint32_t table_id) const
{
    return table_id < resident_.size() ? resident_[table_id].rows.size() : 0;
}

}  // namespace recssd
