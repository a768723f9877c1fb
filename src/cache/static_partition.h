/**
 * @file
 * Static host-DRAM partitioning of embedding tables (§4.2).
 *
 * The NDP operator returns accumulated sums, so the host cannot
 * populate a demand cache from its results. Instead, input profiling
 * picks the hottest rows per table; those live permanently in host
 * DRAM while the rest stay on the SSD. At inference time the host
 * sends only the cold rows to the device and post-processes the
 * returned partial sums with the hot rows' contributions.
 */

#ifndef RECSSD_CACHE_STATIC_PARTITION_H
#define RECSSD_CACHE_STATIC_PARTITION_H

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"

namespace recssd
{

class StaticPartition
{
  public:
    /** Supplies the fp32 value of (table, row) for resident storage. */
    using ValueProvider =
        std::function<std::vector<float>(std::uint32_t table_id, RowId row)>;

    /** @param entries_per_table DRAM budget, in rows, for each table. */
    explicit StaticPartition(std::size_t entries_per_table);

    /** Record one profiled access (training pass over a trace). */
    void profile(std::uint32_t table_id, RowId row);

    /**
     * Freeze the partition: per table, the `entries_per_table` most
     * frequently profiled rows become DRAM resident, materialized via
     * `values`.
     */
    void build(ValueProvider values);

    bool built() const { return built_; }

    /** @return resident vector, or nullptr if the row is cold. */
    const std::vector<float> *lookup(std::uint32_t table_id, RowId row);

    /** Rows resident for one table. */
    std::size_t residentRows(std::uint32_t table_id) const;

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    double
    hitRate() const
    {
        std::uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(hits_) / total : 0.0;
    }

    void
    resetStats()
    {
        hits_ = 0;
        misses_ = 0;
    }

  private:
    /** One table's frozen resident set. */
    struct Resident
    {
        /** Resident row ids, ascending (binary-searched by lookup). */
        std::vector<RowId> rows;
        /** values[i] is the vector of rows[i]. */
        std::vector<std::vector<float>> values;
    };

    std::size_t entriesPerTable_;
    bool built_ = false;
    /** Profiling counts, indexed by table id. */
    std::vector<std::unordered_map<RowId, std::uint64_t>> counts_;
    /** Frozen resident sets, indexed by table id. */
    std::vector<Resident> resident_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace recssd

#endif  // RECSSD_CACHE_STATIC_PARTITION_H
