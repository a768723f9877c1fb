/**
 * @file
 * Order-statistic LRU ("recency") stack over 64-bit keys.
 *
 * Answers the two questions the locality trace generator and the
 * stack-distance analyzer ask of an LRU stack -- "which key sits at
 * depth d?" and "how deep was this key before it was touched?" -- in
 * O(log n) instead of the O(n) scan of a move-to-front vector.
 *
 * Each live key holds a recency stamp; a later touch gets a larger
 * stamp. A Fenwick tree over the stamp space counts live stamps, so
 * the key at depth d is the (size - d)-th smallest live stamp and the
 * depth of a key is the number of live stamps above its own. When the
 * stamp space runs out, the live keys are renumbered 0..size-1 in
 * recency order (and the space grows if it was mostly live). The
 * key->stamp index is a flat open-addressing table whose slots hold
 * stamps and read the key back through the stamp->key array, so every
 * array is bounded by the peak number of live keys, never by the key
 * range.
 *
 * The order of keys is exactly that of a vector with front insertion,
 * erase-on-touch and back truncation, so callers built on that vector
 * produce byte-identical output on this one.
 */

#ifndef RECSSD_TRACE_RECENCY_STACK_H
#define RECSSD_TRACE_RECENCY_STACK_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace recssd
{

class RecencyStack
{
  public:
    /** touch() result for a key that was not on the stack. */
    static constexpr std::size_t absent = ~std::size_t(0);

    std::size_t size() const { return live_; }
    bool empty() const { return live_ == 0; }

    /**
     * Move `key` to the top of the stack (depth 0).
     * @return its depth before the move, or `absent` if it was new.
     */
    std::size_t touch(std::uint64_t key);

    /** Key at depth `depth` (0 = most recent); needs depth < size(). */
    std::uint64_t at(std::size_t depth) const;

    /** Drop the least recent keys until at most `cap` remain. */
    void truncate(std::size_t cap);

    /** Stamp-space renumberings so far (tests use it). */
    std::uint64_t compactions() const { return compactions_; }

  private:
    static constexpr std::uint32_t emptySlot = ~std::uint32_t(0);

    /** Home slot of `key` in the key->stamp table. */
    std::size_t home(std::uint64_t key) const;
    /** Slot holding `key`, or the empty slot where it would go. */
    std::size_t findSlot(std::uint64_t key) const;
    /** Re-index the live keys in a table of `slots` entries. */
    void rehash(std::size_t slots);
    /** Remove the key at `slot` (backward-shift deletion). */
    void erase(std::size_t slot);

    /** Add `delta` at stamp `stamp` in the Fenwick tree. */
    void fenwickAdd(std::uint32_t stamp, int delta);
    /** Live stamps <= `stamp`. */
    std::size_t fenwickPrefix(std::uint32_t stamp) const;

    /** Renumber the live keys 0..size-1, growing the stamp space if
     *  more than three quarters of it is live. */
    void compact();

    /** Key of each stamp (meaningful where liveAt_ is set). */
    std::vector<std::uint64_t> keyAt_;
    std::vector<bool> liveAt_;
    /** Fenwick tree of live stamps, 1-indexed (tree_[0] unused). */
    std::vector<std::uint32_t> tree_;
    /** Key->stamp table: linear probing, emptySlot marks a free slot. */
    std::vector<std::uint32_t> slots_;
    /** 64 - log2(slots_.size()): Fibonacci-hash shift. */
    unsigned shift_ = 64;
    /** Next stamp to hand out. */
    std::uint32_t next_ = 0;
    /** No live stamp is below this one. */
    std::uint32_t oldest_ = 0;
    std::size_t live_ = 0;
    std::uint64_t compactions_ = 0;
};

}  // namespace recssd

#endif  // RECSSD_TRACE_RECENCY_STACK_H
