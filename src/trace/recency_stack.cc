#include "src/trace/recency_stack.h"

#include <algorithm>
#include <bit>

#include "src/common/logging.h"

namespace recssd
{

namespace
{

/** Smallest stamp space and key->stamp table; both stay powers of two. */
constexpr std::size_t kMinStamps = 16;
constexpr std::size_t kMinSlots = 16;

}  // namespace

std::size_t
RecencyStack::touch(std::uint64_t key)
{
    if (next_ == keyAt_.size())
        compact();
    std::size_t slot = findSlot(key);
    std::size_t depth = absent;
    if (slots_[slot] != emptySlot) {
        std::uint32_t old = slots_[slot];
        depth = live_ - fenwickPrefix(old);
        fenwickAdd(old, -1);
        liveAt_[old] = false;
    } else {
        ++live_;
        if (live_ * 2 > slots_.size()) {
            rehash(slots_.size() * 2);
            slot = findSlot(key);
        }
    }
    std::uint32_t stamp = next_++;
    keyAt_[stamp] = key;
    liveAt_[stamp] = true;
    fenwickAdd(stamp, 1);
    slots_[slot] = stamp;
    return depth;
}

std::uint64_t
RecencyStack::at(std::size_t depth) const
{
    recssd_assert(depth < live_, "recency stack depth out of range");
    // Descend the Fenwick tree to the (live_ - depth)-th smallest live
    // stamp; tree_.size() - 1 is the (power-of-two) stamp space.
    std::size_t rank = live_ - depth;
    std::size_t pos = 0;
    for (std::size_t step = std::bit_floor(tree_.size() - 1); step;
         step >>= 1) {
        if (tree_[pos + step] < rank) {
            pos += step;
            rank -= tree_[pos];
        }
    }
    return keyAt_[pos];
}

void
RecencyStack::truncate(std::size_t cap)
{
    while (live_ > cap) {
        while (!liveAt_[oldest_])
            ++oldest_;
        erase(findSlot(keyAt_[oldest_]));
    }
}

std::size_t
RecencyStack::home(std::uint64_t key) const
{
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
}

std::size_t
RecencyStack::findSlot(std::uint64_t key) const
{
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
        std::uint32_t stamp = slots_[i];
        if (stamp == emptySlot || keyAt_[stamp] == key)
            return i;
    }
}

void
RecencyStack::rehash(std::size_t slots)
{
    slots_.assign(slots, emptySlot);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (std::uint32_t s = oldest_; s < next_; ++s) {
        if (liveAt_[s])
            slots_[findSlot(keyAt_[s])] = s;
    }
}

void
RecencyStack::erase(std::size_t slot)
{
    std::uint32_t stamp = slots_[slot];
    fenwickAdd(stamp, -1);
    liveAt_[stamp] = false;
    --live_;
    // Backward-shift deletion: pull each later entry of the probe run
    // into the hole unless its home slot lies cyclically in
    // (hole, i], where it must stay to remain reachable.
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = slot;
    for (std::size_t i = (hole + 1) & mask; slots_[i] != emptySlot;
         i = (i + 1) & mask) {
        std::size_t from_home = (i - home(keyAt_[slots_[i]])) & mask;
        if (from_home >= ((i - hole) & mask)) {
            slots_[hole] = slots_[i];
            hole = i;
        }
    }
    slots_[hole] = emptySlot;
}

void
RecencyStack::fenwickAdd(std::uint32_t stamp, int delta)
{
    for (std::size_t i = std::size_t(stamp) + 1; i < tree_.size();
         i += i & (~i + 1))
        tree_[i] += static_cast<std::uint32_t>(delta);
}

std::size_t
RecencyStack::fenwickPrefix(std::uint32_t stamp) const
{
    std::size_t sum = 0;
    for (std::size_t i = std::size_t(stamp) + 1; i > 0; i &= i - 1)
        sum += tree_[i];
    return sum;
}

void
RecencyStack::compact()
{
    std::size_t stamps = std::max(keyAt_.size(), kMinStamps);
    while (stamps - live_ < stamps / 4)
        stamps *= 2;
    recssd_assert(stamps < emptySlot, "recency stack stamp space overflow");

    std::vector<std::uint64_t> keys;
    keys.reserve(stamps);
    for (std::uint32_t s = oldest_; s < next_; ++s) {
        if (liveAt_[s])
            keys.push_back(keyAt_[s]);
    }
    keyAt_ = std::move(keys);
    keyAt_.resize(stamps);
    liveAt_.assign(stamps, false);
    std::fill_n(liveAt_.begin(), live_, true);

    // Linear-time Fenwick build over stamps 0..live_-1 all live.
    tree_.assign(stamps + 1, 0);
    std::fill_n(tree_.begin() + 1, live_, 1u);
    for (std::size_t i = 1; i <= stamps; ++i) {
        std::size_t parent = i + (i & (~i + 1));
        if (parent <= stamps)
            tree_[parent] += tree_[i];
    }

    oldest_ = 0;
    next_ = static_cast<std::uint32_t>(live_);
    rehash(std::max(slots_.size(), kMinSlots));
    ++compactions_;
}

}  // namespace recssd
