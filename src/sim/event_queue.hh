/**
 * @file
 * The replay engine's event queue: a winner tree over packed
 * (cycle, core) keys.
 *
 * The Transmuter interleaves its core streams by executing, one op at
 * a time, the core with the earliest local cycle, ties going to the
 * lower core id. Every core has at most one pending event, so the
 * queue is a complete binary tree with one leaf per core: each inner
 * node holds the smaller of its two children and the root holds the
 * next event.
 *
 * A key is `cycle << coreBits | core`, where coreBits is the width of
 * the padded leaf count (7 bits for the 4x16 shape's 68 cores). Core
 * ids fit in the low bits, so one unsigned compare of two keys orders
 * them exactly as the (cycle, core) pair order does. A core with no
 * pending event (parked at a barrier, or out of ops) holds `idle`,
 * which compares above every real key.
 */

#ifndef SADAPT_SIM_EVENT_QUEUE_HH
#define SADAPT_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace sadapt {

/** Winner tree of the cores' pending events (see the file comment). */
class EventTree
{
  public:
    /** Key of a core with no pending event. */
    static constexpr std::uint64_t idle = ~std::uint64_t{0};

    /** @param cores number of leaves; every core starts idle. */
    explicit EventTree(std::uint32_t cores)
        : leaves(std::bit_ceil(std::max<std::uint32_t>(cores, 1))),
          coreBits(static_cast<std::uint32_t>(std::countr_zero(leaves))),
          node(2 * static_cast<std::size_t>(leaves), idle)
    {
    }

    /**
     * The key of an event of `core` at `cycle`. Panics when the cycle
     * does not fit above the core bits: a truncated key would reorder
     * events silently, and no key may reach `idle`.
     */
    std::uint64_t
    pack(Cycles cycle, std::uint32_t core) const
    {
        SADAPT_ASSERT(cycle < (idle >> coreBits),
                      "event cycle overflows the packed event key");
        return cycle << coreBits | core;
    }

    Cycles cycleOf(std::uint64_t key) const { return key >> coreBits; }

    std::uint32_t
    coreOf(std::uint64_t key) const
    {
        return static_cast<std::uint32_t>(key & (leaves - 1));
    }

    /**
     * Give `core` the pending event `key` (`idle` parks it). Walks
     * from the leaf to the root, carrying the subtree minimum.
     */
    void
    set(std::uint32_t core, std::uint64_t key)
    {
        std::size_t i = leaves + core;
        node[i] = key;
        std::uint64_t m = key;
        while (i > 1) {
            m = std::min(m, node[i ^ 1]);
            i >>= 1;
            node[i] = m;
        }
    }

    /** The pending event of `core`. */
    std::uint64_t
    key(std::uint32_t core) const
    {
        return node[leaves + core];
    }

    /** The earliest pending event; `idle` when every core is idle. */
    std::uint64_t min() const { return node[1]; }

  private:
    std::uint32_t leaves;   //!< core count rounded up to a power of two
    std::uint32_t coreBits; //!< log2(leaves)
    std::vector<std::uint64_t> node; //!< [1] is the root, leaves last
};

} // namespace sadapt

#endif // SADAPT_SIM_EVENT_QUEUE_HH
