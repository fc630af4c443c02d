/**
 * @file
 * Reconfigurable data-cache bank (R-DCache) model.
 *
 * Each logical bank is built from sub-banks so its capacity can change at
 * runtime (Section 3.2.2). The model is a set-associative cache with LRU
 * replacement and dirty bits; flush cost is handled by the
 * reconfiguration cost model.
 */

#ifndef SADAPT_SIM_CACHE_HH
#define SADAPT_SIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace sadapt {

/**
 * One R-DCache bank in cache mode.
 */
class CacheBank
{
  public:
    /** Result of a cache access or fill. */
    struct AccessResult
    {
        bool hit = false;
        bool writeback = false; //!< a dirty victim was evicted
        Addr writebackAddr = 0; //!< line address of the victim
    };

    /**
     * @param capacity_bytes bank capacity (power of two, >= 1 kB).
     * @param assoc set associativity.
     */
    explicit CacheBank(std::uint32_t capacity_bytes,
                       std::uint32_t assoc = 8);

    /**
     * Demand access to a byte address. On a miss the line is allocated
     * (write-allocate) and the LRU victim is evicted.
     *
     * Defined inline (as are install()/contains()): these run once per
     * memory op in the replay inner loop and the libraries are built
     * without LTO, so keeping them in the header is what lets the
     * compiler inline them into the Transmuter's replay loop.
     */
    AccessResult
    access(Addr addr, bool write)
    {
        const Addr line_addr = addr / lineSize;
        const std::uint32_t base = setIndex(line_addr) * assocV;
        bumpTick();
        const std::uint32_t w = findWay(line_addr, base);
        if (w == assocV)
            return fill(line_addr, write);
        useTick[base + w] = tick;
        if (write)
            dirtyB[base + w] = 1;
        return {true, false, 0};
    }

    /**
     * Install a line without a demand access (prefetch fill). Returns
     * hit=true if the line was already present (fill dropped).
     */
    AccessResult
    install(Addr addr)
    {
        const Addr line_addr = addr / lineSize;
        bumpTick();
        if (contains(addr)) {
            return {true, false, 0};
        }
        return fill(line_addr, false);
    }

    /**
     * Install a line the caller has just verified absent with
     * contains(). Identical to install() on a missing line, minus
     * the redundant second presence scan — the prefetch-fill loops
     * always probe before installing.
     */
    AccessResult
    installAbsent(Addr addr)
    {
        bumpTick();
        return fill(addr / lineSize, false);
    }

    /** @return true if the line holding addr is present. */
    bool
    contains(Addr addr) const
    {
        const Addr line_addr = addr / lineSize;
        return findWay(line_addr, setIndex(line_addr) * assocV) != assocV;
    }

    /**
     * Change the bank capacity. Contents are invalidated; the timing and
     * energy cost of any required flush is modeled by ReconfigCostModel.
     */
    void setCapacity(std::uint32_t capacity_bytes);

    /** Invalidate all lines (contents assumed flushed). */
    void invalidateAll();

    /** Fraction of valid lines (the occupancy counter of Table 2). */
    double occupancy() const;

    /** Number of dirty lines currently held. */
    std::uint64_t dirtyLines() const;

    std::uint32_t capacity() const { return capacityBytes; }

  private:
    /**
     * Tag value of an invalid way. Unreachable as a real line tag:
     * line tags are byte addresses divided by lineSize (>= 64), so no
     * line address can be all-ones. Encoding validity in the tag makes
     * the hit scan a single equality compare over a contiguous tag
     * array — with 8-byte tags and 8-way sets one hardware cache line
     * per probe, versus three with the historical array-of-structs
     * layout. Results are identical.
     */
    static constexpr Addr invalidTag = ~Addr{0};

    std::uint32_t capacityBytes;
    std::uint32_t assocV;
    std::uint32_t numSets;
    std::uint32_t setMask; //!< numSets - 1; numSets is a power of two

    // Line state, struct-of-arrays, indexed set * assocV + way.
    // dirtyB is 0 for invalid ways (fill/invalidateAll maintain it),
    // so dirtyLines() is a straight sum. The LRU tick is 32-bit to
    // halve the recency metadata the victim scans pull through the
    // host caches; access() guards the (practically unreachable)
    // 2^32-accesses-per-bank wrap before any LRU decision could
    // diverge from the historical 64-bit counter.
    std::vector<Addr> tags;
    std::vector<std::uint32_t> useTick;
    std::vector<std::uint8_t> dirtyB;
    std::uint32_t tick = 0;

    void rebuild();

    /**
     * Set index. Capacity, lineSize and associativity are all powers
     * of two (asserted in rebuild()), so the historical
     * `line_addr % numSets` reduces to a branchless mask with the
     * identical result.
     */
    std::uint32_t
    setIndex(Addr line_addr) const
    {
        return static_cast<std::uint32_t>(line_addr) & setMask;
    }

    /**
     * The way of set `base` holding line_addr, or assocV on a miss.
     * A select over every way with no early exit, so the scan
     * compiles to compares and conditional moves instead of one
     * data-dependent branch per way. A line sits in at most one way
     * of its set, so the last match is the only match.
     */
    std::uint32_t
    findWay(Addr line_addr, std::uint32_t base) const
    {
        std::uint32_t way = assocV;
        for (std::uint32_t w = 0; w < assocV; ++w)
            way = tags[base + w] == line_addr ? w : way;
        return way;
    }

    /**
     * Advance the LRU clock, refusing to reach the fill() scan
     * sentinel: the panic fires one access before a 32-bit recency
     * value could ever be ambiguous, so LRU decisions match the
     * historical 64-bit counter exactly on every reachable trace.
     */
    void
    bumpTick()
    {
        ++tick;
        SADAPT_ASSERT(tick != ~std::uint32_t{0},
                      "cache LRU tick saturated "
                      "(2^32 accesses on one bank)");
    }

    /** Allocate line_addr's line, evicting the set's LRU victim. */
    AccessResult
    fill(Addr line_addr, bool dirty)
    {
        const std::uint32_t base = setIndex(line_addr) * assocV;
        std::uint32_t victim = 0;
        std::uint32_t oldest = ~std::uint32_t{0};
        for (std::uint32_t w = 0; w < assocV; ++w) {
            if (tags[base + w] == invalidTag) {
                victim = w;
                break;
            }
            if (useTick[base + w] < oldest) {
                oldest = useTick[base + w];
                victim = w;
            }
        }
        const std::uint32_t v = base + victim;
        AccessResult res;
        res.hit = false;
        res.writeback = dirtyB[v] != 0;
        res.writebackAddr =
            tags[v] == invalidTag ? 0 : tags[v] * lineSize;
        dirtyB[v] = dirty ? 1 : 0;
        tags[v] = line_addr;
        useTick[v] = tick;
        return res;
    }
};

/**
 * One R-DCache bank in scratchpad (SPM) mode: software-managed, fixed
 * single-cycle access, no tags and no misses. Occupancy tracking is
 * word-granular and approximate.
 */
class SpmBank
{
  public:
    explicit SpmBank(std::uint32_t capacity_bytes);

    /** Record an access (for energy/throughput counters only). */
    void access();

    std::uint64_t accesses() const { return accessCount; }
    void resetStats() { accessCount = 0; }
    std::uint32_t capacity() const { return capacityBytes; }

  private:
    std::uint32_t capacityBytes;
    std::uint64_t accessCount = 0;
};

} // namespace sadapt

#endif // SADAPT_SIM_CACHE_HH
