/**
 * @file
 * Differential testing of CacheBank against an independently written
 * reference cache (map-of-sets with explicit LRU ordering): the two
 * implementations must agree on every hit/miss and writeback decision
 * over long random access streams, across capacities and
 * associativities.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <ostream>

#include "common/rng.hh"
#include "sim/cache.hh"

using namespace sadapt;

namespace {

/**
 * Straightforward reference cache: per-set std::list ordered most- to
 * least-recently used, searched linearly.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint32_t capacity, std::uint32_t assoc)
        : assocV(assoc), numSets(capacity / lineSize / assoc)
    {
    }

    struct Result
    {
        bool hit;
        bool writeback;
        Addr writebackAddr;
    };

    Result
    access(Addr addr, bool write)
    {
        const Addr line = addr / lineSize;
        auto &set = sets[line % numSets];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->line == line) {
                Entry e = *it;
                e.dirty = e.dirty || write;
                set.erase(it);
                set.push_front(e);
                return {true, false, 0};
            }
        }
        Result res{false, false, 0};
        if (set.size() == assocV) {
            const Entry victim = set.back();
            set.pop_back();
            if (victim.dirty) {
                res.writeback = true;
                res.writebackAddr = victim.line * lineSize;
            }
        }
        set.push_front({line, write});
        return res;
    }

    std::uint64_t
    dirtyLines() const
    {
        std::uint64_t n = 0;
        for (const auto &[idx, set] : sets)
            for (const auto &e : set)
                n += e.dirty;
        return n;
    }

  private:
    struct Entry
    {
        Addr line;
        bool dirty;
    };

    std::uint32_t assocV;
    std::uint64_t numSets;
    std::map<Addr, std::list<Entry>> sets;
};

struct DiffCase
{
    std::uint32_t capacity;
    std::uint32_t assoc;
    std::uint64_t region;
};

// Names each case by its fields instead of gtest's raw byte dump.
void
PrintTo(const DiffCase &c, std::ostream *os)
{
    *os << "cap" << c.capacity << "_assoc" << c.assoc << "_region"
        << c.region;
}

class CacheDifferential : public testing::TestWithParam<DiffCase>
{
};

} // namespace

TEST_P(CacheDifferential, AgreesOnRandomStream)
{
    const auto [capacity, assoc, region] = GetParam();
    CacheBank dut(capacity, assoc);
    ReferenceCache ref(capacity, assoc);
    Rng rng(capacity ^ region);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.below(region) * 4;
        const bool write = rng.chance(0.3);
        const auto got = dut.access(addr, write);
        const auto want = ref.access(addr, write);
        ASSERT_EQ(got.hit, want.hit) << "op " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "op " << i;
        if (want.writeback) {
            ASSERT_EQ(got.writebackAddr, want.writebackAddr)
                << "op " << i;
        }
    }
    EXPECT_EQ(dut.dirtyLines(), ref.dirtyLines());
}

TEST_P(CacheDifferential, AgreesOnStridedStream)
{
    const auto [capacity, assoc, region] = GetParam();
    CacheBank dut(capacity, assoc);
    ReferenceCache ref(capacity, assoc);
    Addr addr = 0;
    for (int i = 0; i < 20000; ++i) {
        const bool write = i % 5 == 0;
        const auto got = dut.access(addr % (region * 4), write);
        const auto want = ref.access(addr % (region * 4), write);
        ASSERT_EQ(got.hit, want.hit) << "op " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "op " << i;
        addr += 72; // deliberately not line-aligned
    }
}

INSTANTIATE_TEST_SUITE_P(
    CapacityAssocSweep, CacheDifferential,
    testing::Values(DiffCase{4096, 8, 1 << 12},
                    DiffCase{4096, 8, 1 << 16},
                    DiffCase{8192, 4, 1 << 14},
                    DiffCase{16384, 8, 1 << 15},
                    DiffCase{65536, 8, 1 << 17},
                    DiffCase{1024, 1, 1 << 12},
                    DiffCase{2048, 2, 1 << 13}));
