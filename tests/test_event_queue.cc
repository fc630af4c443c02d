/**
 * @file
 * The replay engine's event tree (sim/event_queue.hh) against an
 * ordered-set reference of (cycle, core) pairs: random schedule, park
 * and barrier-release sequences with many equal-cycle ties, engine-
 * style drains, and a full rescale of every pending event. The tree's
 * minimum must be the reference's first pair after every operation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/event_queue.hh"

using namespace sadapt;

namespace {

using Event = std::pair<Cycles, std::uint32_t>;

/** The tree plus the reference it must agree with. */
struct TreeWithReference
{
    EventTree tree;
    std::set<Event> ref;
    std::vector<Cycles> pending; //!< cycle of each core's event
    std::vector<bool> active;

    explicit TreeWithReference(std::uint32_t cores)
        : tree(cores), pending(cores, 0), active(cores, false)
    {
    }

    void
    schedule(std::uint32_t core, Cycles cycle)
    {
        park(core);
        tree.set(core, tree.pack(cycle, core));
        ref.insert({cycle, core});
        pending[core] = cycle;
        active[core] = true;
    }

    void
    park(std::uint32_t core)
    {
        tree.set(core, EventTree::idle);
        if (active[core])
            ref.erase({pending[core], core});
        active[core] = false;
    }

    /** The tree's minimum decodes to the reference's first pair. */
    void
    check() const
    {
        const std::uint64_t key = tree.min();
        if (ref.empty()) {
            ASSERT_EQ(key, EventTree::idle);
            return;
        }
        ASSERT_NE(key, EventTree::idle);
        ASSERT_EQ(tree.cycleOf(key), ref.begin()->first);
        ASSERT_EQ(tree.coreOf(key), ref.begin()->second);
    }

    /**
     * Pop every pending event of a copy, checking each one: the tree
     * holds the whole reference order, not only its first pair.
     */
    void
    checkDrain() const
    {
        TreeWithReference copy = *this;
        while (!copy.ref.empty()) {
            ASSERT_NO_FATAL_FAILURE(copy.check());
            copy.park(copy.tree.coreOf(copy.tree.min()));
        }
        ASSERT_EQ(copy.tree.min(), EventTree::idle);
    }
};

/** Every core count the simulator shapes and the tree edges use. */
const std::uint32_t coreCounts[] = {1, 2, 3, 18, 64, 68, 128};

} // namespace

TEST(EventTree, KeysOrderAsCycleThenCore)
{
    const EventTree tree(68); // the 4x16 shape: 64 GPEs + 4 LCPs
    EXPECT_EQ(tree.pack(1, 0), 128u); // 7 core bits
    EXPECT_LT(tree.pack(5, 67), tree.pack(6, 0));
    EXPECT_LT(tree.pack(5, 3), tree.pack(5, 4));
    const std::uint64_t k = tree.pack(123456789, 42);
    EXPECT_EQ(tree.cycleOf(k), 123456789u);
    EXPECT_EQ(tree.coreOf(k), 42u);
    EXPECT_EQ(tree.min(), EventTree::idle);
}

TEST(EventTree, LargestLegalCycleStaysBelowIdle)
{
    const EventTree tree(68);
    const Cycles top = (EventTree::idle >> 7) - 1;
    const std::uint64_t k = tree.pack(top, 67);
    EXPECT_LT(k, EventTree::idle);
    EXPECT_EQ(tree.cycleOf(k), top);
    EXPECT_EQ(tree.coreOf(k), 67u);
}

TEST(EventTreeDeathTest, CycleOverflowingTheKeyPanics)
{
    const EventTree tree(68);
    EXPECT_DEATH((void)tree.pack(EventTree::idle >> 7, 0),
                 "overflows the packed event key");
    EXPECT_DEATH((void)tree.pack(EventTree::idle, 3),
                 "overflows the packed event key");
}

TEST(EventTree, RandomSetParkReleaseMatchesOrderedSet)
{
    for (std::uint32_t cores : coreCounts) {
        SCOPED_TRACE("cores " + std::to_string(cores));
        Rng rng(9000 + cores);
        TreeWithReference p(cores);
        std::vector<std::uint32_t> parked;
        for (int step = 0; step < 4000; ++step) {
            const auto core =
                static_cast<std::uint32_t>(rng.below(cores));
            const std::uint64_t op = rng.below(10);
            if (op < 6) {
                // Few distinct cycles: most keys tie on the cycle.
                p.schedule(core, rng.below(8));
            } else if (op < 8) {
                p.park(core);
                parked.push_back(core);
            } else if (!parked.empty()) {
                // Barrier release: every parked core at one cycle.
                const Cycles release = rng.below(8);
                for (std::uint32_t w : parked)
                    p.schedule(w, release);
                parked.clear();
            }
            ASSERT_NO_FATAL_FAILURE(p.check());
        }
        ASSERT_NO_FATAL_FAILURE(p.checkDrain());
    }
}

TEST(EventTree, EngineStyleDrainPopsInPairOrder)
{
    for (std::uint32_t cores : coreCounts) {
        SCOPED_TRACE("cores " + std::to_string(cores));
        Rng rng(17 + cores);
        TreeWithReference p(cores);
        std::vector<std::uint32_t> left(cores);
        for (std::uint32_t c = 0; c < cores; ++c) {
            p.schedule(c, 0);
            left[c] = 1 + static_cast<std::uint32_t>(rng.below(60));
        }
        std::size_t steps = 0;
        while (p.tree.min() != EventTree::idle) {
            ASSERT_NO_FATAL_FAILURE(p.check());
            const std::uint64_t key = p.tree.min();
            const std::uint32_t core = p.tree.coreOf(key);
            const Cycles t = p.tree.cycleOf(key);
            // Advance by 0-2 cycles, so cores keep colliding.
            if (--left[core] == 0)
                p.park(core);
            else
                p.schedule(core, t + rng.below(3));
            ++steps;
        }
        EXPECT_TRUE(p.ref.empty());
        EXPECT_GT(steps, cores);
    }
}

TEST(EventTree, FullRescaleKeepsTheOrder)
{
    for (std::uint32_t cores : coreCounts) {
        SCOPED_TRACE("cores " + std::to_string(cores));
        Rng rng(313 + cores);
        TreeWithReference p(cores);
        for (std::uint32_t c = 0; c < cores; ++c)
            if (rng.chance(0.8))
                p.schedule(c, 1000 + rng.below(50));
        ASSERT_NO_FATAL_FAILURE(p.check());
        for (const double ratio : {0.0625, 0.5, 4.0, 1.0 / 3.0}) {
            const Cycles penalty = rng.below(100);
            // The engine's rescale: every pending event moves to
            // round(cycle * ratio) + penalty; parked cores stay idle.
            // Shrinking ratios merge distinct cycles into ties.
            for (std::uint32_t c = 0; c < cores; ++c) {
                if (p.tree.key(c) == EventTree::idle)
                    continue;
                const auto scaled = static_cast<Cycles>(std::llround(
                    double(p.tree.cycleOf(p.tree.key(c))) * ratio));
                p.schedule(c, scaled + penalty);
            }
            ASSERT_NO_FATAL_FAILURE(p.checkDrain());
        }
    }
}
