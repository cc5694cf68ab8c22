/**
 * @file
 * Tests for the multithreaded shader core timing model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "cache/mem_system.hh"
#include "gpu/raster/shader_core.hh"
#include "sim/event_queue.hh"

using namespace libra;

namespace
{

struct Rig
{
    explicit Rig(Tick mem_latency = 40, std::uint32_t warp_slots = 4)
        : mem(eq, mem_latency),
          cache(eq, CacheConfig{"l1", 32 * 1024, 4, 64, 2, 16, 4, true,
                                false},
                mem),
          core(eq, warp_slots, cache, "core0")
    {}

    EventQueue eq;
    IdealMemory mem;
    Cache cache;
    ShaderCore core;
};

WarpTask
aluWarp(std::uint16_t ops)
{
    WarpTask task;
    task.tile = 0;
    task.quadCount = 8;
    task.fragments = 32;
    task.aluOps = ops;
    task.instructions = ops + ShaderCore::tailOps;
    return task;
}

WarpTask
texWarp(std::uint16_t ops, std::vector<Addr> lines)
{
    WarpTask task = aluWarp(ops);
    task.texLines = std::move(lines);
    task.instructions += task.texLines.size();
    return task;
}

} // namespace

TEST(ShaderCore, PureAluWarpTiming)
{
    Rig rig;
    Tick retired = 0;
    rig.core.dispatch(aluWarp(10), [&](const WarpRetireInfo &info) {
        retired = info.shadedAt;
    });
    rig.eq.runUntil();
    // 10 ALU cycles + tail.
    EXPECT_EQ(retired, 10 + ShaderCore::tailOps);
    EXPECT_EQ(rig.core.warpsExecuted.value(), 1u);
    EXPECT_EQ(rig.core.busyCycles(), 10 + ShaderCore::tailOps);
}

TEST(ShaderCore, AluPhasesSerializeOnIssuePort)
{
    Rig rig;
    std::vector<Tick> retired;
    for (int i = 0; i < 3; ++i) {
        rig.core.dispatch(aluWarp(10), [&](const WarpRetireInfo &info) {
            retired.push_back(info.shadedAt);
        });
    }
    rig.eq.runUntil();
    ASSERT_EQ(retired.size(), 3u);
    // Single-issue: the three 10-cycle ALU blocks plus the three tail
    // blocks all share the issue port, so the last warp cannot finish
    // before all that work has issued.
    EXPECT_GE(retired[2], 3u * 10u + 3u * ShaderCore::tailOps);
    EXPECT_LE(retired[0], retired[1]);
    EXPECT_LE(retired[1], retired[2]);
    EXPECT_EQ(rig.core.busyCycles(),
              3u * (10u + ShaderCore::tailOps));
}

TEST(ShaderCore, TextureMissLatencyAddsToWarpTime)
{
    Rig rig(100);
    Tick retired = 0;
    rig.core.dispatch(texWarp(4, {0x1000}),
                      [&](const WarpRetireInfo &info) {
                          retired = info.shadedAt;
                      });
    rig.eq.runUntil();
    // ALU 4 + miss ~100+ + tail.
    EXPECT_GE(retired, 100u);
    EXPECT_GT(rig.core.texLatencySum.value(), 90u);
    EXPECT_EQ(rig.core.texRequests.value(), 1u);
}

TEST(ShaderCore, MemoryLatencyHiddenByOtherWarps)
{
    // Two warps: while warp A waits on memory, warp B issues ALU. The
    // total time must be far less than the serial sum.
    Rig rig(200, 4);
    Tick last = 0;
    for (int i = 0; i < 4; ++i) {
        rig.core.dispatch(
            texWarp(10, {static_cast<Addr>(0x1000 + i * 0x10000)}),
            [&](const WarpRetireInfo &info) {
                last = std::max(last, info.shadedAt);
            });
    }
    rig.eq.runUntil();
    // Serial would be ~4 * (10 + 200 + 2) ≈ 848; overlapped should be
    // a little over one memory latency.
    EXPECT_LT(last, 350u);
    EXPECT_GE(last, 200u);
}

TEST(ShaderCore, SlotAccounting)
{
    Rig rig(50, 2);
    EXPECT_TRUE(rig.core.hasFreeSlot());
    EXPECT_EQ(rig.core.freeSlots(), 2u);
    int retired = 0;
    rig.core.dispatch(texWarp(2, {0x0}),
                      [&](const WarpRetireInfo &) { ++retired; });
    rig.core.dispatch(texWarp(2, {0x40000}),
                      [&](const WarpRetireInfo &) { ++retired; });
    EXPECT_FALSE(rig.core.hasFreeSlot());
    EXPECT_EQ(rig.core.resident(), 2u);
    rig.eq.runUntil();
    EXPECT_EQ(retired, 2);
    EXPECT_EQ(rig.core.freeSlots(), 2u);
}

TEST(ShaderCore, RetireContinuationCanRedispatchIntoItsOwnSlot)
{
    // One warp slot: each retire callback immediately dispatches the
    // next warp, which reuses the flight the retiring warp just left.
    // Its info must be the retiring warp's, not the successor's.
    struct Chain
    {
        ShaderCore *core;
        std::vector<TileId> tiles;
        TileId nextTile = 1;

        void
        retire(const WarpRetireInfo &info)
        {
            tiles.push_back(info.tile);
            if (nextTile > 3)
                return;
            WarpTask task = texWarp(2, {0x40u * nextTile});
            task.tile = nextTile++;
            core->dispatch(std::move(task),
                           [this](const WarpRetireInfo &i) { retire(i); });
        }
    };
    Rig rig(20, 1);
    Chain chain{&rig.core, {}};
    WarpTask first = texWarp(2, {0x0});
    first.tile = 0;
    rig.core.dispatch(std::move(first), [&chain](const WarpRetireInfo &i) {
        chain.retire(i);
    });
    rig.eq.runUntil();
    EXPECT_EQ(chain.tiles, (std::vector<TileId>{0, 1, 2, 3}));
    EXPECT_EQ(rig.core.warpsExecuted.value(), 4u);
    EXPECT_EQ(rig.core.freeSlots(), 1u);
}

TEST(ShaderCore, RetireInfoCarriesTaskAttributes)
{
    Rig rig;
    WarpTask task = texWarp(6, {0x100, 0x200});
    task.tile = 77;
    task.blend = true;
    task.quadCount = 5;
    task.fragments = 17;
    WarpRetireInfo seen{};
    rig.core.dispatch(std::move(task), [&](const WarpRetireInfo &info) {
        seen = info;
    });
    rig.eq.runUntil();
    EXPECT_EQ(seen.tile, 77u);
    EXPECT_TRUE(seen.blend);
    EXPECT_EQ(seen.quadCount, 5u);
    EXPECT_EQ(seen.fragments, 17u);
    EXPECT_EQ(seen.texRequests, 2u);
    EXPECT_EQ(seen.instructions, 6u + 2u + ShaderCore::tailOps);
}

TEST(ShaderCore, SameLineRequestsCoalesceInL1)
{
    Rig rig(100);
    Tick retired = 0;
    rig.core.dispatch(texWarp(2, {0x1000, 0x1000, 0x1000, 0x1000}),
                      [&](const WarpRetireInfo &info) {
                          retired = info.shadedAt;
                      });
    rig.eq.runUntil();
    EXPECT_EQ(rig.cache.misses.value(), 1u);
    EXPECT_EQ(rig.cache.mshrCoalesced.value(), 3u);
    EXPECT_EQ(rig.mem.accesses, 1u);
}

TEST(ShaderCore, ZeroAluOpsStillTakesACycle)
{
    Rig rig;
    Tick retired = 0;
    rig.core.dispatch(aluWarp(0), [&](const WarpRetireInfo &info) {
        retired = info.shadedAt;
    });
    rig.eq.runUntil();
    EXPECT_GE(retired, 1u + ShaderCore::tailOps);
}

TEST(ShaderCoreDeathTest, DispatchToFullCorePanics)
{
    Rig rig(1000, 1);
    rig.core.dispatch(texWarp(2, {0x0}), [](const WarpRetireInfo &) {});
    EXPECT_DEATH(rig.core.dispatch(aluWarp(1),
                                   [](const WarpRetireInfo &) {}),
                 "full core");
}
