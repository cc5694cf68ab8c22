/**
 * @file
 * SmallCallback semantics and the zero-allocation guarantee of the
 * event-loop hot path, the memory path and the raster path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "cache/mem_system.hh"
#include "gpu/raster/raster_unit.hh"
#include "gpu/raster/shader_core.hh"
#include "gpu/tiling/tile_grid.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"

using namespace libra;

// ---------------------------------------------------------------------
// Global allocation counter: every path through operator new bumps it.
// Linked into this test binary only; lets tests assert that a region of
// code performed zero heap allocations.
// ---------------------------------------------------------------------

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

/** Allocations since construction. */
class AllocCounter
{
  public:
    AllocCounter() : start(g_allocs.load()) {}
    std::uint64_t count() const { return g_allocs.load() - start; }

  private:
    std::uint64_t start;
};

} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

// ---------------------------------------------------------------------
// Basic semantics.
// ---------------------------------------------------------------------

TEST(SmallCallback, InvokesStoredCallable)
{
    int hits = 0;
    SmallCallback<void(), 40> cb([&hits]() { ++hits; });
    ASSERT_TRUE(static_cast<bool>(cb));
    cb();
    cb();
    EXPECT_EQ(hits, 2);
}

TEST(SmallCallback, DefaultAndNullptrAreEmpty)
{
    SmallCallback<void(), 40> a;
    SmallCallback<void(), 40> b(nullptr);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_FALSE(static_cast<bool>(b));
}

TEST(SmallCallback, ArgumentsAndReturnValue)
{
    SmallCallback<int(int, int), 16> add(
        [](int a, int b) { return a + b; });
    EXPECT_EQ(add(2, 3), 5);
}

TEST(SmallCallback, CaptureUpToCapacityFitsInline)
{
    // Exactly at capacity: 40 bytes of capture in a 40-byte callback.
    struct Fat
    {
        std::uint64_t a, b, c, d, e;
    };
    static_assert(sizeof(Fat) == 40);
    Fat fat{1, 2, 3, 4, 5};
    AllocCounter allocs;
    SmallCallback<void(), 40> cb(
        [fat]() mutable { fat.a += fat.e; });
    cb();
    EXPECT_EQ(allocs.count(), 0u)
        << "at-capacity capture must live inline";
    using Cb40 = SmallCallback<void(), 40>;
    EXPECT_EQ(Cb40::capacity(), 40u);
}

TEST(SmallCallback, MoveOnlyCapture)
{
    auto value = std::make_unique<int>(42);
    SmallCallback<int(), 16> cb(
        [v = std::move(value)]() { return *v; });
    EXPECT_EQ(cb(), 42);
}

TEST(SmallCallback, MoveTransfersAndEmptiesSource)
{
    int hits = 0;
    SmallCallback<void(), 40> a([&hits]() { ++hits; });
    SmallCallback<void(), 40> b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);

    SmallCallback<void(), 40> c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(hits, 2);
}

namespace
{

/** Counts how many times captures are destroyed. */
struct DtorProbe
{
    int *counter;
    explicit DtorProbe(int *c) : counter(c) {}
    DtorProbe(DtorProbe &&other) noexcept : counter(other.counter)
    {
        other.counter = nullptr;
    }
    DtorProbe(const DtorProbe &) = delete;
    ~DtorProbe()
    {
        if (counter)
            ++*counter;
    }
};

} // namespace

TEST(SmallCallback, CaptureDestroyedExactlyOnce)
{
    int destroyed = 0;
    {
        SmallCallback<void(), 16> cb(
            [p = DtorProbe(&destroyed)]() {});
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(SmallCallback, CaptureDestroyedExactlyOnceThroughMoves)
{
    int destroyed = 0;
    {
        SmallCallback<void(), 16> a(
            [p = DtorProbe(&destroyed)]() {});
        SmallCallback<void(), 16> b(std::move(a));
        SmallCallback<void(), 16> c;
        c = std::move(b);
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(SmallCallback, AssignmentDestroysPreviousCapture)
{
    int first = 0, second = 0;
    SmallCallback<void(), 16> cb([p = DtorProbe(&first)]() {});
    cb = SmallCallback<void(), 16>([p = DtorProbe(&second)]() {});
    EXPECT_EQ(first, 1) << "overwritten capture must be destroyed";
    EXPECT_EQ(second, 0);
}

// ---------------------------------------------------------------------
// The acceptance criterion: scheduling is allocation-free.
// ---------------------------------------------------------------------

TEST(SmallCallback, ScheduleIsAllocationFree)
{
    EventQueue q; // reserves its event-heap capacity up front
    std::uint64_t sum = 0;

    AllocCounter allocs;
    for (int i = 0; i < 512; ++i) {
        // The largest audited in-tree shape: 40 bytes of capture — a
        // reference plus three words plus a completion tick.
        struct
        {
            std::uint64_t a, b, c;
        } fake{1, 2, static_cast<std::uint64_t>(i)};
        Tick done = static_cast<Tick>(i);
        q.schedule(static_cast<Tick>(i % 7),
                   [&sum, fake, done]() mutable {
                       sum += fake.c + done;
                   });
    }
    EXPECT_EQ(allocs.count(), 0u)
        << "EventQueue::schedule must not touch the heap";

    q.runUntil();
    EXPECT_EQ(q.eventsExecuted(), 512u);
    EXPECT_GT(sum, 0u);
}

TEST(SmallCallback, NearAndFarSchedulingIsAllocationFreeAfterWarmUp)
{
    // A repeated mix of same-tick, near and overflow (>= kWheel ahead)
    // events, interleaved with execution. The warm-up pass sizes the
    // callback pool and the overflow heap; every later pass has the
    // same shape relative to now() and must not touch the heap.
    constexpr Tick W = EventQueue::kWheel;
    EventQueue q;
    std::uint64_t sum = 0;
    const auto pass = [&] {
        for (int i = 0; i < 3000; ++i) {
            const Tick k = static_cast<Tick>(i);
            const Tick delta = i % 3 == 0   ? 0
                               : i % 3 == 1 ? 1 + k % 127
                                            : W + (k * 37) % (3 * W);
            q.scheduleAfter(delta, [&q, &sum, k] {
                sum += k;
                if (k % 5 == 0) // re-entrant same-tick work
                    q.scheduleAfter(0, [&sum] { ++sum; });
            });
            if (i % 4 == 3)
                q.runOne();
        }
        q.runUntil();
    };
    pass();

    AllocCounter allocs;
    for (int r = 0; r < 4; ++r)
        pass();
    EXPECT_EQ(allocs.count(), 0u)
        << "steady-state near and far scheduling must not touch the heap";
    EXPECT_TRUE(q.empty());
    EXPECT_GT(sum, 0u);
}

TEST(SmallCallback, MemCallbackShapeIsAllocationFree)
{
    // IdealMemory (and the tests' memory doubles) wrap a MemCallback +
    // Tick into an EventCallback; both layers must stay inline.
    EventQueue q;
    std::uint64_t seen = 0;

    AllocCounter allocs;
    struct
    {
        void *a;
        std::uint64_t c;
    } flight{&q, 7};
    MemCallback cb([&seen, flight](Tick when) mutable {
        seen += flight.c + static_cast<std::uint64_t>(when);
    });
    Tick done = 12;
    q.schedule(done, [cb = std::move(cb), done]() mutable {
        cb(done);
    });
    EXPECT_EQ(allocs.count(), 0u);

    q.runUntil();
    EXPECT_EQ(seen, 19u);
}

// ---------------------------------------------------------------------
// Steady-state memory path: pooled completions and pooled warp flights.
// ---------------------------------------------------------------------

namespace
{

/** Texture warp over @p lines, built before any allocation count. */
WarpTask
textureWarp(std::vector<Addr> lines)
{
    WarpTask task;
    task.quadCount = 8;
    task.fragments = 32;
    task.aluOps = 4;
    task.texLines = std::move(lines);
    return task;
}

} // namespace

TEST(SteadyState, MemoryPathAndWarpDispatchAreAllocationFree)
{
    // L1 -> L2 -> IdealMemory plus a shader core on the L1. One round
    // drives every path a completion can take: L1 and L2 hits, misses,
    // coalesced misses, MSHR stalls and their retries, and texture
    // warps whose samples share lines. After a warm-up round has sized
    // every pool, repeating the round must not touch the heap.
    EventQueue q;
    IdealMemory mem(q, 30);
    CacheConfig l2_cfg;
    l2_cfg.name = "l2";
    l2_cfg.sizeBytes = 4 * 1024;
    l2_cfg.mshrs = 4;
    Cache l2(q, l2_cfg, mem);
    CacheConfig l1_cfg;
    l1_cfg.name = "l1";
    l1_cfg.sizeBytes = 1024;
    l1_cfg.mshrs = 2;
    Cache l1(q, l1_cfg, l2);
    ShaderCore core(q, 4, l1, "core");

    constexpr int kRounds = 6;
    constexpr int kWarps = 4;
    std::uint64_t completions = 0;
    std::uint64_t retired = 0;

    // Each round reads a fresh window of lines, so L1/L2 misses recur
    // every round, then re-reads some of them (hits).
    std::vector<WarpTask> tasks;
    for (int r = 0; r < kRounds; ++r) {
        for (int w = 0; w < kWarps; ++w) {
            const Addr base = static_cast<Addr>(r * 64 + w * 2) * 64;
            tasks.push_back(textureWarp({base, base + 64, base + 128,
                                         0x40'0000}));
        }
    }

    const auto round = [&](int r) {
        const Addr base = 0x10'0000 + static_cast<Addr>(r) * 32 * 64;
        for (int i = 0; i < 12; ++i) {
            // Two accesses per line: the second coalesces; twelve
            // distinct lines against two L1 MSHRs stall.
            for (int dup = 0; dup < 2; ++dup) {
                l1.access(MemReq{base + static_cast<Addr>(i) * 64, 64,
                                 false, TrafficClass::Texture, 0,
                                 [&completions](Tick) { ++completions; }});
            }
        }
        for (int w = 0; w < kWarps; ++w) {
            core.dispatch(std::move(tasks[static_cast<std::size_t>(
                              r * kWarps + w)]),
                          [&retired](const WarpRetireInfo &) {
                              ++retired;
                          });
        }
        q.runUntil();
        // Read one line twice in a row: the second read hits.
        for (int again = 0; again < 2; ++again) {
            l1.access(MemReq{base, 64, false, TrafficClass::Texture, 0,
                             [&completions](Tick) { ++completions; }});
            q.runUntil();
        }
    };

    round(0);
    const std::uint64_t hits0 = l1.hits.value();
    const std::uint64_t misses0 = l1.misses.value();
    const std::uint64_t coalesced0 = l1.mshrCoalesced.value();
    const std::uint64_t stalls0 = l1.mshrStalls.value();
    const std::uint64_t l2_misses0 = l2.misses.value();

    std::uint64_t allocations = 0;
    {
        AllocCounter allocs;
        for (int r = 1; r < kRounds; ++r)
            round(r);
        allocations = allocs.count();
    }
    EXPECT_EQ(allocations, 0u)
        << "steady-state memory path or warp dispatch allocated";

    EXPECT_EQ(completions, std::uint64_t(kRounds) * 26);
    EXPECT_EQ(retired, std::uint64_t(kRounds) * kWarps);
    EXPECT_GT(l1.hits.value(), hits0);
    EXPECT_GT(l1.misses.value(), misses0);
    EXPECT_GT(l1.mshrCoalesced.value(), coalesced0);
    EXPECT_GT(l1.mshrStalls.value(), stalls0);
    EXPECT_GT(l2.misses.value(), l2_misses0);
    EXPECT_EQ(core.resident(), 0u);
}

TEST(SteadyState, RasterPathAllocatesAtMostTexLinesPerWarp)
{
    // One Raster Unit, two cores on ideal memory, renders one tile of
    // overlapping primitives: a full-tile one, a partial one, a blended
    // one and one with two texture samples, with the functional image
    // and the content signature on. After a warm-up pass has sized the
    // quad ring, the warp rings, the tile-context and flush pools and
    // the rasterizer scratch, rendering the same tile again may only
    // allocate each launched warp's texLines buffer.
    EventQueue q;
    IdealMemory mem(q, 20);
    const TileGrid grid(64, 64, 32);
    TexturePool pool;
    const std::uint32_t tex = pool.create(64, 64).id();
    CacheConfig l1_cfg;
    l1_cfg.name = "l1";
    l1_cfg.sizeBytes = 2048;
    l1_cfg.mshrs = 4;
    Cache l1a(q, l1_cfg, mem);
    Cache l1b(q, l1_cfg, mem);
    RasterUnitConfig cfg;
    cfg.cores = 2;
    cfg.tileSize = 32;
    cfg.captureImage = true;
    cfg.transactionElimination = true;
    RasterUnit ru(q, cfg, grid, mem, {&l1a, &l1b});
    std::uint64_t tiles_done = 0;
    ru.onTileDone = [&tiles_done](const TileDoneInfo &) { ++tiles_done; };

    BinnedFrame frame;
    auto add = [&](Vec2 a, Vec2 b, Vec2 c, float z, bool blend,
                   std::uint8_t samples) {
        Triangle tri;
        tri.textureId = tex;
        tri.blend = blend;
        tri.texSamples = samples;
        tri.v[0] = {{a.x, a.y, z}, {0.0f, 0.0f}};
        tri.v[1] = {{b.x, b.y, z}, {1.0f, 0.0f}};
        tri.v[2] = {{c.x, c.y, z}, {0.0f, 1.0f}};
        frame.tris.push_back(tri);
        frame.triVertexCost.push_back(8);
    };
    add({-8, -8}, {80, -8}, {-8, 80}, 0.9f, false, 1);  // whole tile
    add({0, 0}, {32, 0}, {0, 32}, 0.5f, false, 1);      // diagonal half
    add({3, 30}, {29, 2}, {31, 31}, 0.3f, true, 1);     // blended
    add({5.5f, 4}, {27, 9}, {12, 28.5f}, 0.2f, false, 2); // two samples
    frame.tileLists.resize(grid.tileCount());
    frame.tileLists[0] = {0, 1, 2, 3};
    ru.beginFrame(frame, pool);

    const auto render_tile = [&] {
        ru.push({RasterWork::Kind::TileBegin, 0, 0});
        for (const std::uint32_t prim : frame.tileLists[0])
            ru.push({RasterWork::Kind::Prim, 0, prim});
        ru.push({RasterWork::Kind::TileEnd, 0, 0});
        q.runUntil();
    };

    render_tile(); // warm-up
    ASSERT_EQ(tiles_done, 1u);
    const std::uint64_t warps0 = ru.warpsLaunched.value();
    ASSERT_GT(warps0, 4u);

    std::uint64_t allocations = 0;
    {
        AllocCounter allocs;
        for (int pass = 0; pass < 3; ++pass)
            render_tile();
        allocations = allocs.count();
    }
    const std::uint64_t warps = ru.warpsLaunched.value() - warps0;
    EXPECT_EQ(tiles_done, 4u);
    EXPECT_EQ(warps, 3 * warps0);
    EXPECT_LE(allocations, warps)
        << "raster path allocated beyond one texLines buffer per warp";
    EXPECT_TRUE(ru.idle());
}
