/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrate: event
 * queue throughput, cache access rate, DRAM scheduling, rasterization
 * and binning speed. These guard the simulator's own performance (a
 * full FHD frame is hundreds of thousands of events).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "core/tile_scheduler.hh"
#include "dram/dram.hh"
#include "gpu/raster/rasterizer.hh"
#include "gpu/runner.hh"
#include "gpu/tiling/polygon_list_builder.hh"
#include "sim/event_queue.hh"
#include "sim/trace_sink.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

using namespace libra;

namespace
{

/**
 * Closed loop shaped like the simulator's event mix: about 100 events
 * pending, each one rescheduling itself on execution. Deltas follow the
 * schedule-delta histogram of a 960x544 CCS frame: almost all 2-63
 * ticks, with a 0.2% tail of 128 ticks or more that sometimes reaches
 * past the wheel into the overflow heap.
 */
struct SteadyLoad
{
    EventQueue &eq;
    std::vector<Tick> deltas; // power-of-two length
    std::size_t next = 0;

    void
    fire()
    {
        const Tick delta = deltas[next++ & (deltas.size() - 1)];
        eq.scheduleAfter(delta, [this] { fire(); });
    }
};

void
BM_EventQueueSteadyState(benchmark::State &state)
{
    EventQueue eq;
    SteadyLoad load{eq, std::vector<Tick>(4096)};
    Rng rng(5);
    for (Tick &d : load.deltas)
        d = rng.chance(0.002) ? 128 + rng.below(2048) : 2 + rng.below(62);
    for (int i = 0; i < 100; ++i)
        load.fire();
    constexpr int kEventsPerIteration = 10000;
    for (auto _ : state) {
        for (int i = 0; i < kEventsPerIteration; ++i)
            eq.runOne();
    }
    benchmark::DoNotOptimize(eq.now());
    state.SetItemsProcessed(state.iterations() * kEventsPerIteration);
}
BENCHMARK(BM_EventQueueSteadyState);

/** 10,000 events scattered over 100,000 ticks from tick 0: nearly all
 *  of them start in the overflow heap. */
void
BM_EventQueueFarScatter(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int counter = 0;
        for (int i = 0; i < 10000; ++i) {
            eq.schedule(static_cast<Tick>((i * 7919) % 100000),
                        [&counter] { ++counter; });
        }
        eq.runUntil();
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueFarScatter);

void
BM_CacheAccess(benchmark::State &state)
{
    EventQueue eq;
    IdealMemory mem(eq, 10);
    Cache cache(eq, CacheConfig{}, mem);
    Rng rng(1);
    for (auto _ : state) {
        cache.access(MemReq{rng.below(1 << 20) * 64, 64, false,
                            TrafficClass::Texture, 0, nullptr});
        eq.runUntil();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_DramRandomAccess(benchmark::State &state)
{
    EventQueue eq;
    Dram dram(eq, DramConfig{});
    Rng rng(2);
    for (auto _ : state) {
        dram.access(MemReq{rng.below(1 << 22) * 64, 64, false,
                           TrafficClass::Texture, 0, nullptr});
        eq.runUntil();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramRandomAccess);

/**
 * One primitive rasterized into one 32x32 tile, setup included:
 * Arg 0 a right triangle over half the tile (a diagonal edge through
 * every block row), 1 a one-pixel-wide diagonal sliver (nearly every
 * block undecided by the pre-cull), 2 a triangle covering the whole
 * tile (every block accepted whole).
 */
void
BM_RasterizeTile(benchmark::State &state)
{
    TexturePool pool;
    const Texture &tex = pool.create(256, 256);
    Triangle tri;
    switch (state.range(0)) {
      case 0:
        tri.v[0] = {{0, 0, 0.2f}, {0.0f, 0.0f}};
        tri.v[1] = {{32, 0, 0.5f}, {1.0f, 0.0f}};
        tri.v[2] = {{0, 32, 0.8f}, {0.0f, 1.0f}};
        break;
      case 1:
        tri.v[0] = {{0, 0.5f, 0.2f}, {0.0f, 0.0f}};
        tri.v[1] = {{32, 31.5f, 0.5f}, {1.0f, 0.0f}};
        tri.v[2] = {{0, 1.5f, 0.8f}, {0.0f, 1.0f}};
        break;
      default:
        tri.v[0] = {{-8, -8, 0.2f}, {0.0f, 0.0f}};
        tri.v[1] = {{80, -8, 0.5f}, {1.0f, 0.0f}};
        tri.v[2] = {{-8, 80, 0.8f}, {0.0f, 1.0f}};
        break;
    }
    const IRect rect{0, 0, 32, 32};
    RasterOutput out;
    std::uint64_t quads = 0;
    for (auto _ : state) {
        const TriangleSetup setup(tri, tex);
        out.quads.clear();
        setup.rasterize(rect, out);
        quads += out.quads.size();
        benchmark::DoNotOptimize(out.quads.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(quads));
    state.SetLabel(state.range(0) == 0   ? "half"
                   : state.range(0) == 1 ? "diagonal sliver"
                                         : "full tile");
}
BENCHMARK(BM_RasterizeTile)->Arg(0)->Arg(1)->Arg(2);

void
BM_BinFrame(benchmark::State &state)
{
    const Scene scene(findBenchmark("CCS"), 960, 544);
    const TileGrid grid(960, 544, 32);
    const FrameData frame = scene.frame(0);
    for (auto _ : state) {
        const BinnedFrame binned = binFrame(frame, grid);
        benchmark::DoNotOptimize(binned.binEntries());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<int64_t>(
                                frame.triangleCount()));
}
BENCHMARK(BM_BinFrame);

void
BM_SceneFrameGeneration(benchmark::State &state)
{
    const Scene scene(findBenchmark("SuS"), 1920, 1080);
    std::uint32_t index = 0;
    for (auto _ : state) {
        const FrameData frame = scene.frame(index++);
        benchmark::DoNotOptimize(frame.triangleCount());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SceneFrameGeneration);

/**
 * Temperature ranking cost per frame: an FHD grid's worth of supertiles
 * sorted hottest-to-coldest from the previous frame's per-tile DRAM
 * feedback. This is the scheduler work LIBRA adds on top of PTR, so it
 * must stay a rounding error next to the frame it schedules.
 */
void
BM_TileSchedulerRanking(benchmark::State &state)
{
    const TileGrid grid(1920, 1080, 32);
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::TemperatureStatic;
    cfg.staticSupertileSize = 4;
    TileScheduler sched(cfg, grid, 2);

    FrameFeedback prev;
    prev.valid = true;
    prev.rasterCycles = 1'000'000;
    prev.textureHitRatio = 0.5; // below threshold: ranking active
    Rng rng(7);
    prev.tileDramAccesses.resize(grid.tileCount());
    prev.tileInstructions.resize(grid.tileCount());
    for (std::size_t i = 0; i < grid.tileCount(); ++i) {
        prev.tileDramAccesses[i] = rng.below(10000);
        prev.tileInstructions[i] = rng.below(100000);
    }

    for (auto _ : state) {
        sched.beginFrame(prev);
        benchmark::DoNotOptimize(sched.tilesRemaining());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<int64_t>(grid.tileCount()));
}
BENCHMARK(BM_TileSchedulerRanking);

/**
 * Trace-sink append rate, recording versus disabled. Spans and counter
 * samples land on component lanes from inside the event loop, so the
 * per-event cost bounds how much tracing can slow a traced run — and
 * the disabled flavor is the tax every untraced run still pays.
 */
void
BM_TraceSinkEmission(benchmark::State &state)
{
    constexpr int kBatch = 4096;
    const bool enabled = state.range(0) != 0;
    for (auto _ : state) {
        TraceSink sink;
        sink.setEnabled(enabled);
        TraceSink::Lane &lane = sink.lane("ru0");
        const std::uint32_t phase = sink.nameId("raster");
        const std::uint32_t occupancy = sink.nameId("warps");
        for (int i = 0; i < kBatch; ++i) {
            const Tick t = static_cast<Tick>(i) * 8;
            lane.begin(phase, t);
            lane.counter(occupancy, t + 2,
                         static_cast<std::uint64_t>(i & 63));
            lane.end(t + 7);
        }
        benchmark::DoNotOptimize(sink.eventCount());
    }
    state.SetItemsProcessed(state.iterations() * kBatch * 3);
    state.SetLabel(enabled ? "recording" : "disabled");
}
BENCHMARK(BM_TraceSinkEmission)->Arg(1)->Arg(0);

/**
 * End-to-end cost of arming the invariant checker: the same reduced
 * run with GpuConfig::checkInvariants off (release default) and on
 * (CI). The delta is what the per-frame conservation-law sweep costs.
 */
void
BM_InvariantCheckerRun(benchmark::State &state)
{
    constexpr std::uint32_t kW = 320, kH = 180;
    static const Scene scene(findBenchmark("CCS"), kW, kH);
    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.screenWidth = kW;
    cfg.screenHeight = kH;
    cfg.checkInvariants = state.range(0) != 0;

    for (auto _ : state) {
        Result<RunResult> r = runBenchmark(scene, cfg, 2);
        if (!r.isOk())
            state.SkipWithError(r.status().toString().c_str());
        else
            benchmark::DoNotOptimize(r->totalCycles());
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(state.range(0) != 0 ? "armed" : "unarmed");
}
BENCHMARK(BM_InvariantCheckerRun)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
