/**
 * @file
 * Benchmark driver for libra-sim. Runs one named workload against the
 * library's public API for a fixed host-time budget and prints one JSON
 * document: raw timing samples, counter digests, correctness checks,
 * host shape and the deterministic per-layer counts. perfbench/run.py
 * builds this binary, summarises the samples and prints the metrics;
 * perfbench/README.md explains the workloads and metrics.
 *
 *   libra_bench --workload mem-frame|compute-frame|figure-sweep
 *               --seed N --seconds S --traced 0|1 [--spans-out FILE]
 *
 * Every workload is a closed loop on the calling thread: the next frame
 * or sweep is issued only after the previous one returned. With
 * --traced 1 the driver records spans around each call it makes into a
 * layer's public function (name, start, end, parent, run id), keeps them
 * in memory and writes them to --spans-out at exit; with --traced 0 no
 * span is recorded.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/faults_build.hh"
#include "check/snapshot.hh"
#include "common/cli.hh"
#include "common/log.hh"
#include "core/tile_scheduler.hh"
#include "gpu/gpu.hh"
#include "gpu/gpu_config.hh"
#include "gpu/policy_registry.hh"
#include "gpu/runner.hh"
#include "gpu/tiling/polygon_list_builder.hh"
#include "sim/sweep.hh"
#include "sim/trace_sink.hh"
#include "trace/json.hh"
#include "trace/run_report.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

#ifndef LIBRA_BENCH_BUILD_TYPE
#define LIBRA_BENCH_BUILD_TYPE "unknown"
#endif

using namespace libra;

namespace
{

using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, std::uint64_t>;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Spans -------------------------------------------------------------

/**
 * In-memory span recorder for the benchmark's own calls into the
 * library. Spans nest on the calling thread: a span's parent is the
 * innermost span open when it started. While not recording, open()
 * returns -1 and close(-1) does nothing, so an untraced run pays one
 * branch per call site.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : recording(enabled) {}

    /** Pause or resume recording (tracing-overhead measurement). */
    void setRecording(bool on) { recording = on; }

    std::int64_t
    open(const char *name, std::int64_t run)
    {
        if (!recording)
            return -1;
        const std::int64_t parent = stack.empty() ? -1 : stack.back();
        spans.push_back(Span{name, nowNs(), 0, parent, run});
        const auto id = static_cast<std::int64_t>(spans.size() - 1);
        stack.push_back(id);
        return id;
    }

    void
    close(std::int64_t id)
    {
        if (id < 0)
            return;
        spans[static_cast<std::size_t>(id)].endNs = nowNs();
        libra_assert(!stack.empty() && stack.back() == id,
                     "spans must close innermost first");
        stack.pop_back();
    }

    std::string
    json() const
    {
        JsonWriter w;
        w.beginObject();
        w.key("schema");
        w.value("libra.perfbench.spans/1");
        w.key("spans");
        w.beginArray();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            w.beginObject();
            w.key("id");
            w.value(static_cast<std::uint64_t>(i));
            w.key("name");
            w.value(s.name);
            w.key("start_ns");
            w.value(s.startNs);
            w.key("end_ns");
            w.value(s.endNs);
            w.key("parent");
            w.value(s.parent);
            w.key("run");
            w.value(s.run);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        return w.str();
    }

  private:
    struct Span
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int64_t parent;
        std::int64_t run;
    };

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin)
            .count();
    }

    bool recording;
    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
    std::vector<std::int64_t> stack;
};

/** Span covering the enclosing scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, std::int64_t run)
        : spans(log), id(log.open(name, run))
    {
    }
    ~ScopedSpan() { spans.close(id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &spans;
    std::int64_t id;
};

// --- Digests, checks and per-layer counts --------------------------------

/** FNV-1a over a sorted counter dump: equal dumps, equal digests. */
std::uint64_t
digestOf(const Counters &counters)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const std::string &bytes) {
        for (const unsigned char c : bytes) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &[name, value] : counters)
        mix(name + '=' + std::to_string(value) + '\n');
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Operations issued (frames, sweep jobs) and checks made. */
struct Outcomes
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; //!< one line per failed operation

    struct Check
    {
        std::string name;
        bool ok;
        std::string detail;
    };
    std::vector<Check> checks;

    /** Count one operation; false (and an error line) on failure. */
    bool
    op(const Status &st, const std::string &what)
    {
        ++attempted;
        if (st.isOk())
            return true;
        ++failed;
        errors.push_back(what + ": " + st.toString());
        return false;
    }

    void
    check(const std::string &name, bool ok, const std::string &detail)
    {
        checks.push_back(Check{name, ok, detail});
    }
};

/** Sum of the counters named <prefix>*<suffix>. */
double
sumMatching(const Counters &c, const std::string &prefix,
            const std::string &suffix)
{
    std::uint64_t total = 0;
    for (const auto &[name, value] : c) {
        if (name.size() >= prefix.size() + suffix.size()
            && name.compare(0, prefix.size(), prefix) == 0
            && name.compare(name.size() - suffix.size(), suffix.size(),
                            suffix)
                == 0) {
            total += value;
        }
    }
    return static_cast<double>(total);
}

double
counter(const Counters &c, const std::string &name)
{
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Deterministic simulated work, summed over every run fed to add(). */
struct LayerCounts
{
    std::uint64_t frames = 0;
    Counters counters; //!< entrywise sum of the runs' dumps
    std::uint64_t simCycles = 0;
    std::uint64_t quads = 0;
    std::uint64_t instructions = 0;
    std::uint64_t warps = 0;
    std::array<std::uint64_t, kNumRuPhases> phases{};
    std::uint64_t temperatureFrames = 0;
    std::uint64_t rankingCycles = 0;
    std::uint32_t finalSupertile = 0; //!< last LIBRA run's last frame
    std::uint64_t reTilesSkipped = 0;
    double energyMj = 0.0;

    // Filled by the workloads from their own probes.
    std::uint64_t events = 0;      //!< over eventFrames frames
    std::uint64_t eventFrames = 0;
    std::uint64_t triangles = 0;   //!< over binnedFrames frames
    std::uint64_t binEntries = 0;
    std::uint64_t binnedFrames = 0;

    void
    add(const GpuConfig &cfg, const std::vector<FrameStats> &run,
        const Counters &dump)
    {
        for (const auto &[name, value] : dump)
            counters[name] += value;
        for (const FrameStats &fs : run) {
            ++frames;
            simCycles += fs.totalCycles;
            quads += fs.quads;
            instructions += fs.instructions;
            warps += fs.warps;
            for (const auto &ru : fs.ruPhases) {
                for (std::size_t p = 0; p < kNumRuPhases; ++p)
                    phases[p] += ru[p];
            }
            temperatureFrames += fs.temperatureOrder ? 1 : 0;
            rankingCycles += fs.rankingCycles;
            reTilesSkipped += fs.reTilesSkipped;
            energyMj += fs.energy.totalMj;
        }
        if (cfg.sched.policy == SchedulerPolicy::Libra && !run.empty())
            finalSupertile = run.back().supertileSize;
    }

    void
    write(JsonWriter &w) const
    {
        const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
        const auto perFrame = [this](double v) { return ratio(v, frames); };
        const Counters &c = counters;
        const auto put = [&w](const std::string &name, double v) {
            w.key(name);
            w.value(v);
        };

        put("workload.triangles", ratio(d(triangles), d(binnedFrames)));
        put("tiling.bin_entries", ratio(d(binEntries), d(binnedFrames)));
        put("gpu.events", ratio(d(events), d(eventFrames)));
        put("gpu.sim_cycles", perFrame(d(simCycles)));
        put("raster.quads", perFrame(d(quads)));
        put("shader.instructions", perFrame(d(instructions)));
        put("shader.warps", perFrame(d(warps)));
        for (std::size_t p = 0; p < kNumRuPhases; ++p) {
            put(std::string("ru.") + ruPhaseName(static_cast<RuPhase>(p))
                    + "_cycles",
                perFrame(d(phases[p])));
        }

        const double l1_hits = sumMatching(c, "gpu.tex_l1", ".hits");
        const double l1_misses = sumMatching(c, "gpu.tex_l1", ".misses");
        put("cache.tex_l1_accesses",
            perFrame(sumMatching(c, "gpu.tex_l1", ".read_accesses")
                     + sumMatching(c, "gpu.tex_l1", ".write_accesses")));
        put("cache.tex_l1_hit_ratio", ratio(l1_hits, l1_hits + l1_misses));
        const double l2_hits = counter(c, "gpu.l2.hits");
        const double l2_misses = counter(c, "gpu.l2.misses");
        put("cache.l2_accesses",
            perFrame(counter(c, "gpu.l2.read_accesses")
                     + counter(c, "gpu.l2.write_accesses")));
        put("cache.l2_hit_ratio", ratio(l2_hits, l2_hits + l2_misses));
        put("cache.l2_mshr_coalesced",
            perFrame(counter(c, "gpu.l2.mshr_coalesced")));
        put("cache.l2_mshr_stalls", perFrame(counter(c, "gpu.l2.mshr_stalls")));
        put("cache.avg_texture_latency_cycles",
            ratio(sumMatching(c, "gpu.ru", ".tex_latency_sum"),
                  sumMatching(c, "gpu.ru", ".tex_requests")));

        const double reads = counter(c, "gpu.dram.reads");
        const double row_hits = counter(c, "gpu.dram.row_hits");
        put("dram.reads", perFrame(reads));
        put("dram.writes", perFrame(counter(c, "gpu.dram.writes")));
        put("dram.activates", perFrame(counter(c, "gpu.dram.activates")));
        put("dram.row_hit_ratio",
            ratio(row_hits, row_hits + counter(c, "gpu.dram.row_misses")
                                + counter(c, "gpu.dram.row_conflicts")));
        put("dram.avg_read_latency_cycles",
            ratio(counter(c, "gpu.dram.total_read_latency"), reads));

        put("sched.temperature_frames", d(temperatureFrames));
        put("sched.ranking_cycles", perFrame(d(rankingCycles)));
        put("sched.final_supertile_size", finalSupertile);
        put("re.tiles_skipped", perFrame(d(reTilesSkipped)));
        put("energy.total_mj", perFrame(energyMj));
        // 48 bits, so the digest survives a JSON double exactly.
        put("counters_digest", d(digestOf(counters) >> 16));
    }
};

/** The adaptive scheduler's input for the frame after @p fs. */
FrameFeedback
feedbackFrom(const FrameStats &fs)
{
    FrameFeedback fb;
    fb.valid = true;
    fb.rasterCycles = fs.rasterCycles;
    fb.textureHitRatio = fs.textureHitRatio;
    fb.tileDramAccesses = fs.tileDram;
    fb.tileInstructions = fs.tileInstr;
    return fb;
}

/**
 * Standalone probes of the tiling and scheduling layers: bin @p frame
 * and plan the next frame from @p stats, each under its own span.
 * Their counts (triangles, bin entries) land in @p counts.
 */
void
probeTilingAndScheduler(SpanLog &spans, std::int64_t run,
                        const GpuConfig &cfg, const FrameData &frame,
                        const FrameStats *stats, TileScheduler &sched,
                        LayerCounts &counts)
{
    const TileGrid grid(cfg.screenWidth, cfg.screenHeight, cfg.tileSize);
    {
        ScopedSpan span(spans, "tiling.bin", run);
        const BinnedFrame binned = binFrame(frame, grid);
        counts.binEntries += binned.binEntries();
    }
    counts.triangles += frame.triangleCount();
    ++counts.binnedFrames;
    if (stats != nullptr) {
        ScopedSpan span(spans, "sched.begin_frame", run);
        sched.beginFrame(feedbackFrom(*stats));
    }
}

/**
 * Peak resident set of this process image in MiB: VmHWM, which exec
 * resets (ru_maxrss would also count the launching process's peak).
 */
double
peakRssMb()
{
    std::FILE *fp = std::fopen("/proc/self/status", "r");
    if (fp == nullptr)
        fatal("cannot read /proc/self/status");
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), fp) != nullptr) {
        unsigned long long v = 0;
        if (std::sscanf(line, "VmHWM: %llu kB", &v) == 1)
            kib = static_cast<double>(v);
    }
    std::fclose(fp);
    if (kib <= 0.0)
        fatal("no VmHWM in /proc/self/status");
    return kib / 1024.0;
}

// --- Result document -----------------------------------------------------

/** Everything one workload run hands to run.py. */
struct Report
{
    std::string workload;
    std::uint64_t seed = 1;
    bool traced = false;
    std::string resolution;
    unsigned workers = 1;
    std::string timedUnit; //!< what one sample of "rate" covers

    /** Per block or sweep: the fastest of its back-to-back set-ups. */
    std::vector<double> setupS;
    std::vector<double> rate; //!< frames per host second, per unit
    /** Frame workloads: each timed block's host seconds per frame. */
    std::vector<std::vector<double>> blockFrameS;
    /** Traced run: timed-unit seconds with span recording on / off. */
    std::vector<double> spansOnS, spansOffS;

    Outcomes outcomes;
    /** Named digest lists; run.py checks which must be equal. */
    std::map<std::string, std::vector<std::string>> digests;

    LayerCounts counts;
    std::map<std::string, double> extra; //!< sweep/verdict/overhead

    std::string
    json() const
    {
        JsonWriter w;
        w.beginObject();
        w.key("schema");
        w.value("libra.perfbench.raw/1");
        w.key("workload");
        w.value(workload);
        w.key("seed");
        w.value(seed);
        w.key("traced");
        w.value(traced);
        w.key("resolution");
        w.value(resolution);
        w.key("timed_unit");
        w.value(timedUnit);

        w.key("shape");
        w.beginObject();
        w.key("nproc");
        w.value(std::thread::hardware_concurrency());
        w.key("workers");
        w.value(workers);
        w.key("build_type");
        w.value(LIBRA_BENCH_BUILD_TYPE);
        w.key("libra_tracing");
        w.value(LIBRA_TRACING_ENABLED != 0);
        w.key("libra_faults");
        w.value(faultsCompiledIn());
        w.key("compiler");
#if defined(__clang__)
        w.value(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
        w.value(std::string("gcc ") + __VERSION__);
#else
        w.value("unknown");
#endif
        w.endObject();

        const auto series = [&w](const char *name,
                                 const std::vector<double> &v) {
            w.key(name);
            w.beginArray();
            for (const double x : v)
                w.value(x);
            w.endArray();
        };
        w.key("samples");
        w.beginObject();
        series("setup_s", setupS);
        series("frames_per_s", rate);
        w.key("block_frame_s");
        w.beginArray();
        for (const std::vector<double> &block : blockFrameS) {
            w.beginArray();
            for (const double x : block)
                w.value(x);
            w.endArray();
        }
        w.endArray();
        series("spans_on_s", spansOnS);
        series("spans_off_s", spansOffS);
        w.endObject();
        w.key("peak_rss_mb");
        w.value(peakRssMb());

        w.key("operations");
        w.beginObject();
        w.key("attempted");
        w.value(outcomes.attempted);
        w.key("failed");
        w.value(outcomes.failed);
        w.key("errors");
        w.beginArray();
        for (const std::string &e : outcomes.errors)
            w.value(e);
        w.endArray();
        w.endObject();

        w.key("checks");
        w.beginArray();
        for (const Outcomes::Check &c : outcomes.checks) {
            w.beginObject();
            w.key("name");
            w.value(c.name);
            w.key("ok");
            w.value(c.ok);
            w.key("detail");
            w.value(c.detail);
            w.endObject();
        }
        w.endArray();

        w.key("digests");
        w.beginObject();
        for (const auto &[name, list] : digests) {
            w.key(name);
            w.beginArray();
            for (const std::string &d : list)
                w.value(d);
            w.endArray();
        }
        w.endObject();

        w.key("counts");
        w.beginObject();
        counts.write(w);
        for (const auto &[name, value] : extra) {
            w.key(name);
            w.value(value);
        }
        w.endObject();
        w.endObject();
        return w.str();
    }
};

/** Host-time budget and span log shared by the workload runners. */
struct RunContext
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    SpanLog &spans;
    bool traced = false;
};

// --- mem-frame / compute-frame -----------------------------------------

// The figure benches' default resolution, used by every workload.
constexpr std::uint32_t kWidth = 960;
constexpr std::uint32_t kHeight = 544;
constexpr std::uint32_t kFramesPerBlock = 4;
/**
 * Back-to-back set-ups timed before each block; the last one renders.
 * The fastest is the block's set-up sample: one slow sample is the host,
 * not the code.
 */
constexpr int kSetupRepeats = 16;

/** Renders of one block: frames 0..kFramesPerBlock-1 on a fresh Gpu. */
struct Block
{
    std::vector<FrameStats> frames;
    std::vector<double> frameS; //!< host seconds per frame
    Counters counters;
    std::uint64_t events = 0;
    bool ok = true;
};

Block
renderBlock(const RunContext &ctx, std::int64_t run, const Scene &scene,
            Gpu &gpu, Outcomes &out)
{
    Block b;
    for (std::uint32_t f = 0; f < kFramesPerBlock; ++f) {
        const Clock::time_point t0 = Clock::now();
        const FrameData frame = [&] {
            ScopedSpan span(ctx.spans, "workload.frame_gen", run);
            return scene.frame(f);
        }();
        Result<FrameStats> fs = [&] {
            ScopedSpan span(ctx.spans, "gpu.render", run);
            return gpu.tryRenderFrame(frame, scene.textures());
        }();
        b.frameS.push_back(secondsSince(t0));
        if (!out.op(fs.status(), "frame " + std::to_string(f))) {
            b.ok = false;
            break;
        }
        b.frames.push_back(std::move(*fs));
    }
    b.counters = gpu.stats().values();
    b.events = gpu.eventsExecuted();
    return b;
}

Report
runFrameWorkload(const RunContext &ctx, const char *abbrev)
{
    Report rep;
    rep.resolution = std::to_string(kWidth) + "x" + std::to_string(kHeight);
    rep.timedUnit = "block of 4 frames";
    Outcomes &out = rep.outcomes;

    BenchmarkSpec spec = findBenchmark(abbrev);
    spec.seed = ctx.seed;
    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.screenWidth = kWidth;
    cfg.screenHeight = kHeight;
    // Layers this workload does not use; report.bytes is set below.
    for (const char *name :
         {"sweep.workers_effective", "sweep.jobs_failed",
          "sweep.warm_prefix_forks", "snapshot.bytes", "report.bytes",
          "verdict.ptr_speedup", "verdict.libra_speedup",
          "verdict.scheduler_extra_pp"}) {
        rep.extra[name] = 0.0;
    }

    // Timed closed loop: build the scene and a Gpu (set-up) several
    // times over, then render one block of consecutive frames from frame
    // 0 on the last pair, until the time is up. A traced run alternates
    // span recording per block, to measure what the spans themselves
    // cost.
    std::vector<std::string> &block_digests = rep.digests["repeat"];
    std::optional<Block> first;
    const Clock::time_point start = Clock::now();
    std::int64_t run = 0;
    do {
        const bool recording = ctx.traced && run % 2 == 0;
        ctx.spans.setRecording(recording);
        std::optional<Scene> scene;
        std::optional<Gpu> gpu;
        double setup_s = std::numeric_limits<double>::infinity();
        for (int i = 0; i < kSetupRepeats; ++i) {
            gpu.reset();
            scene.reset();
            const Clock::time_point t0 = Clock::now();
            {
                ScopedSpan span(ctx.spans, "workload.scene_build", run);
                scene.emplace(spec, kWidth, kHeight);
            }
            {
                ScopedSpan span(ctx.spans, "gpu.construct", run);
                gpu.emplace(cfg);
            }
            setup_s = std::min(setup_s, secondsSince(t0));
        }
        rep.setupS.push_back(setup_s);
        Block b = renderBlock(ctx, run, *scene, *gpu, out);
        ctx.spans.setRecording(ctx.traced);
        double block_s = 0.0;
        for (const double s : b.frameS)
            block_s += s;
        if (ctx.traced)
            (recording ? rep.spansOnS : rep.spansOffS).push_back(block_s);
        if (!b.ok)
            break;
        rep.rate.push_back(kFramesPerBlock / block_s);
        rep.blockFrameS.push_back(b.frameS);
        block_digests.push_back(hex(digestOf(b.counters)));
        if (!first)
            first = std::move(b);
        ++run;
    } while (secondsSince(start) < ctx.seconds);
    if (!first)
        return rep;

    // Invariant pass: the same block with the conservation-law checker
    // armed. It must report no violation and change no counter. Its
    // renders do more work than the timed ones, so they record no span.
    const Scene scene(spec, kWidth, kHeight);
    GpuConfig armed = cfg;
    armed.checkInvariants = true;
    Gpu armed_gpu(armed);
    ctx.spans.setRecording(false);
    const Block inv = renderBlock(ctx, -1, scene, armed_gpu, out);
    ctx.spans.setRecording(ctx.traced);
    out.check("invariants_armed", inv.ok,
              inv.ok ? "checkInvariants pass: no violation"
                     : "checkInvariants pass failed");
    if (inv.ok)
        block_digests.push_back(hex(digestOf(inv.counters)));

    // Per-layer counts of one block, plus the standalone tiling and
    // scheduler probes on the same frames.
    rep.counts.add(cfg, first->frames, first->counters);
    rep.counts.events = first->events;
    rep.counts.eventFrames = first->frames.size();
    // TileScheduler keeps a reference to its grid.
    const TileGrid grid(kWidth, kHeight, cfg.tileSize);
    TileScheduler sched(cfg.sched, grid, cfg.rasterUnits);
    for (std::uint32_t f = 0; f < first->frames.size(); ++f) {
        probeTilingAndScheduler(ctx.spans, -1, cfg, scene.frame(f),
                                &first->frames[f], sched, rep.counts);
    }

    RunResult result;
    result.benchmark = abbrev;
    result.config = cfg;
    result.frames = first->frames;
    result.counters = first->counters;
    std::string doc;
    {
        ScopedSpan span(ctx.spans, "report.json", -1);
        doc = runReportJson(result);
    }
    rep.extra["report.bytes"] = static_cast<double>(doc.size());
    return rep;
}

// --- figure-sweep --------------------------------------------------------

constexpr std::uint32_t kSweepFrames = 4;
constexpr std::uint32_t kWarmPrefixFrames = 2;
constexpr unsigned kMaxWorkers = 4;
constexpr int kSweepSetupRepeats = 10;

/**
 * The frame workloads' memory-intensive and compute-intensive titles.
 * Every job of a sweep is at the figures' resolution, so the sweep holds
 * few titles to leave room for several sweeps and the serial pass.
 */
const char *const kSweepTitles[] = {"CCS", "GDL"};

/**
 * Fig. 19a-style LIBRA variants on this title: with the default-threshold
 * LIBRA job they share a warm prefix, which all three fork from.
 */
const char *const kThresholdTitle = "CCS";
const double kResizeThresholds[] = {0.0, 0.05};

/** The job run once more with GpuConfig::checkInvariants armed. */
const char *const kInvariantJob = "CCS/re-libra";

/** Job labels index the verdict inputs (base/ptr/libra per title). */
struct LabeledJob
{
    SweepJob job;
    std::string label; //!< "<title>/<config>"
};

GpuConfig
sweepConfig(GpuConfig cfg)
{
    cfg.screenWidth = kWidth;
    cfg.screenHeight = kHeight;
    return cfg;
}

std::vector<LabeledJob>
sweepJobs(const std::vector<BenchmarkSpec> &specs)
{
    std::vector<LabeledJob> jobs;
    GpuConfig re_libra = sweepConfig(GpuConfig::libra(2, 4));
    if (Status st = applyPolicy(re_libra, "re-libra"); !st.isOk())
        fatal("re-libra preset: ", st.toString());
    for (const BenchmarkSpec &spec : specs) {
        const auto add = [&](const GpuConfig &cfg, const char *name) {
            jobs.push_back(LabeledJob{
                SweepJob{&spec, cfg, kSweepFrames, 0},
                spec.abbrev + "/" + name});
        };
        add(sweepConfig(GpuConfig::baseline(8)), "baseline");
        add(sweepConfig(GpuConfig::ptr(2, 4)), "ptr");
        add(sweepConfig(GpuConfig::libra(2, 4)), "libra");
        add(re_libra, "re-libra");
    }
    for (const BenchmarkSpec &spec : specs) {
        if (spec.abbrev != kThresholdTitle)
            continue;
        for (const double thr : kResizeThresholds) {
            GpuConfig cfg = sweepConfig(GpuConfig::libra(2, 4));
            cfg.sched.resizeThreshold = thr;
            char label[64];
            std::snprintf(label, sizeof(label), "/libra-resize-%g", thr);
            jobs.push_back(LabeledJob{
                SweepJob{&spec, cfg, kSweepFrames, 0}, spec.abbrev + label});
        }
    }
    return jobs;
}

/** Jobs sharing a warm-prefix key with another job: these fork. */
std::vector<bool>
forkingJobs(const std::vector<LabeledJob> &jobs)
{
    std::map<std::pair<std::string, std::uint64_t>, int> groups;
    for (const LabeledJob &j : jobs)
        ++groups[{j.job.spec->abbrev, j.job.config.warmPrefixHash()}];
    std::vector<bool> forks;
    for (const LabeledJob &j : jobs) {
        forks.push_back(
            groups[{j.job.spec->abbrev, j.job.config.warmPrefixHash()}]
            > 1);
    }
    return forks;
}

double
steadySpeedup(const RunResult &base, const RunResult &other)
{
    // Frame 0 is cold (empty caches, no scheduler history); the figure
    // benches compare configurations over the remaining frames.
    std::uint64_t b = 0, o = 0;
    for (std::size_t i = 1; i < base.frames.size(); ++i)
        b += base.frames[i].totalCycles;
    for (std::size_t i = 1; i < other.frames.size(); ++i)
        o += other.frames[i].totalCycles;
    return ratio(static_cast<double>(b), static_cast<double>(o));
}

/** Fig. 11 averages over the sweep's memory-intensive titles. */
void
addVerdicts(const std::map<std::string, std::size_t> &by_label,
            const std::vector<JobOutcome> &outcomes, Report &rep)
{
    const auto result = [&](const std::string &label) -> const RunResult * {
        const Result<RunResult> &r = outcomes[by_label.at(label)].result;
        return r.isOk() ? &*r : nullptr;
    };
    double ptr_sum = 0.0, libra_sum = 0.0;
    int n = 0;
    for (const char *title : kSweepTitles) {
        if (!findBenchmark(title).memoryIntensive)
            continue;
        const std::string t = title;
        const RunResult *base = result(t + "/baseline");
        const RunResult *ptr = result(t + "/ptr");
        const RunResult *lib = result(t + "/libra");
        if (base == nullptr || ptr == nullptr || lib == nullptr)
            continue;
        ptr_sum += steadySpeedup(*base, *ptr);
        libra_sum += steadySpeedup(*base, *lib);
        ++n;
    }
    const double ptr_mean = ratio(ptr_sum, n);
    const double libra_mean = ratio(libra_sum, n);
    rep.extra["verdict.ptr_speedup"] = ptr_mean;
    rep.extra["verdict.libra_speedup"] = libra_mean;
    rep.extra["verdict.scheduler_extra_pp"] =
        100.0 * (libra_mean - ptr_mean);
}

/**
 * Snapshot round trip at a frame boundary: render two frames, save,
 * restore onto a fresh Gpu, then render the remaining frames on both.
 * The two counter dumps must match. The original Gpu's renders also
 * give this workload its gpu.* event counts.
 */
void
snapshotRoundTrip(const RunContext &ctx, const Scene &scene,
                  const GpuConfig &cfg, const std::string &label,
                  Report &rep)
{
    Outcomes &out = rep.outcomes;
    const auto render = [&](Gpu &gpu, std::uint32_t f) {
        const FrameData frame = [&] {
            ScopedSpan span(ctx.spans, "workload.frame_gen", -1);
            return scene.frame(f);
        }();
        ScopedSpan span(ctx.spans, "gpu.render", -1);
        return out.op(gpu.tryRenderFrame(frame, scene.textures()).status(),
                      "snapshot frame " + std::to_string(f));
    };

    Gpu original(cfg);
    bool ok = true;
    for (std::uint32_t f = 0; f < kWarmPrefixFrames; ++f)
        ok = ok && render(original, f);
    if (!ok)
        return;

    SnapshotHeader header;
    header.configHash = cfg.configHash();
    header.warmPrefixHash = cfg.warmPrefixHash();
    header.sceneHash = snapshotSceneHash(scene.spec().abbrev,
                                         cfg.screenWidth, cfg.screenHeight);
    header.framesDone = kWarmPrefixFrames;
    std::vector<std::uint8_t> image;
    {
        ScopedSpan span(ctx.spans, "snapshot.save", -1);
        SnapshotWriter w(header);
        original.saveState(w);
        image = w.finish();
    }
    rep.extra["snapshot.bytes"] = static_cast<double>(image.size());

    Gpu restored(cfg);
    Status loaded = Status::ok();
    {
        ScopedSpan span(ctx.spans, "snapshot.load", -1);
        Result<SnapshotReader> reader =
            SnapshotReader::parse(std::move(image));
        loaded = reader.isOk() ? restored.loadState(*reader)
                               : reader.status();
        if (loaded.isOk())
            loaded = reader->finish();
    }
    if (!out.op(loaded, "snapshot load"))
        return;

    for (std::uint32_t f = kWarmPrefixFrames; f < kSweepFrames; ++f) {
        ok = ok && render(original, f);
        ok = ok && render(restored, f);
    }
    if (!ok)
        return;
    rep.digests["snapshot/" + label] = {
        hex(digestOf(original.stats().values())),
        hex(digestOf(restored.stats().values()))};
    rep.counts.events = original.eventsExecuted();
    rep.counts.eventFrames = kSweepFrames;
}

Report
runSweepWorkload(const RunContext &ctx)
{
    Report rep;
    rep.resolution = std::to_string(kWidth) + "x" + std::to_string(kHeight);
    rep.timedUnit = "sweep";
    rep.extra["snapshot.bytes"] = 0.0; // until the round trip saves
    Outcomes &out = rep.outcomes;

    std::vector<BenchmarkSpec> specs;
    for (const char *title : kSweepTitles) {
        specs.push_back(findBenchmark(title));
        specs.back().seed = ctx.seed;
    }
    const std::vector<LabeledJob> jobs = sweepJobs(specs);
    const std::vector<bool> forks = forkingJobs(jobs);
    std::vector<SweepJob> sweep_jobs;
    std::map<std::string, std::size_t> by_label;
    for (const LabeledJob &j : jobs) {
        by_label[j.label] = sweep_jobs.size();
        sweep_jobs.push_back(j.job);
    }

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    rep.workers = std::min(kMaxWorkers, nproc);
    SweepRunner runner(rep.workers);
    SweepPolicy policy;
    policy.checkpoint.warmPrefixFrames = kWarmPrefixFrames;

    // Set-up: SceneCache fills for every title plus the Gpu
    // construction of every job, before the first frame. Measured a few
    // times before each sweep, so the samples span the whole run; the
    // fastest is the sweep's sample.
    const auto measure_setup = [&](std::int64_t run) {
        double setup_s = std::numeric_limits<double>::infinity();
        for (int i = 0; i < kSweepSetupRepeats; ++i) {
            const Clock::time_point t0 = Clock::now();
            SceneCache cache;
            for (const BenchmarkSpec &spec : specs) {
                ScopedSpan span(ctx.spans, "workload.scene_build", run);
                cache.get(spec, kWidth, kHeight);
            }
            for (const LabeledJob &j : jobs) {
                ScopedSpan span(ctx.spans, "gpu.construct", run);
                const Gpu gpu(j.job.config);
            }
            setup_s = std::min(setup_s, secondsSince(t0));
        }
        rep.setupS.push_back(setup_s);
    };

    // Timed closed loop: whole sweeps, each over a fresh SceneCache as
    // a figure bench would run it.
    std::optional<SweepOutcome> first;
    std::uint64_t jobs_failed = 0;
    std::uint64_t min_forks = std::numeric_limits<std::uint64_t>::max();
    const Clock::time_point start = Clock::now();
    std::int64_t run = 0;
    do {
        measure_setup(run);
        const bool recording = ctx.traced && run % 2 == 0;
        ctx.spans.setRecording(recording);
        SceneCache cache;
        const Clock::time_point t0 = Clock::now();
        SweepOutcome so = [&] {
            ScopedSpan span(ctx.spans, "sweep.wall", run);
            return runner.runWithPolicy(sweep_jobs, policy, &cache);
        }();
        const double wall = secondsSince(t0);
        ctx.spans.setRecording(ctx.traced);
        if (ctx.traced)
            (recording ? rep.spansOnS : rep.spansOffS).push_back(wall);

        std::uint64_t frames = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const Result<RunResult> &r = so.jobs[i].result;
            if (!out.op(r.status(), "job " + jobs[i].label)) {
                ++jobs_failed;
                continue;
            }
            frames += r->frames.size();
            rep.digests[(forks[i] ? "forked/" : "job/") + jobs[i].label]
                .push_back(hex(digestOf(r->counters)));
        }
        rep.rate.push_back(static_cast<double>(frames) / wall);
        min_forks = std::min(min_forks, so.warmPrefixForks);
        if (!first)
            first = std::move(so);
        ++run;
    } while (secondsSince(start) < ctx.seconds);
    out.check("warm_prefix_forked", min_forks > 0,
              "every sweep forked at least " + std::to_string(min_forks)
                  + " job(s) from a shared warm prefix");

    // Each job once through a direct, cold runBenchmark call: SweepRunner
    // promises bit-identical counters, and forked jobs must equal their
    // cold runs. This serial pass is also the sweep's serial reference:
    // it builds the scenes as a sweep does, but it forks nothing.
    SceneCache direct_scenes;
    const auto direct = [&](const LabeledJob &j, const GpuConfig &cfg) {
        const std::shared_ptr<const Scene> scene =
            direct_scenes.get(*j.job.spec, kWidth, kHeight);
        return runBenchmark(*scene, cfg, j.job.frames, j.job.firstFrame);
    };
    {
        ScopedSpan serial(ctx.spans, "sweep.serial", run);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const Result<RunResult> r = [&] {
                ScopedSpan span(ctx.spans, "sweep.serial_job", run);
                return direct(jobs[i], jobs[i].job.config);
            }();
            if (out.op(r.status(), "direct " + jobs[i].label)) {
                rep.digests[(forks[i] ? "forked/" : "job/") + jobs[i].label]
                    .push_back(hex(digestOf(r->counters)));
            }
        }
    }

    // Invariant pass: one job again with the conservation-law checker
    // armed. RE-LIBRA exercises the widest law (flushed + skipped tiles).
    // It does more work than the timed runs, so it records no span.
    const std::size_t ai = by_label.at(kInvariantJob);
    GpuConfig armed = jobs[ai].job.config;
    armed.checkInvariants = true;
    ctx.spans.setRecording(false);
    const Result<RunResult> inv = direct(jobs[ai], armed);
    ctx.spans.setRecording(ctx.traced);
    const bool invariants_ok = out.op(inv.status(), "armed " + jobs[ai].label);
    out.check("invariants_armed", invariants_ok,
              std::string(kInvariantJob) + " with checkInvariants: "
                  + (invariants_ok ? "no violation" : "failed"));
    if (invariants_ok) {
        rep.digests[(forks[ai] ? "forked/" : "job/") + jobs[ai].label]
            .push_back(hex(digestOf(inv->counters)));
    }

    // Per-layer counts of the first sweep, verdicts and report.
    std::vector<RunResult> results;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Result<RunResult> &r = first->jobs[i].result;
        if (!r.isOk())
            continue;
        rep.counts.add(jobs[i].job.config, r->frames, r->counters);
        results.push_back(*r);
    }
    addVerdicts(by_label, first->jobs, rep);
    rep.extra["sweep.workers_effective"] = rep.workers;
    rep.extra["sweep.jobs_failed"] = static_cast<double>(jobs_failed);
    rep.extra["sweep.warm_prefix_forks"] =
        static_cast<double>(first->warmPrefixForks);
    std::string doc;
    {
        ScopedSpan span(ctx.spans, "report.json", run);
        doc = sweepReportJson(results);
    }
    rep.extra["report.bytes"] = static_cast<double>(doc.size());

    // Standalone tiling/scheduler probes over every title's frames,
    // planning from that title's LIBRA job.
    for (std::size_t t = 0; t < specs.size(); ++t) {
        const std::shared_ptr<const Scene> scene =
            direct_scenes.get(specs[t], kWidth, kHeight);
        const std::size_t li = by_label.at(specs[t].abbrev + "/libra");
        const GpuConfig &cfg = jobs[li].job.config;
        const Result<RunResult> &lib = first->jobs[li].result;
        const TileGrid grid(kWidth, kHeight, cfg.tileSize);
        TileScheduler sched(cfg.sched, grid, cfg.rasterUnits);
        for (std::uint32_t f = 0; f < kSweepFrames; ++f) {
            const FrameStats *stats = lib.isOk() && f < lib->frames.size()
                ? &lib->frames[f]
                : nullptr;
            probeTilingAndScheduler(ctx.spans, run, cfg, scene->frame(f),
                                    stats, sched, rep.counts);
        }
    }

    const LabeledJob &snap = jobs[by_label.at(specs[0].abbrev + "/libra")];
    snapshotRoundTrip(ctx,
                      *direct_scenes.get(specs[0], kWidth,
                                         kHeight),
                      snap.job.config, snap.label, rep);
    return rep;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv,
                       {"workload", "seed", "seconds", "traced",
                        "spans-out"});
    const std::string workload = args.get("workload", "");
    const bool traced = args.getUint("traced", 0) != 0;
    const std::string spans_out = args.get("spans-out", "");
    SpanLog spans(traced);
    RunContext ctx{args.getUint("seed", 1), args.getDouble("seconds", 10.0),
                   spans, traced};
    if (ctx.seconds <= 0.0)
        fatal("--seconds must be positive");

    Report rep;
    if (workload == "mem-frame")
        rep = runFrameWorkload(ctx, "CCS");
    else if (workload == "compute-frame")
        rep = runFrameWorkload(ctx, "GDL");
    else if (workload == "figure-sweep")
        rep = runSweepWorkload(ctx);
    else
        fatal("--workload must be mem-frame, compute-frame or "
              "figure-sweep, not '", workload, "'");
    rep.workload = workload;
    rep.seed = ctx.seed;
    rep.traced = traced;

    if (traced && !spans_out.empty()) {
        if (Status st = writeTextFile(spans_out, spans.json()); !st.isOk())
            fatal("--spans-out: ", st.toString());
    }
    std::printf("%s\n", rep.json().c_str());
    return 0;
}
