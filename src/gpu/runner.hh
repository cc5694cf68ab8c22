/**
 * @file
 * High-level harness: run a benchmark for N frames on a GPU
 * configuration and aggregate the per-frame statistics. This is the
 * entry point the examples and all the bench binaries share.
 */

#ifndef LIBRA_GPU_RUNNER_HH
#define LIBRA_GPU_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hh"
#include "gpu/gpu.hh"
#include "gpu/gpu_config.hh"
#include "sim/trace_sink.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

namespace libra
{

struct JsonValue;
class JsonWriter;

/** Aggregated result of one (benchmark, config) run. */
struct RunResult
{
    std::string benchmark;
    GpuConfig config;
    std::vector<FrameStats> frames;

    /**
     * Frames the watchdog gave up on (absolute frame indices). Empty
     * unless GpuConfig::watchdog is armed and fired; skipped frames do
     * not contribute to the aggregates below.
     */
    std::vector<std::uint32_t> skippedFrames;

    /**
     * Full cumulative counter dump of the run ("gpu.ru0.phase_shade"
     * → cycles, ...). Sorted by name; identical simulations produce
     * identical dumps, which is what the determinism suite locks down.
     * When the run rebuilt the GPU mid-sweep (watchdog), the dumps of
     * every instance are summed entrywise, so counters accumulated
     * before a rebuild — including the skipped frame's partial work —
     * are never lost.
     */
    std::map<std::string, std::uint64_t> counters;

    /** Event timeline; non-null iff GpuConfig::traceEvents was set. */
    std::shared_ptr<TraceSink> trace;

    std::uint64_t totalCycles() const;
    std::uint64_t totalRasterCycles() const;
    std::uint64_t totalGeomCycles() const;
    std::uint64_t dramAccesses() const;
    std::uint64_t textureRequests() const;
    double avgTextureLatency() const;   //!< request-weighted
    double textureHitRatio() const;     //!< over all frames
    double avgDramReadLatency() const;  //!< read-weighted
    double totalEnergyMj() const;
    double avgReplicationRatio() const;

    /** Frames per second at @p clock_hz (Table I: 800 MHz). */
    double fps(double clock_hz = 800e6) const;
};

/**
 * Simulated kill -9 of a sweep at its Nth snapshot write (FaultPlan
 * `kill@snapshot=N`), shared by every job of that sweep. The Nth write
 * leaves half its bytes in an unrenamed temp file; every later write
 * is dropped, and SweepRunner starts no further job — what a real
 * SIGKILL at that point leaves on disk.
 */
class SnapshotKill
{
  public:
    enum class Fate
    {
        Write, //!< before the kill: write normally
        Tear,  //!< the fatal write: leave a torn temp file
        Drop,  //!< after the kill: the process is dead, write nothing
    };

    /** @p at_write 1-based; 0 never fires. */
    explicit SnapshotKill(std::uint64_t at_write) : at(at_write) {}

    /** Claim the next write of the sweep. */
    Fate
    nextWrite()
    {
        if (at == 0)
            return Fate::Write;
        const std::uint64_t n = writes.fetch_add(1) + 1;
        return n < at ? Fate::Write : n == at ? Fate::Tear : Fate::Drop;
    }

    /** True once the fatal write was claimed. */
    bool
    fired() const
    {
        return at != 0 && writes.load() >= at;
    }

  private:
    const std::uint64_t at;
    std::atomic<std::uint64_t> writes{0};
};

/**
 * Checkpointing directives for one runBenchmark() call. All defaults
 * off: the run is a plain cold run. The restore contract is byte
 * identity — a run restored at frame F finishes with counter dumps,
 * reports and Chrome traces identical to the uninterrupted run — and
 * every restore failure (corrupt image, key mismatch) degrades to a
 * cold run with a warning, never an error.
 */
struct CheckpointPlan
{
    /**
     * Checkpoint directory (created on demand); empty = none. With a
     * dir the run first restores from its freshest snapshot there —
     * the file named by (config hash, scene hash, first frame) with
     * the largest framesDone <= the requested frame count — and always
     * writes its final-frame snapshot, so re-running a finished job
     * renders zero frames.
     */
    std::string dir;

    /** Also write a snapshot into @ref dir every N finished frames; 0
     *  writes the final one only. */
    std::uint32_t every = 0;

    /**
     * In-memory warm-start image (sweep warm-prefix forking), tried
     * when @ref dir holds nothing for this run. The image may come from
     * a config differing only in the adaptive thresholds — the header's
     * warmPrefixHash proves the prefix frames were byte-identical.
     */
    std::shared_ptr<const std::vector<std::uint8_t>> warmStart;

    /** When set, capture a snapshot image into *captureAfter once
     *  captureAfterFrames frames have finished (warm-prefix record). */
    std::shared_ptr<std::vector<std::uint8_t>> captureAfter;
    std::uint32_t captureAfterFrames = 0;

    /** Sweep-wide simulated kill of the snapshot writes; null = none. */
    SnapshotKill *kill = nullptr;

    /** When set, receives the frames restored from a snapshot instead
     *  of rendered (0 = cold run). */
    std::uint32_t *framesRestored = nullptr;

    bool
    enabled() const
    {
        return !dir.empty() || warmStart != nullptr
            || captureAfter != nullptr;
    }
};

/**
 * Frames done by the freshest snapshot in checkpoint dir @p dir for a
 * run of @p frames frames of benchmark @p abbrev under @p cfg starting
 * at @p first_frame; 0 when there is none. A file probe only: the
 * image is not validated.
 */
std::uint32_t checkpointedFrames(const std::string &dir,
                                 const std::string &abbrev,
                                 const GpuConfig &cfg,
                                 std::uint32_t frames,
                                 std::uint32_t first_frame);

/**
 * Render @p frames frames of @p spec under @p cfg.
 *
 * Validates @p cfg first (InvalidArgument on a bad configuration). If
 * the per-frame watchdog (GpuConfig::watchdog) fires, the wedged frame
 * is recorded in RunResult::skippedFrames, the GPU is rebuilt and the
 * sweep continues with the next frame — a corrupt or pathological
 * frame degrades one data point, not the whole batch.
 */
Result<RunResult> runBenchmark(const BenchmarkSpec &spec,
                               const GpuConfig &cfg,
                               std::uint32_t frames,
                               std::uint32_t first_frame = 0);

/**
 * Same, over an already-built scene. @p scene must match the
 * configuration's screen size; it is only read, so several runs (e.g.
 * the configs of one sweep, possibly on different threads) can share
 * one Scene instead of regenerating geometry and textures per config.
 */
Result<RunResult> runBenchmark(const Scene &scene, const GpuConfig &cfg,
                               std::uint32_t frames,
                               std::uint32_t first_frame = 0);

/** Same, under a checkpoint plan (snapshot writing and/or restore). */
Result<RunResult> runBenchmark(const Scene &scene, const GpuConfig &cfg,
                               std::uint32_t frames,
                               std::uint32_t first_frame,
                               const CheckpointPlan &checkpoint);

/** Serialize @p r (minus config and trace) as one JSON object value:
 *  the Result section of a snapshot image. */
void runResultToJson(JsonWriter &w, const RunResult &r);

/** Inverse of runResultToJson; CorruptData on structural problems.
 *  64-bit integers are recovered exactly (the parser keeps the raw
 *  literal), image pixel hashes round-trip via hex strings. */
Result<RunResult> runResultFromJson(const JsonValue &v);

/**
 * Fraction of execution time attributable to memory: 1 - ideal/real,
 * where "ideal" re-runs the same frames with every access hitting in L1
 * — the Fig. 6a methodology. The paper calls a benchmark
 * memory-intensive when this is >= 0.25.
 */
Result<double> memoryTimeFraction(const BenchmarkSpec &spec,
                                  const GpuConfig &cfg,
                                  std::uint32_t frames);

/** speedup of b over a: cycles(a)/cycles(b). */
double speedup(const RunResult &a, const RunResult &b);

/** Geometric mean of a positive series (paper-style averages). */
double geomean(const std::vector<double> &values);

} // namespace libra

#endif // LIBRA_GPU_RUNNER_HH
