/**
 * @file
 * Parallel sweep engine: run many (benchmark, config) simulations
 * concurrently on a work-stealing thread pool.
 *
 * Simulations are embarrassingly parallel — each owns its Gpu, its
 * EventQueue and all mutable state — so a sweep of N configurations
 * scales with the host's cores. Two properties are guaranteed:
 *
 *  - **Determinism.** Results come back indexed by submission order and
 *    each simulation is bit-identical to a serial run: the worker count
 *    affects wall-clock time only, never a single statistic.
 *  - **Error isolation.** A job that fails (invalid config, watchdog
 *    giving up, even a stray exception) reports its Status in its own
 *    slot; the remaining jobs run to completion.
 *
 * A shared SceneCache lets the N configs of one benchmark build the
 * scene (geometry + texture pool) once: Scene is immutable after
 * construction, so concurrent readers need no locking.
 */

#ifndef LIBRA_SIM_SWEEP_HH
#define LIBRA_SIM_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "check/fault_injector.hh"
#include "common/status.hh"
#include "gpu/gpu_config.hh"
#include "gpu/runner.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

namespace libra
{

/** One simulation of a sweep: render @p frames of @p spec under
 *  @p config, starting at absolute frame @p firstFrame. */
struct SweepJob
{
    const BenchmarkSpec *spec = nullptr;
    GpuConfig config;
    std::uint32_t frames = 0;
    std::uint32_t firstFrame = 0;
};

/**
 * Thread-safe cache of built scenes, keyed by (benchmark, resolution).
 * Concurrent requests for the same key block until the single builder
 * finishes; the returned Scene is shared read-only.
 */
class SceneCache
{
  public:
    /** The scene for (@p spec, @p width x @p height), built at most
     *  once per key for the cache's lifetime. */
    std::shared_ptr<const Scene> get(const BenchmarkSpec &spec,
                                     std::uint32_t width,
                                     std::uint32_t height);

    /** Scenes actually constructed — test hook for the build-once
     *  guarantee. */
    std::uint64_t builds() const { return built.load(); }

  private:
    using Key = std::tuple<std::string, std::uint32_t, std::uint32_t>;

    struct Slot
    {
        std::once_flag once;
        std::shared_ptr<const Scene> scene;
    };

    std::mutex mtx;                                //!< guards slots map
    std::map<Key, std::shared_ptr<Slot>> slots;
    std::atomic<std::uint64_t> built{0};
};

/**
 * Checkpointing policy of one sweep (DESIGN.md §10). Two independent
 * mechanisms, both built on frame-boundary snapshots
 * (src/check/snapshot.hh):
 *
 *  - **The checkpoint dir** (@ref dir, @ref every): the sweep's one
 *    persistent result store. Every job writes its final-frame
 *    snapshot there (plus one every N frames with @ref every), and
 *    first restores from the freshest snapshot of its own key. A
 *    finished job therefore re-renders zero frames, so resuming a
 *    killed sweep is re-running it against the same dir.
 *    Byte-identity: the resumed results equal the uninterrupted ones.
 *  - **Warm-prefix forking** (@ref warmPrefixFrames): jobs differing
 *    only in the adaptive-controller thresholds (equal
 *    GpuConfig::warmPrefixHash(), same benchmark/resolution/frame
 *    range — e.g. a fig19_sensitivity threshold sweep) render
 *    byte-identical opening frames. The first group member runs that
 *    prefix once, snapshots in memory, and every member forks from the
 *    restored state instead of re-rendering it. Jobs that already have
 *    a snapshot in @ref dir restore from it and join no group.
 *    Disabled while a fault plan is armed (injected faults are
 *    positional; forking would change what each job observes).
 */
struct CheckpointPolicy
{
    /** Snapshot directory; empty disables the store. */
    std::string dir;

    /** Also write a snapshot every N finished frames (0 = final frame
     *  only). */
    std::uint32_t every = 0;

    /**
     * Warm-prefix length in frames shared across a threshold sweep; 0
     * disables forking. Must not exceed the frames the adaptive
     * controller renders before its thresholds first matter (the
     * controller compares frame feedback from frame 2 on, so 2 is the
     * safe default).
     */
    std::uint32_t warmPrefixFrames = 0;
};

/**
 * Failure-handling policy for SweepRunner::runWithPolicy. The default
 * policy (all fields at their defaults) is what run() executes: one
 * attempt per job, no deadline, no quarantine, no checkpoint dir.
 *
 * See DESIGN.md, "Failure model", for the taxonomy behind the knobs.
 */
struct SweepPolicy
{
    /** Wall-clock deadline per job *attempt* in milliseconds; 0 = none.
     *  Enforced cooperatively via the Watchdog's CancelToken: the job
     *  aborts with DeadlineExceeded at its next event-loop poll. */
    std::uint64_t deadlineMs = 0;

    /** Extra attempts after a transient failure (isTransientFailure:
     *  Unavailable, DeadlineExceeded). Permanent failures never
     *  retry — the simulator is deterministic. */
    std::uint32_t maxRetries = 0;

    /** Base delay before retry k, doubling each time
     *  (backoffMs << k, capped at 30 s); 0 = retry immediately. */
    std::uint64_t backoffMs = 0;

    /**
     * Permanent failures of one configHash() after which further jobs
     * with that config fail fast (FailedPrecondition, "quarantined")
     * instead of burning a worker on a known-poisoned config; 0
     * disables. When enabled, jobs sharing a config hash execute as
     * one sequential chain (in submission order) so quarantine
     * decisions are deterministic — distinct configs still run fully
     * parallel.
     */
    std::uint32_t quarantineThreshold = 0;

    /** Armed fault plan (chaos testing; empty = no injection). */
    FaultPlan faults;

    /** Checkpoint dir and warm-prefix forking (see CheckpointPolicy). */
    CheckpointPolicy checkpoint;
};

/** Result plus execution metadata of one job under runWithPolicy. */
struct JobOutcome
{
    Result<RunResult> result =
        Status::error(ErrorCode::Unavailable, "job never ran");

    std::uint32_t attempts = 0;  //!< attempts consumed
    /** Frames restored from the checkpoint dir or a warm prefix
     *  instead of rendered (the last attempt's; 0 = cold). */
    std::uint32_t framesRestored = 0;
    bool quarantined = false;    //!< failed fast on a quarantined config
    bool notRun = false;         //!< sweep died before this job started
};

/** Everything runWithPolicy learned about a sweep. */
struct SweepOutcome
{
    std::vector<JobOutcome> jobs; //!< submission order

    /** The simulated kill fired (FaultPlan `kill@snapshot=N`, fault
     *  plans only): snapshot writes stopped and unstarted jobs were
     *  abandoned, as a real SIGKILL would. */
    bool killed = false;

    /** Jobs restored whole from their final snapshot in the checkpoint
     *  dir: finished in an earlier run, re-rendered zero frames. */
    std::uint64_t restoredWhole = 0;

    /** Jobs that forked from a shared warm-prefix snapshot instead of
     *  rendering their opening frames cold (CheckpointPolicy). */
    std::uint64_t warmPrefixForks = 0;

    /** Jobs whose final result is a failure (incl. quarantined and
     *  not-run). */
    std::size_t failureCount() const;
};

/**
 * Stable identity of a sweep job: benchmark abbrev, resolution, frame
 * range and the 16-hex-digit GpuConfig::configHash(). Two jobs with
 * equal keys produce byte-identical results (the simulator is
 * deterministic). Prefixes attributed failure messages.
 */
std::string sweepJobKey(const SweepJob &job);

/**
 * Work-stealing pool of sweep workers.
 *
 * Jobs are dealt round-robin onto per-worker deques; a worker pops from
 * its own deque and steals from its neighbours when empty, so a handful
 * of long simulations cannot strand the remaining workers idle.
 */
class SweepRunner
{
  public:
    /** @p workers 0 picks std::thread::hardware_concurrency(). */
    explicit SweepRunner(unsigned workers = 0);

    /**
     * Run every job and return their results in submission order:
     * runWithPolicy() under the default policy. With @p cache non-null,
     * scenes are built through it (and shared with any other sweep
     * using the same cache); otherwise each job builds its own.
     */
    std::vector<Result<RunResult>> run(std::vector<SweepJob> jobs,
                                       SceneCache *cache = nullptr);

    /**
     * Fault-tolerant execution: per-attempt wall-clock deadlines,
     * bounded exponential-backoff retries for transient failures,
     * quarantine of repeatedly-failing configs, the checkpoint dir
     * (restore, then snapshot every job) and fault injection. Failure
     * Status messages are prefixed "job <index> [<key>]: " (the key
     * carries benchmark, resolution, frame range and config hash) so
     * sweep logs are attributable. A sweep with failures still
     * completes — policy on whether that fails the process lives with
     * the caller (bench binaries: exit nonzero unless --keep-going).
     *
     * Jobs are dealt round-robin onto per-worker deques (one chain of
     * same-config jobs per entry under quarantine); a single worker
     * runs them inline in submission order, the reference order of the
     * determinism tests.
     */
    SweepOutcome runWithPolicy(std::vector<SweepJob> jobs,
                               const SweepPolicy &policy,
                               SceneCache *cache = nullptr);

    unsigned workers() const { return workerCount; }

  private:
    unsigned workerCount;
};

} // namespace libra

#endif // LIBRA_SIM_SWEEP_HH
