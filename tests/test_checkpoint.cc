/**
 * @file
 * Checkpoint restore-contract tests (DESIGN.md §10).
 *
 * The contract under test is byte-identity: a run restored from a
 * frame-F snapshot must finish with counter dumps, RunReports and
 * Chrome traces identical to the uninterrupted run, with and without an
 * armed fault plan. On top sit the sweep-layer behaviors: warm-prefix
 * forking of threshold sweeps (fig19-style), and the checkpoint dir as
 * the sweep's result store — final and periodic snapshots, automatic
 * restore, and the kill-mid-sweep → re-run round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "check/fault_injector.hh"
#include "check/snapshot.hh"
#include "gpu/gpu_config.hh"
#include "gpu/runner.hh"
#include "sim/sweep.hh"
#include "trace/json.hh"
#include "trace/run_report.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

using namespace libra;

namespace
{

constexpr std::uint32_t kWidth = 128;
constexpr std::uint32_t kHeight = 64;
constexpr std::uint32_t kFrames = 4;

GpuConfig
smallConfig()
{
    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.screenWidth = kWidth;
    cfg.screenHeight = kHeight;
    return cfg;
}

std::string
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / ("libra_ckpt_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** Names of the regular files in @p dir, sorted. */
std::vector<std::string>
filesIn(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

/** File name of @p cfg's CCS snapshot after @p done frames. */
std::string
ccsSnapshot(const GpuConfig &cfg, std::uint32_t done,
            std::uint32_t first = 0)
{
    return snapshotFileName(cfg.configHash(),
                            snapshotSceneHash("CCS", kWidth, kHeight),
                            first, done);
}

/** Render @p prefix frames and return the captured snapshot image. */
std::shared_ptr<std::vector<std::uint8_t>>
capturePrefix(const Scene &scene, const GpuConfig &cfg,
              std::uint32_t prefix)
{
    CheckpointPlan plan;
    plan.captureAfter = std::make_shared<std::vector<std::uint8_t>>();
    plan.captureAfterFrames = prefix;
    Result<RunResult> r = runBenchmark(scene, cfg, prefix, 0, plan);
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_FALSE(plan.captureAfter->empty());
    return plan.captureAfter;
}

/** Fork a full run from @p image. */
RunResult
forkFrom(const Scene &scene, const GpuConfig &cfg,
         std::shared_ptr<std::vector<std::uint8_t>> image)
{
    CheckpointPlan plan;
    plan.warmStart = std::move(image);
    Result<RunResult> r = runBenchmark(scene, cfg, kFrames, 0, plan);
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    return std::move(*r);
}

} // namespace

TEST(Checkpoint, ForkVsColdByteIdentical)
{
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    GpuConfig cfg = smallConfig();
    cfg.traceEvents = true;

    Result<RunResult> cold = runBenchmark(scene, cfg, kFrames, 0);
    ASSERT_TRUE(cold.isOk()) << cold.status().toString();

    for (std::uint32_t ckpt = 1; ckpt < kFrames; ++ckpt) {
        const RunResult forked =
            forkFrom(scene, cfg, capturePrefix(scene, cfg, ckpt));
        // Byte identity at every level: full counter dump, serialized
        // report, Chrome trace export.
        EXPECT_EQ(forked.counters, cold->counters) << "ckpt=" << ckpt;
        EXPECT_EQ(runReportJson(forked), runReportJson(*cold))
            << "ckpt=" << ckpt;
        ASSERT_NE(forked.trace, nullptr);
        ASSERT_NE(cold->trace, nullptr);
        EXPECT_EQ(forked.trace->chromeTraceJson(),
                  cold->trace->chromeTraceJson())
            << "ckpt=" << ckpt;
    }
}

TEST(Checkpoint, WarmPrefixHashAcceptsThresholdVariants)
{
    // The whole point of warm-prefix forking: a snapshot captured
    // under one threshold setting restores into a run whose config
    // differs only in the thresholds — and the result equals that
    // run's own cold execution.
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    GpuConfig donor = smallConfig();
    donor.sched.resizeThreshold = 0.0025;
    GpuConfig variant = smallConfig();
    variant.sched.resizeThreshold = 0.05;
    ASSERT_NE(donor.configHash(), variant.configHash());
    ASSERT_EQ(donor.warmPrefixHash(), variant.warmPrefixHash());

    const auto image = capturePrefix(scene, donor, 2);
    const RunResult forked = forkFrom(scene, variant, image);
    Result<RunResult> cold = runBenchmark(scene, variant, kFrames, 0);
    ASSERT_TRUE(cold.isOk()) << cold.status().toString();
    EXPECT_EQ(forked.counters, cold->counters);

    // A config differing in *machine shape* must be refused (and fall
    // back cold) — warmPrefixHash covers thresholds only.
    GpuConfig other = smallConfig();
    other.sched.policy = SchedulerPolicy::Scanline;
    ASSERT_NE(other.warmPrefixHash(), donor.warmPrefixHash());
    const RunResult fallback = forkFrom(scene, other, image);
    Result<RunResult> other_cold =
        runBenchmark(scene, other, kFrames, 0);
    ASSERT_TRUE(other_cold.isOk());
    EXPECT_EQ(fallback.counters, other_cold->counters);
}

TEST(Checkpoint, RestoreUnderFaultsIsDeterministic)
{
    // checkpoint x fault-injection interplay: with a fault plan armed
    // on the resumed frames, the same restore run twice must be
    // byte-identical (the injected faults and the restored starting
    // state together stay a pure function of plan, config and image).
    Result<FaultPlan> plan = FaultPlan::parse(
        "seed=7;dropfill:l2@every=64;dramstall@every=256,ticks=120");
    ASSERT_TRUE(plan.isOk()) << plan.status().toString();
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    const GpuConfig cfg = smallConfig();
    // The snapshot is captured fault-free (the quiesced prefix).
    const auto image = capturePrefix(scene, cfg, 2);

    const auto run_restored = [&](bool armed) {
        GpuConfig resumed = cfg;
        if (armed)
            resumed.faults = std::make_shared<FaultInjector>(*plan, 0);
        CheckpointPlan restore;
        restore.warmStart = image;
        Result<RunResult> r =
            runBenchmark(scene, resumed, kFrames, 0, restore);
        EXPECT_TRUE(r.isOk()) << r.status().toString();
        return std::move(*r);
    };

    const RunResult first = run_restored(true);
    const RunResult second = run_restored(true);
    EXPECT_EQ(first.counters, second.counters);
    EXPECT_EQ(runReportJson(first), runReportJson(second));
    // The plan really fired on the resumed frames.
    EXPECT_NE(first.counters, run_restored(false).counters);
}

TEST(Checkpoint, WarmPrefixSweepMatchesColdSweepAndCountsForks)
{
    // A fig19-style threshold sweep forked from one shared warm
    // prefix must produce exactly the cold sweep's results, and the
    // outcome must report every group member as forked.
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    std::vector<SweepJob> jobs;
    for (const double thr : {0.0, 0.0025, 0.01, 0.05}) {
        GpuConfig cfg = smallConfig();
        cfg.sched.resizeThreshold = thr;
        jobs.push_back(SweepJob{&ccs, cfg, kFrames, 0});
    }
    // A singleton job (different benchmark) must not join any group.
    const BenchmarkSpec &sus = findBenchmark("SuS");
    jobs.push_back(SweepJob{&sus, smallConfig(), kFrames, 0});

    SweepRunner pool(2);
    SceneCache cache;
    SweepOutcome cold =
        pool.runWithPolicy(jobs, SweepPolicy{}, &cache);
    SweepPolicy warm_policy;
    warm_policy.checkpoint.warmPrefixFrames = 2;
    SweepOutcome warm = pool.runWithPolicy(jobs, warm_policy, &cache);

    ASSERT_EQ(cold.jobs.size(), warm.jobs.size());
    EXPECT_EQ(warm.warmPrefixForks, 4u);
    EXPECT_EQ(cold.warmPrefixForks, 0u);
    for (std::size_t i = 0; i < cold.jobs.size(); ++i) {
        ASSERT_TRUE(cold.jobs[i].result.isOk())
            << cold.jobs[i].result.status().toString();
        ASSERT_TRUE(warm.jobs[i].result.isOk())
            << warm.jobs[i].result.status().toString();
        EXPECT_EQ(cold.jobs[i].result->counters,
                  warm.jobs[i].result->counters)
            << "job " << i;
        EXPECT_EQ(runReportJson(*cold.jobs[i].result),
                  runReportJson(*warm.jobs[i].result))
            << "job " << i;
    }
}

TEST(Checkpoint, WarmPrefixForkingDisabledUnderFaultPlan)
{
    // Injected faults are positional; forking would change what each
    // job observes, so an armed plan must turn forking off while the
    // sweep still completes deterministically.
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    std::vector<SweepJob> jobs;
    for (const double thr : {0.0, 0.05}) {
        GpuConfig cfg = smallConfig();
        cfg.sched.resizeThreshold = thr;
        jobs.push_back(SweepJob{&ccs, cfg, kFrames, 0});
    }
    SweepPolicy policy;
    policy.checkpoint.warmPrefixFrames = 2;
    Result<FaultPlan> plan =
        FaultPlan::parse("seed=3;dropfill:l2@every=128");
    ASSERT_TRUE(plan.isOk());
    policy.faults = *plan;

    SweepRunner pool(2);
    SceneCache cache;
    SweepOutcome out = pool.runWithPolicy(jobs, policy, &cache);
    EXPECT_EQ(out.warmPrefixForks, 0u);
    for (const JobOutcome &o : out.jobs)
        ASSERT_TRUE(o.result.isOk()) << o.result.status().toString();
}

TEST(Checkpoint, KillMidRunResumesFromFreshestSnapshot)
{
    // The CI round trip in miniature: a run dies mid-way (simulated by
    // only rendering a prefix), a second invocation against the same
    // dir restores from its freshest snapshot and must finish with the
    // uninterrupted run's exact results.
    const GpuConfig cfg = smallConfig();
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    const std::string dir = scratchDir("resume");

    Result<RunResult> cold = runBenchmark(scene, cfg, kFrames, 0);
    ASSERT_TRUE(cold.isOk());

    // "Killed" after 3 of 4 frames, checkpointing every frame.
    CheckpointPlan writing;
    writing.dir = dir;
    writing.every = 1;
    Result<RunResult> partial =
        runBenchmark(scene, cfg, 3, 0, writing);
    ASSERT_TRUE(partial.isOk()) << partial.status().toString();
    EXPECT_EQ(filesIn(dir),
              (std::vector<std::string>{ccsSnapshot(cfg, 1),
                                        ccsSnapshot(cfg, 2),
                                        ccsSnapshot(cfg, 3)}));

    CheckpointPlan resume;
    resume.dir = dir;
    std::uint32_t restored_frames = 0;
    resume.framesRestored = &restored_frames;
    Result<RunResult> resumed =
        runBenchmark(scene, cfg, kFrames, 0, resume);
    ASSERT_TRUE(resumed.isOk()) << resumed.status().toString();
    EXPECT_EQ(restored_frames, 3u);
    EXPECT_EQ(resumed->counters, cold->counters);
    EXPECT_EQ(runReportJson(*resumed), runReportJson(*cold));
    std::filesystem::remove_all(dir);
}

TEST(Checkpoint, PeriodicWritesRespectEveryAndIncludeFinalFrame)
{
    const GpuConfig cfg = smallConfig();
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    const std::string dir = scratchDir("every");

    CheckpointPlan plan;
    plan.dir = dir;
    plan.every = 3;
    Result<RunResult> r = runBenchmark(scene, cfg, kFrames, 0, plan);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    // 4 frames, every 3: frame 3 is periodic, frame 4 is final.
    EXPECT_EQ(filesIn(dir),
              (std::vector<std::string>{ccsSnapshot(cfg, 3),
                                        ccsSnapshot(cfg, 4)}));

    // Without `every`, only the final snapshot is written.
    const std::string final_only = scratchDir("final_only");
    plan.dir = final_only;
    plan.every = 0;
    ASSERT_TRUE(runBenchmark(scene, cfg, kFrames, 0, plan).isOk());
    EXPECT_EQ(filesIn(final_only),
              (std::vector<std::string>{ccsSnapshot(cfg, kFrames)}));
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(final_only);
}

TEST(Checkpoint, RunResultJsonRoundTripIsExact)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    GpuConfig cfg = smallConfig();
    cfg.captureImage = true; // exercise the image-hash path too
    Result<RunResult> r = runBenchmark(ccs, cfg, 2);
    ASSERT_TRUE(r.isOk()) << r.status().toString();

    JsonWriter w1;
    runResultToJson(w1, *r);
    const std::string first = w1.str();

    Result<JsonValue> parsed = parseJson(first);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    Result<RunResult> back = runResultFromJson(*parsed);
    ASSERT_TRUE(back.isOk()) << back.status().toString();

    // Exact fidelity: serializing the deserialized result reproduces
    // the document byte for byte (u64 counters, %.17g doubles, image
    // hashes — nothing may lose precision through a snapshot).
    JsonWriter w2;
    runResultToJson(w2, *back);
    EXPECT_EQ(first, w2.str());
    EXPECT_EQ(r->counters, back->counters);
    ASSERT_EQ(r->frames.size(), back->frames.size());
    EXPECT_EQ(r->frames[1].totalCycles, back->frames[1].totalCycles);
}

namespace
{

/** Three small CCS jobs (baseline, PTR, LIBRA), two frames each. */
std::vector<SweepJob>
storeJobs(const BenchmarkSpec &ccs)
{
    std::vector<SweepJob> jobs;
    for (GpuConfig cfg : {GpuConfig::baseline(8), GpuConfig::ptr(2, 4),
                          GpuConfig::libra(2, 4)}) {
        cfg.screenWidth = kWidth;
        cfg.screenHeight = kHeight;
        jobs.push_back(SweepJob{&ccs, cfg, 2, 0});
    }
    return jobs;
}

SweepPolicy
storePolicy(const std::string &dir)
{
    SweepPolicy policy;
    policy.checkpoint.dir = dir;
    return policy;
}

/** Report-set document of a SweepOutcome, the way the benches build
 *  it: completed runs in order plus the failures section. */
std::string
outcomeReport(const std::vector<SweepJob> &jobs,
              const SweepOutcome &outcome)
{
    std::vector<RunResult> runs;
    std::vector<ReportFailure> failures;
    for (std::size_t i = 0; i < outcome.jobs.size(); ++i) {
        const JobOutcome &o = outcome.jobs[i];
        if (o.result.isOk()) {
            runs.push_back(*o.result);
            continue;
        }
        const Status &st = o.result.status();
        failures.push_back({i, sweepJobKey(jobs[i]),
                            errorCodeName(st.code()),
                            std::string(st.message()), o.attempts,
                            o.quarantined, o.notRun});
    }
    return sweepReportJson(runs, failures);
}

} // namespace

TEST(CheckpointDir, KillAndResumeReportIsByteIdentical)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    const std::string dir = scratchDir("kill");

    // Reference: the same sweep, never interrupted, no checkpoint dir.
    SweepRunner pool(1); // deterministic execution order for the kill
    SceneCache cache;
    const std::string reference = outcomeReport(
        storeJobs(ccs),
        pool.runWithPolicy(storeJobs(ccs), SweepPolicy{}, &cache));

    // The "process" dies during the second snapshot write: job 0's
    // final snapshot is durable, job 1's is a torn temp file, job 2
    // never starts.
    SweepPolicy dying = storePolicy(dir);
    Result<FaultPlan> plan = FaultPlan::parse("kill@snapshot=2");
    ASSERT_TRUE(plan.isOk());
    dying.faults = *plan;
    SweepOutcome crashed =
        pool.runWithPolicy(storeJobs(ccs), dying, &cache);
    EXPECT_TRUE(crashed.killed);
    EXPECT_EQ(crashed.failureCount(), 1u);
    ASSERT_TRUE(crashed.jobs[0].result.isOk());
    EXPECT_TRUE(crashed.jobs[2].notRun);
    const std::string durable = ccsSnapshot(storeJobs(ccs)[0].config, 2);
    const std::string torn =
        ccsSnapshot(storeJobs(ccs)[1].config, 2) + ".tmp.";
    const std::vector<std::string> left = filesIn(dir);
    ASSERT_EQ(left.size(), 2u);
    EXPECT_EQ(std::count(left.begin(), left.end(), durable), 1);
    EXPECT_EQ(std::count_if(left.begin(), left.end(),
                            [&](const std::string &name) {
                                return name.rfind(torn, 0) == 0;
                            }),
              1);

    // Re-run without faults: job 0 restores whole, the torn write is
    // ignored, and the report is byte-identical to the uninterrupted
    // run.
    SweepOutcome resumed =
        pool.runWithPolicy(storeJobs(ccs), storePolicy(dir), &cache);
    EXPECT_FALSE(resumed.killed);
    EXPECT_EQ(resumed.restoredWhole, 1u);
    EXPECT_EQ(resumed.jobs[0].framesRestored, 2u);
    EXPECT_EQ(resumed.jobs[1].framesRestored, 0u);
    EXPECT_EQ(resumed.failureCount(), 0u);
    EXPECT_EQ(outcomeReport(storeJobs(ccs), resumed), reference);

    // A third run finds every job finished.
    SweepOutcome again =
        pool.runWithPolicy(storeJobs(ccs), storePolicy(dir), &cache);
    EXPECT_EQ(again.restoredWhole, 3u);
    EXPECT_EQ(outcomeReport(storeJobs(ccs), again), reference);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointDir, JobsDifferingOnlyInFirstFrameBothRestore)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    const std::string dir = scratchDir("first_frame");
    std::vector<SweepJob> jobs;
    jobs.push_back(SweepJob{&ccs, smallConfig(), 2, 0});
    jobs.push_back(SweepJob{&ccs, smallConfig(), 2, 1});

    SweepRunner pool(2);
    SceneCache cache;
    SweepOutcome first = pool.runWithPolicy(jobs, storePolicy(dir), &cache);
    ASSERT_EQ(first.failureCount(), 0u);
    EXPECT_EQ(first.restoredWhole, 0u);
    EXPECT_EQ(filesIn(dir).size(), 2u);

    SweepOutcome second =
        pool.runWithPolicy(jobs, storePolicy(dir), &cache);
    EXPECT_EQ(second.restoredWhole, 2u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(second.jobs[i].result.isOk());
        EXPECT_EQ(runReportJson(*first.jobs[i].result),
                  runReportJson(*second.jobs[i].result))
            << "job " << i;
    }
    std::filesystem::remove_all(dir);
}

TEST(CheckpointDir, StrayTempOrTruncatedSnapshotColdRunsOnlyItsJob)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    const std::string dir = scratchDir("damaged");
    const std::vector<SweepJob> jobs = storeJobs(ccs);

    SweepRunner pool(3);
    SceneCache cache;
    SweepOutcome first = pool.runWithPolicy(jobs, storePolicy(dir), &cache);
    ASSERT_EQ(first.failureCount(), 0u);

    // Job 0: its final snapshot only ever reached a temp file (a crash
    // before the rename). Job 1: a truncated final snapshot.
    const std::filesystem::path snap0 =
        std::filesystem::path(dir) / ccsSnapshot(jobs[0].config, 2);
    std::filesystem::rename(snap0, snap0.string() + ".tmp.1.0");
    const std::filesystem::path snap1 =
        std::filesystem::path(dir) / ccsSnapshot(jobs[1].config, 2);
    std::filesystem::resize_file(
        snap1, std::filesystem::file_size(snap1) / 2);

    SweepOutcome second =
        pool.runWithPolicy(jobs, storePolicy(dir), &cache);
    EXPECT_EQ(second.failureCount(), 0u);
    EXPECT_EQ(second.restoredWhole, 1u);
    EXPECT_EQ(second.jobs[0].framesRestored, 0u);
    EXPECT_EQ(second.jobs[1].framesRestored, 0u);
    EXPECT_EQ(second.jobs[2].framesRestored, 2u);
    EXPECT_EQ(outcomeReport(jobs, second), outcomeReport(jobs, first));
    std::filesystem::remove_all(dir);
}

TEST(CheckpointDir, WarmPrefixRerunRestoresEveryJobAndForksNone)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    const std::string dir = scratchDir("warm");
    std::vector<SweepJob> jobs;
    for (const double thr : {0.0, 0.0025, 0.01, 0.05}) {
        GpuConfig cfg = smallConfig();
        cfg.sched.resizeThreshold = thr;
        jobs.push_back(SweepJob{&ccs, cfg, kFrames, 0});
    }

    SweepRunner pool(2);
    SceneCache cache;
    SweepPolicy policy = storePolicy(dir);
    policy.checkpoint.warmPrefixFrames = 2;
    SweepOutcome first = pool.runWithPolicy(jobs, policy, &cache);
    ASSERT_EQ(first.failureCount(), 0u);
    EXPECT_EQ(first.warmPrefixForks, 4u);
    EXPECT_EQ(first.restoredWhole, 0u);

    SweepOutcome second = pool.runWithPolicy(jobs, policy, &cache);
    EXPECT_EQ(second.warmPrefixForks, 0u);
    EXPECT_EQ(second.restoredWhole, 4u);
    EXPECT_EQ(outcomeReport(jobs, second), outcomeReport(jobs, first));
    std::filesystem::remove_all(dir);
}

TEST(CheckpointDir, TracedAndUntracedRunsKeepSeparateSnapshots)
{
    // One job, re-run against one dir with the trace flag alternating.
    // The trace flag is part of the key: each run restores from, and
    // writes, only snapshots of its own kind, so every re-run restores
    // whole and the two kinds never overwrite each other.
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    const std::string dir = scratchDir("traced");
    GpuConfig untraced = smallConfig();
    GpuConfig traced = untraced;
    traced.traceEvents = true;
    auto job = [&](const GpuConfig &cfg) {
        return std::vector<SweepJob>{SweepJob{&ccs, cfg, 2, 0}};
    };
    SweepRunner pool(1);
    SceneCache cache;

    SweepOutcome u1 =
        pool.runWithPolicy(job(untraced), storePolicy(dir), &cache);
    ASSERT_EQ(u1.failureCount(), 0u);
    EXPECT_EQ(u1.restoredWhole, 0u);
    SweepOutcome t1 =
        pool.runWithPolicy(job(traced), storePolicy(dir), &cache);
    ASSERT_EQ(t1.failureCount(), 0u);
    EXPECT_EQ(t1.restoredWhole, 0u);
    ASSERT_TRUE(t1.jobs[0].result->trace);
    EXPECT_EQ(filesIn(dir),
              (std::vector<std::string>{ccsSnapshot(untraced, 2),
                                        snapshotFileName(
                                            traced.configHash(),
                                            snapshotSceneHash("CCS", kWidth,
                                                              kHeight),
                                            0, 2, true)}));

    SweepOutcome u2 =
        pool.runWithPolicy(job(untraced), storePolicy(dir), &cache);
    EXPECT_EQ(u2.restoredWhole, 1u);
    EXPECT_EQ(outcomeReport(job(untraced), u2),
              outcomeReport(job(untraced), u1));
    EXPECT_FALSE(u2.jobs[0].result->trace);

    SweepOutcome t2 =
        pool.runWithPolicy(job(traced), storePolicy(dir), &cache);
    EXPECT_EQ(t2.restoredWhole, 1u);
    EXPECT_EQ(outcomeReport(job(traced), t2),
              outcomeReport(job(traced), t1));
    ASSERT_TRUE(t2.jobs[0].result->trace);
    EXPECT_EQ(t2.jobs[0].result->trace->chromeTraceJson(),
              t1.jobs[0].result->trace->chromeTraceJson());
    std::filesystem::remove_all(dir);
}

TEST(CheckpointDir, DeadWritersTempFilesAreRemovedLiveOnesKept)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    const std::string dir = scratchDir("stray");
    const GpuConfig cfg = smallConfig();
    const std::string snap = ccsSnapshot(cfg, 2);
    const std::string own_pid = std::to_string(::getpid());
    // 2147483647 is above any pid_max, so no process has it; pid 1
    // (init) is always alive.
    const std::vector<std::string> dead = {
        snap + ".tmp.2147483647.0",
        "ckpt_0000000000000001_0000000000000002_0_f1.lsnp.tmp.2147483647.7",
    };
    const std::vector<std::string> kept = {
        snap + ".tmp." + own_pid + ".3", // this process: a live writer
        snap + ".tmp.1.0",               // alive
        snap + ".tmp.0.0",               // not a pid
        snap + ".tmp.-5.0",              // not a pid
        snap + ".tmp.2147483647",        // no serial
        snap + ".tmp.2147483647.x",      // malformed serial
        "notes.tmp.2147483647.0",        // not a snapshot temp
    };
    for (const std::vector<std::string> *names : {&dead, &kept}) {
        for (const std::string &name : *names) {
            std::FILE *f = std::fopen((dir + "/" + name).c_str(), "wb");
            ASSERT_NE(f, nullptr) << name;
            std::fputs("partial", f);
            std::fclose(f);
        }
    }
    EXPECT_EQ(removeDeadWritersTempFiles(dir), dead.size());
    std::vector<std::string> expect = kept;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(filesIn(dir), expect);

    // A run against the dir sweeps them too, then writes its snapshot.
    for (const std::string &name : dead) {
        std::FILE *f = std::fopen((dir + "/" + name).c_str(), "wb");
        ASSERT_NE(f, nullptr) << name;
        std::fclose(f);
    }
    const Scene scene(ccs, kWidth, kHeight);
    CheckpointPlan plan;
    plan.dir = dir;
    ASSERT_TRUE(runBenchmark(scene, cfg, 2, 0, plan).isOk());
    expect.push_back(snap);
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(filesIn(dir), expect);
    std::filesystem::remove_all(dir);
}
