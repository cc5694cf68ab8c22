/**
 * @file
 * Fault-tolerant sweep execution (SweepRunner::runWithPolicy):
 * default-policy equivalence with run(), attributed failure messages,
 * transient-failure retries, wall-clock deadlines and quarantine. The
 * checkpoint dir and its kill-and-resume round trip are covered in
 * test_checkpoint.cc.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/fault_injector.hh"
#include "gpu/gpu_config.hh"
#include "sim/sweep.hh"
#include "trace/run_report.hh"
#include "workload/benchmarks.hh"

using namespace libra;

namespace
{

constexpr std::uint32_t kWidth = 256;
constexpr std::uint32_t kHeight = 128;

GpuConfig
smallConfig(GpuConfig cfg)
{
    cfg.screenWidth = kWidth;
    cfg.screenHeight = kHeight;
    return cfg;
}

std::vector<SweepJob>
smallJobs(const BenchmarkSpec &ccs, std::size_t count = 3)
{
    std::vector<SweepJob> jobs;
    jobs.push_back({&ccs, smallConfig(GpuConfig::baseline(8)), 2, 0});
    if (count > 1)
        jobs.push_back({&ccs, smallConfig(GpuConfig::ptr(2, 4)), 2, 0});
    if (count > 2)
        jobs.push_back(
            {&ccs, smallConfig(GpuConfig::libra(2, 4)), 2, 0});
    return jobs;
}

} // namespace

TEST(SweepPolicy, DefaultPolicyMatchesPlainRun)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");

    SweepRunner pool(4);
    SceneCache cache_a, cache_b;
    std::vector<Result<RunResult>> plain =
        pool.run(smallJobs(ccs), &cache_a);
    SweepOutcome policied =
        pool.runWithPolicy(smallJobs(ccs), SweepPolicy{}, &cache_b);

    ASSERT_EQ(plain.size(), policied.jobs.size());
    EXPECT_FALSE(policied.killed);
    EXPECT_EQ(policied.restoredWhole, 0u);
    EXPECT_EQ(policied.failureCount(), 0u);
    for (std::size_t i = 0; i < plain.size(); ++i) {
        ASSERT_TRUE(plain[i].isOk());
        ASSERT_TRUE(policied.jobs[i].result.isOk());
        EXPECT_EQ(policied.jobs[i].attempts, 1u);
        EXPECT_EQ(policied.jobs[i].framesRestored, 0u);
        // Byte-identical results, not merely statistically close.
        EXPECT_EQ(runReportJson(*plain[i]),
                  runReportJson(*policied.jobs[i].result));
    }
}

TEST(SweepPolicy, FailureMessagesAreAttributed)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    std::vector<SweepJob> jobs = smallJobs(ccs, 1);
    jobs[0].config.rasterUnits = 0; // fails config validation
    const std::string key = sweepJobKey(jobs[0]);

    SweepRunner pool(1);
    SweepOutcome out = pool.runWithPolicy(std::move(jobs),
                                          SweepPolicy{});
    ASSERT_EQ(out.jobs.size(), 1u);
    ASSERT_FALSE(out.jobs[0].result.isOk());
    const std::string msg(out.jobs[0].result.status().message());
    EXPECT_EQ(msg.rfind("job 0 [" + key + "]: ", 0), 0u) << msg;
    // The key carries benchmark, resolution and the config hash.
    EXPECT_NE(key.find("CCS"), std::string::npos);
    EXPECT_NE(key.find("256x128"), std::string::npos);
    EXPECT_NE(key.find(":cfg:"), std::string::npos);
}

TEST(SweepPolicy, InjectedTransientFailureRetriesToSuccess)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");

    SweepPolicy policy;
    policy.maxRetries = 2;
    policy.backoffMs = 0; // keep the test fast
    Result<FaultPlan> plan = FaultPlan::parse("transient@job=1,count=2");
    ASSERT_TRUE(plan.isOk());
    policy.faults = *plan;

    SweepRunner pool(2);
    SceneCache cache, cache_ref;
    SweepOutcome out =
        pool.runWithPolicy(smallJobs(ccs), policy, &cache);
    ASSERT_EQ(out.jobs.size(), 3u);
    EXPECT_EQ(out.failureCount(), 0u);
    EXPECT_EQ(out.jobs[0].attempts, 1u);
    EXPECT_EQ(out.jobs[1].attempts, 3u); // 2 injected failures + 1 ok
    EXPECT_EQ(out.jobs[2].attempts, 1u);

    // Sweep-layer faults never perturb the simulation: results are
    // byte-identical to a fault-free sweep.
    std::vector<Result<RunResult>> ref =
        pool.run(smallJobs(ccs), &cache_ref);
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_TRUE(ref[i].isOk());
        EXPECT_EQ(runReportJson(*ref[i]),
                  runReportJson(*out.jobs[i].result));
    }
}

TEST(SweepPolicy, TransientFailureWithoutRetriesIsReported)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");

    SweepPolicy policy; // maxRetries = 0
    Result<FaultPlan> plan = FaultPlan::parse("transient@job=0,count=1");
    ASSERT_TRUE(plan.isOk());
    policy.faults = *plan;

    SweepRunner pool(1);
    SweepOutcome out = pool.runWithPolicy(smallJobs(ccs, 1), policy);
    ASSERT_EQ(out.jobs.size(), 1u);
    ASSERT_FALSE(out.jobs[0].result.isOk());
    const Status &st = out.jobs[0].result.status();
    EXPECT_EQ(st.code(), ErrorCode::Unavailable);
    EXPECT_TRUE(isTransientFailure(st.code()));
    EXPECT_NE(std::string(st.message()).find(
                  "injected transient failure"),
              std::string::npos);
    EXPECT_EQ(out.jobs[0].attempts, 1u);
}

TEST(SweepPolicy, ExpiredDeadlineAbortsWithDeadlineExceeded)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");

    SweepPolicy policy;
    policy.deadlineMs = 1; // expires before the event loop's first poll

    SweepRunner pool(1);
    SweepOutcome out = pool.runWithPolicy(smallJobs(ccs, 1), policy);
    ASSERT_EQ(out.jobs.size(), 1u);
    ASSERT_FALSE(out.jobs[0].result.isOk());
    EXPECT_EQ(out.jobs[0].result.status().code(),
              ErrorCode::DeadlineExceeded);
    EXPECT_TRUE(
        isTransientFailure(out.jobs[0].result.status().code()));
}

TEST(SweepPolicy, QuarantineFastFailsRepeatOffenders)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");

    GpuConfig bad = smallConfig(GpuConfig::baseline(8));
    bad.rasterUnits = 0;
    std::vector<SweepJob> jobs;
    jobs.push_back({&ccs, bad, 2, 0});
    jobs.push_back({&ccs, bad, 2, 0}); // same config hash
    jobs.push_back({&ccs, smallConfig(GpuConfig::libra(2, 4)), 2, 0});

    SweepPolicy policy;
    policy.quarantineThreshold = 1;

    SweepRunner pool(4);
    SweepOutcome out = pool.runWithPolicy(std::move(jobs), policy);
    ASSERT_EQ(out.jobs.size(), 3u);

    ASSERT_FALSE(out.jobs[0].result.isOk());
    EXPECT_FALSE(out.jobs[0].quarantined);
    EXPECT_EQ(out.jobs[0].result.status().code(),
              ErrorCode::InvalidArgument);

    ASSERT_FALSE(out.jobs[1].result.isOk());
    EXPECT_TRUE(out.jobs[1].quarantined);
    EXPECT_EQ(out.jobs[1].result.status().code(),
              ErrorCode::FailedPrecondition);
    EXPECT_NE(std::string(out.jobs[1].result.status().message())
                  .find("quarantined"),
              std::string::npos);

    // An unrelated config is untouched by the quarantine.
    EXPECT_TRUE(out.jobs[2].result.isOk());
}
