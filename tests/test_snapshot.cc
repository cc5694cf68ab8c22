/**
 * @file
 * Snapshot container tests (DESIGN.md §10).
 *
 * Three layers: the writer/reader round-trip (framing, CRCs, sticky
 * errors), the corruption corpus (every damaged image must surface as
 * a recoverable Status — CorruptData or FailedPrecondition — never a
 * crash or a silently-wrong restore), and the runner's fallback
 * contract: a run pointed at a corrupt, truncated or wrong-version
 * snapshot degrades to a cold run whose results are byte-identical to
 * never having checkpointed at all. Plus the checkpoint dir's file
 * discipline: key-named files, atomic writes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "check/fault_injector.hh"
#include "check/snapshot.hh"
#include "common/status.hh"
#include "gpu/gpu_config.hh"
#include "gpu/runner.hh"
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

/** Fresh scratch directory under the build tree. */
std::string
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / ("libra_snap_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** A real snapshot image: render two frames and capture. */
std::vector<std::uint8_t>
captureImage(const Scene &scene, const GpuConfig &cfg)
{
    CheckpointPlan plan;
    plan.captureAfter = std::make_shared<std::vector<std::uint8_t>>();
    plan.captureAfterFrames = 2;
    Result<RunResult> r = runBenchmark(scene, cfg, 2, 0, plan);
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_FALSE(plan.captureAfter->empty());
    return *plan.captureAfter;
}

} // namespace

TEST(SnapshotContainer, WriterReaderRoundTrip)
{
    SnapshotHeader h;
    h.configHash = 0x1122334455667788ull;
    h.warmPrefixHash = 0x99aabbccddeeff00ull;
    h.sceneHash = 42;
    h.firstFrame = 3;
    h.framesDone = 7;

    SnapshotWriter w(h);
    w.beginSection(SnapSection::Result);
    w.putU8(0xab);
    w.putU32(123456u);
    w.putU64(0xdeadbeefcafef00dull);
    w.putDouble(0.3259375);
    w.putBool(true);
    w.putString("counter.name");
    w.endSection();
    w.beginSection(SnapSection::Trace);
    w.putString(""); // empty strings must survive
    w.endSection();
    const std::vector<std::uint8_t> bytes = w.finish();

    Result<SnapshotReader> parsed = SnapshotReader::parse(bytes);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    SnapshotReader r = std::move(*parsed);
    EXPECT_EQ(r.header().configHash, h.configHash);
    EXPECT_EQ(r.header().warmPrefixHash, h.warmPrefixHash);
    EXPECT_EQ(r.header().sceneHash, h.sceneHash);
    EXPECT_EQ(r.header().codeVersion, kSnapshotCodeVersion);
    EXPECT_EQ(r.header().firstFrame, 3u);
    EXPECT_EQ(r.header().framesDone, 7u);

    r.openSection(SnapSection::Result);
    EXPECT_EQ(r.takeU8(), 0xab);
    EXPECT_EQ(r.takeU32(), 123456u);
    EXPECT_EQ(r.takeU64(), 0xdeadbeefcafef00dull);
    EXPECT_EQ(r.takeDouble(), 0.3259375);
    EXPECT_TRUE(r.takeBool());
    EXPECT_EQ(r.takeString(), "counter.name");
    r.closeSection();
    r.openSection(SnapSection::Trace);
    EXPECT_EQ(r.takeString(), "");
    r.closeSection();
    EXPECT_TRUE(r.finish().isOk()) << r.finish().toString();
}

TEST(SnapshotContainer, ReaderErrorsAreSticky)
{
    SnapshotHeader h;
    Result<SnapshotReader> parsed =
        SnapshotReader::parse(SnapshotWriter(h).finish());
    // Zero-section image parses fine; opening a section it doesn't
    // have sticks a CorruptData, and every later take is a zero no-op.
    ASSERT_TRUE(parsed.isOk());
    SnapshotReader r = std::move(*parsed);
    r.openSection(SnapSection::Result);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.takeU64(), 0u);
    EXPECT_EQ(r.takeString(), "");
    EXPECT_EQ(r.finish().code(), ErrorCode::CorruptData);
}

TEST(SnapshotContainer, SectionOrderIsEnforced)
{
    SnapshotHeader h;
    SnapshotWriter w(h);
    w.beginSection(SnapSection::Result);
    w.putU32(1);
    w.endSection();
    w.beginSection(SnapSection::Trace);
    w.putU32(2);
    w.endSection();
    Result<SnapshotReader> parsed =
        SnapshotReader::parse(w.finish());
    ASSERT_TRUE(parsed.isOk());
    SnapshotReader r = std::move(*parsed);
    r.openSection(SnapSection::Trace); // out of order
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::CorruptData);
}

TEST(SnapshotContainer, CorruptionCorpusIsRecoverable)
{
    // Every mangled variant of a real image must come back as a
    // Status, never a crash: that is what lets the runner fall back to
    // a cold run on any damaged checkpoint dir. corruptTrace() is the
    // same corpus generator the .ltrc corruption suite uses; on top of
    // it, truncations at every framing boundary and a sweep of single
    // bit flips through the header region.
    const GpuConfig cfg = smallConfig();
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    const std::vector<std::uint8_t> image = captureImage(scene, cfg);

    std::vector<std::vector<std::uint8_t>> corpus;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        corpus.push_back(corruptTrace(
            image, TraceCorruption::TruncateMidRecord, seed));
        corpus.push_back(
            corruptTrace(image, TraceCorruption::BitFlipHeader, seed));
    }
    for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                  std::size_t{43}, std::size_t{44},
                                  std::size_t{45}, image.size() - 1}) {
        corpus.emplace_back(image.begin(),
                            image.begin()
                                + static_cast<std::ptrdiff_t>(cut));
    }
    for (std::size_t byte = 0; byte < 44 && byte < image.size();
         byte += 5) {
        std::vector<std::uint8_t> flipped = image;
        flipped[byte] ^= 0x10;
        corpus.push_back(std::move(flipped));
    }

    int rejected = 0;
    for (const std::vector<std::uint8_t> &bad : corpus) {
        Result<SnapshotReader> parsed = SnapshotReader::parse(bad);
        if (!parsed.isOk()) {
            EXPECT_EQ(parsed.status().code(), ErrorCode::CorruptData);
            ++rejected;
            continue;
        }
        // Some header flips survive parsing (hash fields carry no
        // CRC by design — they are *keys*); those must then fail the
        // restore's key checks instead. Exercise exactly that path.
        CheckpointPlan plan;
        plan.warmStart = std::make_shared<std::vector<std::uint8_t>>(
            bad);
        Result<RunResult> run =
            runBenchmark(scene, cfg, kFrames, 0, plan);
        ASSERT_TRUE(run.isOk()) << run.status().toString();
    }
    EXPECT_GT(rejected, 0) << "corpus never hit the parse layer";
}

TEST(SnapshotContainer, WrongFormatAndCodeVersionRefused)
{
    const GpuConfig cfg = smallConfig();
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    std::vector<std::uint8_t> image = captureImage(scene, cfg);

    // Bytes 4..7 are the little-endian container format version.
    std::vector<std::uint8_t> bad_format = image;
    bad_format[4] = 0xee;
    Result<SnapshotReader> parsed = SnapshotReader::parse(bad_format);
    ASSERT_FALSE(parsed.isOk());
    EXPECT_EQ(parsed.status().code(), ErrorCode::CorruptData);

    // Bytes 32..35 are the code version: parses (the container is
    // intact) but any restore must refuse it as FailedPrecondition.
    std::vector<std::uint8_t> bad_code = image;
    bad_code[32] = 0xee;
    ASSERT_TRUE(SnapshotReader::parse(bad_code).isOk());
    CheckpointPlan plan;
    plan.warmStart =
        std::make_shared<std::vector<std::uint8_t>>(bad_code);
    Result<RunResult> run = runBenchmark(scene, cfg, kFrames, 0, plan);
    // Falls back to a cold run, which must equal the never-checkpointed
    // reference exactly.
    ASSERT_TRUE(run.isOk()) << run.status().toString();
    Result<RunResult> cold = runBenchmark(scene, cfg, kFrames, 0);
    ASSERT_TRUE(cold.isOk());
    EXPECT_EQ(run->counters, cold->counters);
}

TEST(SnapshotContainer, CorruptDirSnapshotFallsBackToColdRun)
{
    const GpuConfig cfg = smallConfig();
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    const std::string dir = scratchDir("fallback");

    // Write real periodic checkpoints.
    CheckpointPlan writing;
    writing.dir = dir;
    writing.every = 1;
    Result<RunResult> seeded =
        runBenchmark(scene, cfg, kFrames, 0, writing);
    ASSERT_TRUE(seeded.isOk()) << seeded.status().toString();

    // Damage every snapshot file in place.
    std::size_t damaged = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string path = entry.path().string();
        Result<std::vector<std::uint8_t>> bytes =
            readSnapshotFile(path);
        ASSERT_TRUE(bytes.isOk());
        std::vector<std::uint8_t> bad = corruptTrace(
            std::move(*bytes), TraceCorruption::TruncateMidRecord, 5);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bad.data()),
                  static_cast<std::streamsize>(bad.size()));
        ++damaged;
    }
    EXPECT_EQ(damaged, kFrames);

    // A run over the damaged dir must degrade to a cold run with
    // identical results — and never crash.
    CheckpointPlan restoring;
    restoring.dir = dir;
    std::uint32_t restored_frames = 99;
    restoring.framesRestored = &restored_frames;
    Result<RunResult> restored =
        runBenchmark(scene, cfg, kFrames, 0, restoring);
    ASSERT_TRUE(restored.isOk()) << restored.status().toString();
    EXPECT_EQ(restored_frames, 0u);
    EXPECT_EQ(restored->counters, seeded->counters);
    std::filesystem::remove_all(dir);
}

TEST(SnapshotContainer, SceneHashIsStable)
{
    // The scene hash keys snapshots across processes; it must be a
    // pure function of (benchmark, resolution).
    const std::uint64_t a = snapshotSceneHash("CCS", 128, 64);
    EXPECT_EQ(a, snapshotSceneHash("CCS", 128, 64));
    EXPECT_NE(a, snapshotSceneHash("SuS", 128, 64));
    EXPECT_NE(a, snapshotSceneHash("CCS", 256, 64));
}

TEST(SnapshotContainer, FileNameCarriesTheWholeKey)
{
    const std::string base = snapshotFileName(7, 9, 0, 2);
    EXPECT_EQ(base, "ckpt_0000000000000007_0000000000000009_0_f2.lsnp");
    EXPECT_NE(base, snapshotFileName(8, 9, 0, 2));
    EXPECT_NE(base, snapshotFileName(7, 10, 0, 2));
    EXPECT_NE(base, snapshotFileName(7, 9, 1, 2));
    EXPECT_NE(base, snapshotFileName(7, 9, 0, 3));
    EXPECT_EQ(snapshotFileName(7, 9, 0, 2, true),
              "ckpt_0000000000000007_0000000000000009_0_f2_traced.lsnp");
}

TEST(SnapshotContainer, AtomicWriteLeavesOnlyTheFinalFile)
{
    const std::string dir = scratchDir("atomic");
    const std::string path = dir + "/" + snapshotFileName(1, 2, 0, 1);
    EXPECT_EQ(readSnapshotFile(path).status().code(),
              ErrorCode::NotFound);

    const std::vector<std::uint8_t> first(1000, 0xAB);
    const std::vector<std::uint8_t> second(10, 0xCD);
    ASSERT_TRUE(writeSnapshotFile(path, first).isOk());
    ASSERT_TRUE(writeSnapshotFile(path, second).isOk()); // replace
    Result<std::vector<std::uint8_t>> back = readSnapshotFile(path);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(*back, second);

    // A torn write (the kill@snapshot fault) leaves the published file
    // alone and its half-written bytes only in a temp file.
    tearSnapshotFile(path, first);
    back = readSnapshotFile(path);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(*back, second);
    std::size_t files = 0, temps = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        ++files;
        if (entry.path().filename().string().find(".tmp.")
            != std::string::npos) {
            ++temps;
            EXPECT_EQ(entry.file_size(), first.size() / 2);
        }
    }
    EXPECT_EQ(files, 2u);
    EXPECT_EQ(temps, 1u);
    std::filesystem::remove_all(dir);
}
