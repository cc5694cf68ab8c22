#include "gpu/runner.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <utility>

#include "check/snapshot.hh"
#include "common/log.hh"
#include "trace/json.hh"

namespace libra
{

std::uint64_t
RunResult::totalCycles() const
{
    std::uint64_t total = 0;
    for (const auto &fs : frames)
        total += fs.totalCycles;
    return total;
}

std::uint64_t
RunResult::totalRasterCycles() const
{
    std::uint64_t total = 0;
    for (const auto &fs : frames)
        total += fs.rasterCycles;
    return total;
}

std::uint64_t
RunResult::totalGeomCycles() const
{
    std::uint64_t total = 0;
    for (const auto &fs : frames)
        total += fs.geomCycles;
    return total;
}

std::uint64_t
RunResult::dramAccesses() const
{
    std::uint64_t total = 0;
    for (const auto &fs : frames)
        total += fs.dramReads + fs.dramWrites;
    return total;
}

std::uint64_t
RunResult::textureRequests() const
{
    std::uint64_t total = 0;
    for (const auto &fs : frames)
        total += fs.textureRequests;
    return total;
}

double
RunResult::avgTextureLatency() const
{
    double weighted = 0.0;
    std::uint64_t reqs = 0;
    for (const auto &fs : frames) {
        weighted += fs.avgTextureLatency
            * static_cast<double>(fs.textureRequests);
        reqs += fs.textureRequests;
    }
    return reqs == 0 ? 0.0 : weighted / static_cast<double>(reqs);
}

double
RunResult::textureHitRatio() const
{
    std::uint64_t misses = 0;
    std::uint64_t accesses = 0;
    for (const auto &fs : frames) {
        misses += fs.textureMisses;
        accesses += fs.textureL1Accesses;
    }
    if (accesses == 0)
        return 1.0;
    return 1.0
        - static_cast<double>(misses) / static_cast<double>(accesses);
}

double
RunResult::avgDramReadLatency() const
{
    double weighted = 0.0;
    std::uint64_t reads = 0;
    for (const auto &fs : frames) {
        weighted += fs.avgDramReadLatency
            * static_cast<double>(fs.dramReads);
        reads += fs.dramReads;
    }
    return reads == 0 ? 0.0 : weighted / static_cast<double>(reads);
}

double
RunResult::totalEnergyMj() const
{
    double total = 0.0;
    for (const auto &fs : frames)
        total += fs.energy.totalMj;
    return total;
}

double
RunResult::avgReplicationRatio() const
{
    if (frames.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &fs : frames)
        total += fs.replicationRatio;
    return total / static_cast<double>(frames.size());
}

double
RunResult::fps(double clock_hz) const
{
    const std::uint64_t cycles = totalCycles();
    if (cycles == 0 || frames.empty())
        return 0.0;
    const double seconds = static_cast<double>(cycles) / clock_hz;
    return static_cast<double>(frames.size()) / seconds;
}

namespace
{

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

Result<std::uint64_t>
hexU64(const std::string &text, const char *what)
{
    std::uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(
        text.data(), text.data() + text.size(), value, 16);
    if (ec != std::errc() || ptr != text.data() + text.size()
        || text.empty()) {
        return Status::error(ErrorCode::CorruptData, "run result: bad hex ",
                             what, ": '", text, "'");
    }
    return value;
}

/** Exact u64 from a JSON number (the parser keeps the raw literal, so
 *  values above 2^53 are not squeezed through a double). */
Result<std::uint64_t>
asU64(const JsonValue *v, const char *what)
{
    if (!v || !v->isNumber()) {
        return Status::error(ErrorCode::CorruptData, "run result: missing ",
                             what);
    }
    if (v->str.find_first_of(".eE+-") != std::string::npos) {
        return Status::error(ErrorCode::CorruptData, "run result: ", what,
                             " is not a non-negative integer: '", v->str,
                             "'");
    }
    std::uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(
        v->str.data(), v->str.data() + v->str.size(), value);
    if (ec != std::errc() || ptr != v->str.data() + v->str.size()) {
        return Status::error(ErrorCode::CorruptData, "run result: bad ",
                             what, ": '", v->str, "'");
    }
    return value;
}

Result<double>
asDouble(const JsonValue *v, const char *what)
{
    if (!v || !v->isNumber()) {
        return Status::error(ErrorCode::CorruptData, "run result: missing ",
                             what);
    }
    return v->number;
}

/** Fetch, narrow and assign helpers so the field lists below stay
 *  one line per field. */
#define RESULT_GET_U64(obj, name, dest)                                  \
    do {                                                                  \
        Result<std::uint64_t> r_ = asU64((obj).find(name), name);         \
        if (!r_.isOk())                                                   \
            return r_.status();                                           \
        dest = *r_;                                                       \
    } while (0)

#define RESULT_GET_U32(obj, name, dest)                                  \
    do {                                                                  \
        Result<std::uint64_t> r_ = asU64((obj).find(name), name);         \
        if (!r_.isOk())                                                   \
            return r_.status();                                           \
        dest = static_cast<std::uint32_t>(*r_);                           \
    } while (0)

#define RESULT_GET_DOUBLE(obj, name, dest)                               \
    do {                                                                  \
        Result<double> r_ = asDouble((obj).find(name), name);             \
        if (!r_.isOk())                                                   \
            return r_.status();                                           \
        dest = *r_;                                                       \
    } while (0)

void
u64Array(JsonWriter &w, const std::vector<std::uint64_t> &values)
{
    w.beginArray();
    for (std::uint64_t v : values)
        w.value(v);
    w.endArray();
}

Result<std::vector<std::uint64_t>>
u64ArrayFrom(const JsonValue *v, const char *what)
{
    if (!v || !v->isArray()) {
        return Status::error(ErrorCode::CorruptData, "run result: missing ",
                             what);
    }
    std::vector<std::uint64_t> out;
    out.reserve(v->items.size());
    for (const JsonValue &item : v->items) {
        Result<std::uint64_t> r = asU64(&item, what);
        if (!r.isOk())
            return r.status();
        out.push_back(*r);
    }
    return out;
}

void
frameToJson(JsonWriter &w, const FrameStats &fs)
{
    w.beginObject();
    w.key("frame_index"); w.value(std::uint64_t(fs.frameIndex));
    w.key("total_cycles"); w.value(std::uint64_t(fs.totalCycles));
    w.key("geom_cycles"); w.value(std::uint64_t(fs.geomCycles));
    w.key("raster_cycles"); w.value(std::uint64_t(fs.rasterCycles));
    w.key("dram_reads"); w.value(fs.dramReads);
    w.key("dram_writes"); w.value(fs.dramWrites);
    w.key("dram_activates"); w.value(fs.dramActivates);
    w.key("avg_dram_read_latency"); w.value(fs.avgDramReadLatency);
    w.key("texture_hit_ratio"); w.value(fs.textureHitRatio);
    w.key("avg_texture_latency"); w.value(fs.avgTextureLatency);
    w.key("texture_requests"); w.value(fs.textureRequests);
    w.key("texture_misses"); w.value(fs.textureMisses);
    w.key("texture_l1_accesses"); w.value(fs.textureL1Accesses);
    w.key("l2_hit_ratio"); w.value(fs.l2HitRatio);
    w.key("replication_ratio"); w.value(fs.replicationRatio);
    w.key("instructions"); w.value(fs.instructions);
    w.key("fragments"); w.value(fs.fragments);
    w.key("warps"); w.value(fs.warps);
    w.key("quads"); w.value(fs.quads);
    w.key("tile_dram"); u64Array(w, fs.tileDram);
    w.key("tile_instr"); u64Array(w, fs.tileInstr);
    w.key("dram_timeline");
    w.beginArray();
    for (std::uint32_t v : fs.dramTimeline)
        w.value(std::uint64_t(v));
    w.endArray();
    w.key("dram_timeline_interval");
    w.value(std::uint64_t(fs.dramTimelineInterval));
    w.key("ru_phases");
    w.beginArray();
    for (const auto &phases : fs.ruPhases) {
        w.beginArray();
        for (std::uint64_t v : phases)
            w.value(v);
        w.endArray();
    }
    w.endArray();
    w.key("energy");
    w.beginObject();
    w.key("core_mj"); w.value(fs.energy.coreMj);
    w.key("cache_mj"); w.value(fs.energy.cacheMj);
    w.key("dram_mj"); w.value(fs.energy.dramMj);
    w.key("fixed_function_mj"); w.value(fs.energy.fixedFunctionMj);
    w.key("static_mj"); w.value(fs.energy.staticMj);
    w.key("total_mj"); w.value(fs.energy.totalMj);
    w.endObject();
    w.key("temperature_order"); w.value(fs.temperatureOrder);
    w.key("supertile_size"); w.value(std::uint64_t(fs.supertileSize));
    w.key("ranking_cycles"); w.value(fs.rankingCycles);
    if (!fs.image.empty()) {
        // Pixel hashes use all 64 bits; hex strings round-trip exactly
        // where JSON numbers (doubles in the parser) could not.
        w.key("image");
        w.beginArray();
        for (std::uint64_t px : fs.image)
            w.value(hex16(px));
        w.endArray();
    }
    w.endObject();
}

Result<FrameStats>
frameFromJson(const JsonValue &v)
{
    if (!v.isObject()) {
        return Status::error(ErrorCode::CorruptData,
                             "run result: frame is not an object");
    }
    FrameStats fs;
    RESULT_GET_U32(v, "frame_index", fs.frameIndex);
    RESULT_GET_U64(v, "total_cycles", fs.totalCycles);
    RESULT_GET_U64(v, "geom_cycles", fs.geomCycles);
    RESULT_GET_U64(v, "raster_cycles", fs.rasterCycles);
    RESULT_GET_U64(v, "dram_reads", fs.dramReads);
    RESULT_GET_U64(v, "dram_writes", fs.dramWrites);
    RESULT_GET_U64(v, "dram_activates", fs.dramActivates);
    RESULT_GET_DOUBLE(v, "avg_dram_read_latency", fs.avgDramReadLatency);
    RESULT_GET_DOUBLE(v, "texture_hit_ratio", fs.textureHitRatio);
    RESULT_GET_DOUBLE(v, "avg_texture_latency", fs.avgTextureLatency);
    RESULT_GET_U64(v, "texture_requests", fs.textureRequests);
    RESULT_GET_U64(v, "texture_misses", fs.textureMisses);
    RESULT_GET_U64(v, "texture_l1_accesses", fs.textureL1Accesses);
    RESULT_GET_DOUBLE(v, "l2_hit_ratio", fs.l2HitRatio);
    RESULT_GET_DOUBLE(v, "replication_ratio", fs.replicationRatio);
    RESULT_GET_U64(v, "instructions", fs.instructions);
    RESULT_GET_U64(v, "fragments", fs.fragments);
    RESULT_GET_U64(v, "warps", fs.warps);
    RESULT_GET_U64(v, "quads", fs.quads);

    Result<std::vector<std::uint64_t>> tile_dram =
        u64ArrayFrom(v.find("tile_dram"), "tile_dram");
    if (!tile_dram.isOk())
        return tile_dram.status();
    fs.tileDram = std::move(*tile_dram);

    Result<std::vector<std::uint64_t>> tile_instr =
        u64ArrayFrom(v.find("tile_instr"), "tile_instr");
    if (!tile_instr.isOk())
        return tile_instr.status();
    fs.tileInstr = std::move(*tile_instr);

    Result<std::vector<std::uint64_t>> timeline =
        u64ArrayFrom(v.find("dram_timeline"), "dram_timeline");
    if (!timeline.isOk())
        return timeline.status();
    fs.dramTimeline.reserve(timeline->size());
    for (std::uint64_t t : *timeline)
        fs.dramTimeline.push_back(static_cast<std::uint32_t>(t));

    RESULT_GET_U32(v, "dram_timeline_interval", fs.dramTimelineInterval);

    const JsonValue *phases = v.find("ru_phases");
    if (!phases || !phases->isArray()) {
        return Status::error(ErrorCode::CorruptData,
                             "run result: missing ru_phases");
    }
    for (const JsonValue &unit : phases->items) {
        Result<std::vector<std::uint64_t>> row =
            u64ArrayFrom(&unit, "ru_phases");
        if (!row.isOk())
            return row.status();
        if (row->size() != kNumRuPhases) {
            return Status::error(ErrorCode::CorruptData,
                                 "run result: ru_phases row has ",
                                 row->size(), " entries, expected ",
                                 kNumRuPhases);
        }
        std::array<std::uint64_t, kNumRuPhases> arr{};
        std::copy(row->begin(), row->end(), arr.begin());
        fs.ruPhases.push_back(arr);
    }

    const JsonValue *energy = v.find("energy");
    if (!energy || !energy->isObject()) {
        return Status::error(ErrorCode::CorruptData,
                             "run result: missing energy");
    }
    RESULT_GET_DOUBLE(*energy, "core_mj", fs.energy.coreMj);
    RESULT_GET_DOUBLE(*energy, "cache_mj", fs.energy.cacheMj);
    RESULT_GET_DOUBLE(*energy, "dram_mj", fs.energy.dramMj);
    RESULT_GET_DOUBLE(*energy, "fixed_function_mj",
                       fs.energy.fixedFunctionMj);
    RESULT_GET_DOUBLE(*energy, "static_mj", fs.energy.staticMj);
    RESULT_GET_DOUBLE(*energy, "total_mj", fs.energy.totalMj);

    const JsonValue *temp = v.find("temperature_order");
    if (!temp || temp->kind != JsonValue::Kind::Bool) {
        return Status::error(ErrorCode::CorruptData,
                             "run result: missing temperature_order");
    }
    fs.temperatureOrder = temp->boolean;
    RESULT_GET_U32(v, "supertile_size", fs.supertileSize);
    RESULT_GET_U64(v, "ranking_cycles", fs.rankingCycles);

    if (const JsonValue *image = v.find("image")) {
        if (!image->isArray()) {
            return Status::error(ErrorCode::CorruptData,
                                 "run result: image is not an array");
        }
        fs.image.reserve(image->items.size());
        for (const JsonValue &px : image->items) {
            if (!px.isString()) {
                return Status::error(ErrorCode::CorruptData,
                                     "run result: image pixel is not a "
                                     "hex string");
            }
            Result<std::uint64_t> value = hexU64(px.str, "image pixel");
            if (!value.isOk())
                return value.status();
            fs.image.push_back(*value);
        }
    }
    return fs;
}

/** Entrywise-add @p from into @p into (counter names are identical for
 *  every Gpu instance built from one config). */
void
accumulateCounters(std::map<std::string, std::uint64_t> &into,
                   const std::map<std::string, std::uint64_t> &from)
{
    for (const auto &[name, value] : from)
        into[name] += value;
}

std::uint64_t
sceneHashOf(const Scene &scene, const GpuConfig &cfg)
{
    return snapshotSceneHash(scene.spec().abbrev, cfg.screenWidth,
                             cfg.screenHeight);
}

/** Complete `libra.snapshot/1` image of a run paused after
 *  @p frames_done frames: run-so-far + trace + machine sections. */
std::vector<std::uint8_t>
buildSnapshot(const Scene &scene, const GpuConfig &cfg,
              const RunResult &result, const Gpu &gpu,
              std::uint32_t first_frame, std::uint32_t frames_done)
{
    SnapshotHeader header;
    header.configHash = cfg.configHash();
    header.warmPrefixHash = cfg.warmPrefixHash();
    header.sceneHash = sceneHashOf(scene, cfg);
    header.firstFrame = first_frame;
    header.framesDone = frames_done;

    SnapshotWriter w(header);
    w.beginSection(SnapSection::Result);
    JsonWriter json;
    runResultToJson(json, result);
    w.putString(json.str());
    w.endSection();

    w.beginSection(SnapSection::Trace);
    w.putBool(result.trace != nullptr);
    if (result.trace)
        result.trace->exportState(w);
    w.endSection();

    gpu.saveState(w);
    return w.finish();
}

/**
 * Rebuild (result, gpu) from a snapshot image. Returns the number of
 * frames already done on success. Key mismatches (config, scene, frame
 * range, code version) are FailedPrecondition, structural damage is
 * CorruptData — the caller treats both as "fall back to a cold run".
 */
Result<std::uint32_t>
restoreFromSnapshot(std::vector<std::uint8_t> bytes, const Scene &scene,
                    const GpuConfig &cfg, std::uint32_t frames,
                    std::uint32_t first_frame, RunResult &result,
                    std::unique_ptr<Gpu> &gpu)
{
    Result<SnapshotReader> parsed =
        SnapshotReader::parse(std::move(bytes));
    if (!parsed.isOk())
        return parsed.status();
    SnapshotReader r = std::move(*parsed);

    const SnapshotHeader &h = r.header();
    if (h.codeVersion != kSnapshotCodeVersion) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "snapshot code version ", h.codeVersion,
                             " does not match this build's ",
                             kSnapshotCodeVersion);
    }
    // The exact config, or one sharing the warm prefix (the adaptive
    // thresholds pinned out of warmPrefixHash first matter after the
    // prefix frames, which therefore rendered byte-identically).
    if (h.configHash != cfg.configHash()
        && h.warmPrefixHash != cfg.warmPrefixHash()) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "snapshot was written by a different GPU "
                             "configuration");
    }
    if (h.sceneHash != sceneHashOf(scene, cfg)) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "snapshot was written for a different "
                             "scene");
    }
    if (h.firstFrame != first_frame) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "snapshot first frame ", h.firstFrame,
                             " does not match the requested ",
                             first_frame);
    }
    if (h.framesDone > frames) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "snapshot already rendered ", h.framesDone,
                             " frames, more than the requested ",
                             frames);
    }

    r.openSection(SnapSection::Result);
    const std::string result_json = r.takeString();
    r.closeSection();
    if (!r.ok())
        return r.status();
    Result<JsonValue> doc = parseJson(result_json);
    if (!doc.isOk()) {
        return Status::error(ErrorCode::CorruptData,
                             "snapshot result section: ",
                             doc.status().message());
    }
    Result<RunResult> saved = runResultFromJson(*doc);
    if (!saved.isOk())
        return saved.status();
    RunResult restored = std::move(*saved);
    restored.config = cfg;
    if (restored.frames.size() + restored.skippedFrames.size()
        != h.framesDone) {
        return Status::error(ErrorCode::CorruptData,
                             "snapshot claims ", h.framesDone,
                             " frames done but carries ",
                             restored.frames.size(), " + ",
                             restored.skippedFrames.size(),
                             " frame records");
    }

    r.openSection(SnapSection::Trace);
    const bool has_trace = r.takeBool();
    if (has_trace != cfg.traceEvents) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "snapshot trace presence does not match "
                             "GpuConfig::traceEvents");
    }
    if (has_trace) {
        // Import before setTraceSink: the lanes must exist, in saved
        // order, so the Gpu's lane lookups find them by name and lane
        // ids stay stable across the restore.
        restored.trace = std::make_shared<TraceSink>();
        restored.trace->importState(r);
    }
    r.closeSection();
    if (!r.ok())
        return r.status();

    auto fresh = std::make_unique<Gpu>(cfg);
    fresh->setTraceSink(restored.trace.get());
    if (Status st = fresh->loadState(r); !st.isOk())
        return st;
    if (Status st = r.finish(); !st.isOk())
        return st;

    result = std::move(restored);
    gpu = std::move(fresh);
    return h.framesDone;
}

/** Path of the snapshot keyed (config, scene, first frame, frames
 *  done, traced or not) inside checkpoint dir @p dir. */
std::string
snapshotPath(const std::string &dir, const GpuConfig &cfg,
             std::uint64_t scene_hash, std::uint32_t first_frame,
             std::uint32_t frames_done)
{
    return (std::filesystem::path(dir)
            / snapshotFileName(cfg.configHash(), scene_hash, first_frame,
                               frames_done, cfg.traceEvents))
        .string();
}

/** Dir-based restore from the freshest snapshot of this run's key,
 *  found by direct open of framesDone = frames ... 1. A NotFound
 *  return means "nothing to restore" (silent cold start). */
Result<std::uint32_t>
restoreFromDir(const std::string &dir, const Scene &scene,
               const GpuConfig &cfg, std::uint32_t frames,
               std::uint32_t first_frame, RunResult &result,
               std::unique_ptr<Gpu> &gpu)
{
    const std::uint64_t scene_hash = sceneHashOf(scene, cfg);
    for (std::uint32_t done = frames; done >= 1; --done) {
        Result<std::vector<std::uint8_t>> bytes = readSnapshotFile(
            snapshotPath(dir, cfg, scene_hash, first_frame, done));
        if (!bytes.isOk() && bytes.status().code() == ErrorCode::NotFound)
            continue;
        if (!bytes.isOk())
            return bytes.status();
        return restoreFromSnapshot(std::move(*bytes), scene, cfg, frames,
                                   first_frame, result, gpu);
    }
    return Status::error(ErrorCode::NotFound, "no snapshot in ", dir);
}

/** Frame-boundary checkpoint hook: capture the warm-prefix image
 *  and/or write a snapshot file (every Nth frame and the final one).
 *  Write failures degrade to a warning — checkpointing must never
 *  change a run's outcome. */
void
maybeCheckpoint(const CheckpointPlan &plan, const Scene &scene,
                const GpuConfig &cfg, const RunResult &result,
                const Gpu &gpu, std::uint32_t first_frame,
                std::uint32_t frames_done, std::uint32_t frames_total)
{
    if (plan.captureAfter && frames_done == plan.captureAfterFrames) {
        *plan.captureAfter = buildSnapshot(scene, cfg, result, gpu,
                                           first_frame, frames_done);
    }
    const bool periodic =
        plan.every != 0 && frames_done % plan.every == 0;
    if (plan.dir.empty() || !(periodic || frames_done == frames_total))
        return;
    const SnapshotKill::Fate fate =
        plan.kill ? plan.kill->nextWrite() : SnapshotKill::Fate::Write;
    if (fate == SnapshotKill::Fate::Drop)
        return;
    const std::vector<std::uint8_t> bytes =
        buildSnapshot(scene, cfg, result, gpu, first_frame, frames_done);
    const std::string path = snapshotPath(
        plan.dir, cfg, sceneHashOf(scene, cfg), first_frame, frames_done);
    if (fate == SnapshotKill::Fate::Tear)
        tearSnapshotFile(path, bytes);
    else if (Status st = writeSnapshotFile(path, bytes); !st.isOk())
        warn("checkpoint: ", st.toString());
}

} // namespace

std::uint32_t
checkpointedFrames(const std::string &dir, const std::string &abbrev,
                   const GpuConfig &cfg, std::uint32_t frames,
                   std::uint32_t first_frame)
{
    const std::uint64_t scene_hash =
        snapshotSceneHash(abbrev, cfg.screenWidth, cfg.screenHeight);
    for (std::uint32_t done = frames; done >= 1; --done) {
        std::error_code ec;
        if (std::filesystem::exists(
                snapshotPath(dir, cfg, scene_hash, first_frame, done), ec))
            return done;
    }
    return 0;
}

void
runResultToJson(JsonWriter &w, const RunResult &r)
{
    w.beginObject();
    w.key("benchmark");
    w.value(r.benchmark);
    w.key("frames");
    w.beginArray();
    for (const FrameStats &fs : r.frames)
        frameToJson(w, fs);
    w.endArray();
    w.key("skipped_frames");
    w.beginArray();
    for (std::uint32_t f : r.skippedFrames)
        w.value(std::uint64_t(f));
    w.endArray();
    w.key("counters");
    w.beginObject();
    for (const auto &[name, value] : r.counters) {
        w.key(name);
        w.value(value);
    }
    w.endObject();
    w.endObject();
}

Result<RunResult>
runResultFromJson(const JsonValue &v)
{
    if (!v.isObject()) {
        return Status::error(ErrorCode::CorruptData,
                             "run result: result is not an object");
    }
    RunResult r;
    const JsonValue *bench = v.find("benchmark");
    if (!bench || !bench->isString()) {
        return Status::error(ErrorCode::CorruptData,
                             "run result: missing benchmark name");
    }
    r.benchmark = bench->str;

    const JsonValue *frames = v.find("frames");
    if (!frames || !frames->isArray()) {
        return Status::error(ErrorCode::CorruptData,
                             "run result: missing frames");
    }
    for (const JsonValue &frame : frames->items) {
        Result<FrameStats> fs = frameFromJson(frame);
        if (!fs.isOk())
            return fs.status();
        r.frames.push_back(std::move(*fs));
    }

    Result<std::vector<std::uint64_t>> skipped =
        u64ArrayFrom(v.find("skipped_frames"), "skipped_frames");
    if (!skipped.isOk())
        return skipped.status();
    for (std::uint64_t f : *skipped)
        r.skippedFrames.push_back(static_cast<std::uint32_t>(f));

    const JsonValue *counters = v.find("counters");
    if (!counters || !counters->isObject()) {
        return Status::error(ErrorCode::CorruptData,
                             "run result: missing counters");
    }
    for (const auto &[name, value] : counters->members) {
        Result<std::uint64_t> count = asU64(&value, name.c_str());
        if (!count.isOk())
            return count.status();
        r.counters[name] = *count;
    }
    return r;
}

Result<RunResult>
runBenchmark(const Scene &scene, const GpuConfig &cfg,
             std::uint32_t frames, std::uint32_t first_frame,
             const CheckpointPlan &checkpoint)
{
    const BenchmarkSpec &spec = scene.spec();
    if (Status st = cfg.validate(); !st.isOk()) {
        return Status::error(st.code(), "benchmark ", spec.abbrev,
                             ": invalid GPU configuration: ",
                             st.message());
    }
    if (scene.screenWidth() != cfg.screenWidth
        || scene.screenHeight() != cfg.screenHeight) {
        return Status::error(ErrorCode::InvalidArgument, "benchmark ",
                             spec.abbrev, ": scene built for ",
                             scene.screenWidth(), "x",
                             scene.screenHeight(),
                             " does not match configured ",
                             cfg.screenWidth, "x", cfg.screenHeight);
    }

    // Surface an unusable checkpoint directory once, at plan setup.
    // Warn-only: checkpointing must never change a run's outcome, so
    // the run proceeds cold, without snapshots. A usable one is swept
    // of the temp files that killed writers left behind.
    CheckpointPlan plan = checkpoint;
    if (!plan.dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(plan.dir, ec);
        if (ec) {
            warn("benchmark ", spec.abbrev,
                 ": cannot create checkpoint directory ", plan.dir,
                 ": ", ec.message(), " — checkpoints disabled for this "
                 "run");
            plan.dir.clear();
        } else {
            removeDeadWritersTempFiles(plan.dir);
        }
    }

    RunResult result;
    result.benchmark = spec.abbrev;
    result.config = cfg;

    // --- Restore: the checkpoint dir first, then warm-start bytes ----
    // Every restore failure except "nothing there" warns and degrades
    // to a cold run; a snapshot can speed a run up, never break it.
    std::unique_ptr<Gpu> gpu;
    std::uint32_t start = 0;
    const auto restore = [&](Result<std::uint32_t> restored) {
        if (restored.isOk()) {
            start = *restored;
        } else if (restored.status().code() != ErrorCode::NotFound) {
            warn("benchmark ", spec.abbrev,
                 ": checkpoint restore failed, falling back to a cold "
                 "run: ", restored.status().toString());
        }
    };
    if (!plan.dir.empty()) {
        restore(restoreFromDir(plan.dir, scene, cfg, frames, first_frame,
                               result, gpu));
    }
    if (!gpu && plan.warmStart) {
        restore(restoreFromSnapshot(*plan.warmStart, scene, cfg, frames,
                                    first_frame, result, gpu));
    }
    if (!gpu) {
        if (cfg.traceEvents)
            result.trace = std::make_shared<TraceSink>();
        gpu = std::make_unique<Gpu>(cfg);
        gpu->setTraceSink(result.trace.get());
        start = 0;
    }
    if (plan.framesRestored)
        *plan.framesRestored = start;

    result.frames.reserve(frames);
    for (std::uint32_t f = start; f < frames; ++f) {
        const FrameData frame = scene.frame(first_frame + f);
        Result<FrameStats> fs =
            gpu->tryRenderFrame(frame, scene.textures());
        if (fs.isOk()) {
            result.frames.push_back(std::move(*fs));
        } else {
            const ErrorCode code = fs.status().code();
            if (code != ErrorCode::WatchdogExpired
                && code != ErrorCode::NoProgress) {
                return fs.status();
            }
            // Watchdog fired: degrade gracefully — drop this frame,
            // rebuild the wedged GPU and carry on with the sweep. The
            // wedged instance's counters are merged first: work done
            // before the rebuild (including the aborted frame's
            // partial progress) must survive into the run totals.
            warn("benchmark ", spec.abbrev, ": skipping frame ",
                 first_frame + f, ": ", fs.status().toString());
            result.skippedFrames.push_back(first_frame + f);
            accumulateCounters(result.counters, gpu->stats().values());
            gpu = std::make_unique<Gpu>(cfg);
            gpu->setTraceSink(result.trace.get());
        }
        if (plan.enabled()) {
            maybeCheckpoint(plan, scene, cfg, result, *gpu,
                            first_frame, f + 1, frames);
        }
    }
    accumulateCounters(result.counters, gpu->stats().values());
    return result;
}

Result<RunResult>
runBenchmark(const Scene &scene, const GpuConfig &cfg,
             std::uint32_t frames, std::uint32_t first_frame)
{
    return runBenchmark(scene, cfg, frames, first_frame,
                        CheckpointPlan{});
}

Result<RunResult>
runBenchmark(const BenchmarkSpec &spec, const GpuConfig &cfg,
             std::uint32_t frames, std::uint32_t first_frame)
{
    if (Status st = cfg.validate(); !st.isOk()) {
        return Status::error(st.code(), "benchmark ", spec.abbrev,
                             ": invalid GPU configuration: ",
                             st.message());
    }
    const Scene scene(spec, cfg.screenWidth, cfg.screenHeight);
    return runBenchmark(scene, cfg, frames, first_frame);
}

Result<double>
memoryTimeFraction(const BenchmarkSpec &spec, const GpuConfig &cfg,
                   std::uint32_t frames)
{
    GpuConfig ideal = cfg;
    ideal.idealMemory = true;
    const Result<RunResult> real = runBenchmark(spec, cfg, frames);
    if (!real.isOk())
        return real.status();
    const Result<RunResult> perfect = runBenchmark(spec, ideal, frames);
    if (!perfect.isOk())
        return perfect.status();
    const auto real_cycles = static_cast<double>(real->totalCycles());
    const auto ideal_cycles =
        static_cast<double>(perfect->totalCycles());
    if (real_cycles <= 0.0)
        return 0.0;
    return std::max(0.0, 1.0 - ideal_cycles / real_cycles);
}

double
speedup(const RunResult &a, const RunResult &b)
{
    const auto b_cycles = static_cast<double>(b.totalCycles());
    return b_cycles == 0.0
        ? 0.0
        : static_cast<double>(a.totalCycles()) / b_cycles;
}

double
geomean(const std::vector<double> &values)
{
    // Non-positive entries (a zero-cycle run, a failed data point) are
    // skipped with a warning instead of aborting: one bad sample should
    // degrade the average, not kill a whole results table.
    std::size_t used = 0;
    double log_sum = 0.0;
    for (const double v : values) {
        if (!(v > 0.0)) {
            warn("geomean: skipping non-positive value ", v);
            continue;
        }
        log_sum += std::log(v);
        ++used;
    }
    if (used == 0)
        return 0.0;
    return std::exp(log_sum / static_cast<double>(used));
}

} // namespace libra
