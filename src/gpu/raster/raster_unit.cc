#include "gpu/raster/raster_unit.hh"

#include <algorithm>
#include <bit>
#include <memory>
#include <span>
#include <sstream>

#include "check/snapshot.hh"
#include "common/log.hh"
#include "common/rng.hh"

namespace libra
{

const char *
ruPhaseName(RuPhase phase)
{
    switch (phase) {
      case RuPhase::Rasterize: return "rasterize";
      case RuPhase::Shade: return "shade";
      case RuPhase::TextureWait: return "texture_wait";
      case RuPhase::DramWait: return "dram_wait";
      case RuPhase::Blend: return "blend";
      case RuPhase::Idle: return "idle";
    }
    return "?";
}

void
RuPhaseTracker::registerStats(StatGroup &g)
{
    for (std::size_t i = 0; i < kNumRuPhases; ++i) {
        g.add(std::string("phase_")
                  + ruPhaseName(static_cast<RuPhase>(i)),
              &counters[i]);
    }
}

RasterUnit::RasterUnit(EventQueue &eq, const RasterUnitConfig &cfg,
                       const TileGrid &tile_grid,
                       MemSink &frame_buffer_sink,
                       std::vector<Cache *> texture_l1s)
    : queue(eq), config(cfg), grid(tile_grid), fbSink(frame_buffer_sink),
      statGroup("ru" + std::to_string(cfg.index))
{
    libra_assert(texture_l1s.size() == cfg.cores,
                 "need one texture L1 per core");
    for (std::uint32_t i = 0; i < cfg.cores; ++i) {
        std::ostringstream name;
        name << "ru" << cfg.index << ".core" << i;
        cores.push_back(std::make_unique<ShaderCore>(
            eq, cfg.warpsPerCore, *texture_l1s[i], name.str()));
        cores.back()->onStateChange = [this] { updatePhase(); };
    }
    maxPendingWarps = cfg.pendingWarpsPerCore * cfg.cores;
    phaseTracker.registerStats(statGroup);

    statGroup.add("prims_rasterized", &primsRasterized);
    statGroup.add("quads_produced", &quadsProduced);
    statGroup.add("warps_launched", &warpsLaunched);
    statGroup.add("tiles_rendered", &tilesRendered);
    statGroup.add("flush_bytes", &flushBytes);
    statGroup.add("tex_latency_sum", &texLatencySum);
    statGroup.add("tex_requests", &texRequests);
    statGroup.add("fragments_shaded", &fragmentsShaded);
    statGroup.add("flushes_elided", &flushesElided);
}

void
RasterUnit::beginFrame(const BinnedFrame &binned, const TexturePool &pool)
{
    libra_assert(idle(), "beginFrame on a busy Raster Unit");
    frame = &binned;
    texPool = &pool;
    setupCache.clear();
    setupCache.resize(binned.tris.size());
    updatePhase();
}

void
RasterUnit::push(const RasterWork &work)
{
    libra_assert(canPush(), "push to a full FIFO");
    fifo.push_back(work);
    tryAdvance();
}

bool
RasterUnit::idle() const
{
    return !frag && !ahead && fifo.empty() && pendingWarps.empty();
}

RuPhase
RasterUnit::phaseNow(Tick now) const
{
    // Priority attribution (deepest active stage wins): a core that is
    // actively issuing hides the front-end and the memory system;
    // waits are only charged when every resident warp is blocked.
    bool any_resident = false;
    bool any_issuing = false;
    for (const auto &core : cores) {
        if (core->resident() == 0)
            continue;
        any_resident = true;
        if (core->issueBusyUntil() > now) {
            any_issuing = true;
            break;
        }
    }
    if (any_issuing)
        return RuPhase::Shade;
    if (any_resident) {
        // Every resident warp is blocked on texture data. If any of
        // this unit's L1s has a fill outstanding the wait is on the
        // memory system below (L2/DRAM); otherwise the data is an
        // in-flight L1 hit.
        for (const auto &core : cores) {
            if (core->textureL1().outstandingMisses() > 0)
                return RuPhase::DramWait;
        }
        return RuPhase::TextureWait;
    }
    if ((frag || ahead) && now < frontReadyAt)
        return RuPhase::Rasterize;
    if (frag && frag->completing)
        return RuPhase::Blend; // waiting on blend commit / flush start
    if (now < flushReadyAt)
        return RuPhase::Blend; // flush DMA draining
    if (idle())
        return RuPhase::Idle;
    // Something is queued (FIFO entries, a tile awaiting its end
    // marker) but no modeled resource is occupied this tick: the
    // front-end owns whatever happens next.
    return RuPhase::Rasterize;
}

void
RasterUnit::updatePhase()
{
    const Tick now = queue.now();
    phaseTracker.transition(phaseNow(now), now);
}

void
RasterUnit::tryAdvance()
{
    if (inAdvance)
        return;
    inAdvance = true;

    while (true) {
        const Tick now = queue.now();
        if (now < frontReadyAt) {
            if (!advanceScheduled) {
                advanceScheduled = true;
                queue.schedule(frontReadyAt, [this] {
                    advanceScheduled = false;
                    tryAdvance();
                });
            }
            break;
        }
        if (fifo.empty())
            break;

        const RasterWork &head = fifo.front();
        if (head.kind == RasterWork::Kind::TileBegin && frag && ahead) {
            // No free tile context; resumed when the fragment-stage
            // tile completes.
            break;
        }
        if (head.kind == RasterWork::Kind::Prim
            && pendingWarps.size() >= maxPendingWarps) {
            // Warp backlog full; resumed by dispatchPending().
            break;
        }

        const RasterWork work = head;
        fifo.pop_front();
        processWork(work);
        if (onSpaceFreed)
            onSpaceFreed();
    }

    inAdvance = false;
    updatePhase();
}

void
RasterUnit::processWork(const RasterWork &work)
{
    const Tick now = queue.now();
    switch (work.kind) {
      case RasterWork::Kind::TileBegin: {
        TileCtx *ctx = tileCtxs.acquire(config.tileSize,
                                        config.blendQuadsPerCycle);
        ctx->begin(work.tile, grid.tileRect(work.tile));
        LIBRA_TRACE_ASYNC_BEGIN(traceLane, traceTileName, work.tile,
                                now);
        if (!frag)
            frag = ctx;
        else
            ahead = ctx;
        frontReadyAt = now + 1;
        break;
      }
      case RasterWork::Kind::Prim:
        rasterizePrim(work.primIndex);
        break;
      case RasterWork::Kind::TileEnd: {
        TileCtx *ctx = rasterCtx();
        libra_assert(ctx && ctx->tile == work.tile,
                     "TileEnd without a matching TileBegin");
        ctx->endSeen = true;
        frontReadyAt = now + 1;
        maybeCompleteTile();
        break;
      }
    }
}

void
RasterUnit::rasterizePrim(std::uint32_t prim_index)
{
    TileCtx *ctx = rasterCtx();
    libra_assert(ctx, "primitive outside any tile");
    libra_assert(frame && prim_index < frame->tris.size(),
                 "bad primitive index");
    const Triangle &tri = frame->tris[prim_index];
    const Texture &tex = texPool->get(tri.textureId);

    std::optional<TriangleSetup> &cached = setupCache[prim_index];
    if (!cached)
        cached.emplace(tri, tex);
    const TriangleSetup &setup = *cached;
    RasterOutput &out = rasterScratch;
    out.quads.clear();
    out.blocksScanned = 0;
    setup.rasterize(ctx->rect, out);
    ++primsRasterized;

    // Early-Z: opaque primitives write depth, blended ones only test.
    // Survivors are compacted to the front of the scratch output. Each
    // is copied into its slot before the test writes its mask, so the
    // copy never waits on that store.
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < out.quads.size(); ++i) {
        Quad &slot = out.quads[survivors];
        if (i != survivors)
            slot = out.quads[i];
        if (ctx->zbuf.testQuad(slot, !tri.blend) != 0)
            ++survivors;
    }
    quadsProduced += survivors;

    // Front-end occupancy: block scan rate plus Early-Z rate.
    const Tick raster_cycles = std::max<Tick>(
        1, out.blocksScanned / std::max(config.rasterQuadsPerCycle, 1u));
    const Tick z_cycles =
        out.quads.size() / std::max(config.earlyZQuadsPerCycle, 1u);
    frontReadyAt = queue.now() + raster_cycles + z_cycles;

    // Assemble surviving quads into warps (one primitive per warp,
    // uniform shader state).
    for (std::size_t i = 0; i < survivors;) {
        const auto n = static_cast<std::uint32_t>(
            std::min<std::size_t>(config.warpQuads, survivors - i));
        emitWarp(*ctx, tri, prim_index, &out.quads[i], n);
        i += n;
    }
}

std::uint64_t
primContentHash(const Triangle &tri)
{
    std::uint64_t h = tri.textureId;
    h = hashCombine(h, (static_cast<std::uint64_t>(tri.shaderAluOps)
                        << 2)
                           ^ (tri.blend ? 1 : 0)
                           ^ (tri.useMips ? 2 : 0));
    for (const auto &v : tri.v) {
        h = hashCombine(h, std::bit_cast<std::uint32_t>(v.pos.x));
        h = hashCombine(h, std::bit_cast<std::uint32_t>(v.pos.y));
        h = hashCombine(h, std::bit_cast<std::uint32_t>(v.pos.z));
        h = hashCombine(h, std::bit_cast<std::uint32_t>(v.uv.x));
        h = hashCombine(h, std::bit_cast<std::uint32_t>(v.uv.y));
    }
    return h;
}

void
RasterUnit::TileCtx::begin(TileId id, const IRect &r)
{
    tile = id;
    rect = r;
    endSeen = false;
    completing = false;
    instructions = 0;
    fragments = 0;
    signature = 0;
    lastBlendDone = 0;
    zbuf.beginTile(r);
    blender.beginTile(r);
    retired.clear();
}

void
RasterUnit::emitWarp(TileCtx &ctx, const Triangle &tri,
                     std::uint32_t prim_index, const Quad *quads,
                     std::uint32_t quad_count)
{
    const Texture &tex = texPool->get(tri.textureId);

    WarpTask task;
    task.tile = ctx.tile;
    task.quadCount = quad_count;
    task.aluOps = tri.shaderAluOps;
    task.blend = tri.blend;
    task.texLines.reserve(std::size_t(quad_count) * tri.texSamples);
    const std::uint64_t first_quad = quadRing.tailIndex();
    for (const Quad &quad : std::span(quads, quad_count)) {
        quadRing.push_back(CoveredQuad{quad.px, quad.py, quad.mask});
        task.fragments += static_cast<std::uint32_t>(quad.coveredCount());
        for (std::uint8_t s = 0; s < tri.texSamples; ++s) {
            // Sample 0 reads the interpolated uv; additional samples
            // model secondary maps in another region of the sheet.
            const Vec2 uv = s == 0
                ? quad.uv
                : Vec2{quad.uv.x * 0.5f + 0.27f,
                       quad.uv.y * 0.5f + 0.61f};
            task.texLines.push_back(tex.lineAddr(uv.x, uv.y, quad.mip));
        }
    }
    task.instructions = static_cast<std::uint64_t>(task.aluOps)
        + task.texLines.size() + ShaderCore::tailOps;

    TileCtx::RetiredWarp record;
    record.firstQuad = first_quad;
    record.quadCount = quad_count;
    record.primId = prim_index;
    record.primSig = config.transactionElimination
        ? primContentHash(tri)
        : 0;
    const auto seq = static_cast<std::uint32_t>(
        ctx.retired.push_back(record));
    pendingWarps.push_back(PendingWarp{&ctx, seq, std::move(task)});
    dispatchPending();
}

void
RasterUnit::dispatchPending()
{
    bool dispatched = false;
    while (!pendingWarps.empty()) {
        PendingWarp &head = pendingWarps.front();
        if (head.ctx != frag)
            break; // fragment-stage barrier (paper §III-A)

        // Prefer a screen-space-banded core assignment: quads from the
        // same 4-pixel row band go to the same core, so spatially
        // adjacent warps (which share texture lines) share an L1. Real
        // GPUs use static screen-space interleaving for the same
        // reason. Fall back to any free core to keep the load balanced.
        ShaderCore *target = nullptr;
        const std::uint64_t first_quad =
            head.ctx->retired[head.seq].firstQuad;
        const std::uint32_t band = quadRing[first_quad].py / 4;
        ShaderCore *preferred = cores[band % cores.size()].get();
        if (preferred->hasFreeSlot())
            target = preferred;
        if (!target) {
            for (std::uint32_t i = 0; i < cores.size(); ++i) {
                ShaderCore *candidate =
                    cores[(nextCore + i) % cores.size()].get();
                if (candidate->hasFreeSlot()) {
                    target = candidate;
                    nextCore = (nextCore + i + 1)
                        % static_cast<std::uint32_t>(cores.size());
                    break;
                }
            }
        }
        if (!target)
            break; // resumed on warp retire

        ++warpsLaunched;
        TileCtx *ctx = head.ctx;
        const std::uint32_t seq = head.seq;
        WarpTask task = std::move(head.task);
        pendingWarps.pop_front();
        // The quads stay in the ring and the warp's identity in its
        // commit record, so the retire continuation captures 24 bytes.
        target->dispatch(std::move(task),
                         [this, ctx, seq](const WarpRetireInfo &info) {
                             onWarpRetired(ctx, seq, info);
                         });
        dispatched = true;
    }
    if (dispatched)
        tryAdvance(); // raster front may have been stalled on backlog
    updatePhase();
}

void
RasterUnit::onWarpRetired(TileCtx *ctx, std::uint32_t seq,
                          const WarpRetireInfo &info)
{
    libra_assert(frag && ctx == frag,
                 "warp retired for a non-fragment-stage tile");
    texLatencySum += info.texLatencySum;
    texRequests += info.texRequests;
    fragmentsShaded += info.fragments;

    TileCtx::RetiredWarp &record = ctx->retired[seq];
    record.shadedAt = info.shadedAt;
    record.instructions = info.instructions;
    record.fragments = info.fragments;
    record.ready = true;
    commitReadyWarps(*ctx);
    dispatchPending();
    maybeCompleteTile();
}

void
RasterUnit::commitReadyWarps(TileCtx &ctx)
{
    // Blending commits strictly in warp-assembly (program) order, as a
    // real ROP reorder queue does — overlapping primitives must blend
    // in submission order for the output to be schedule-independent.
    while (!ctx.retired.empty() && ctx.retired.front().ready) {
        const TileCtx::RetiredWarp &rw = ctx.retired.front();
        const std::uint64_t quads_end = rw.firstQuad + rw.quadCount;
        libra_assert(rw.firstQuad == quadRing.headIndex(),
                     "warp commit out of assembly order");
        const Tick ready = std::max(queue.now(), rw.shadedAt);
        const Tick blend_done =
            ctx.blender.acceptQuads(ready, rw.quadCount);
        ctx.lastBlendDone = std::max(ctx.lastBlendDone, blend_done);
        ctx.instructions += rw.instructions;
        ctx.fragments += rw.fragments;
        if (config.transactionElimination) {
            // Order-sensitive content hash over frame-independent
            // primitive signatures: identical primitive streams with
            // identical coverage produce identical tile contents.
            ctx.signature = hashCombine(ctx.signature, rw.primSig);
            for (std::uint64_t q = rw.firstQuad; q < quads_end; ++q) {
                const CoveredQuad &quad = quadRing[q];
                ctx.signature = hashCombine(
                    ctx.signature,
                    (static_cast<std::uint64_t>(quad.px) << 17)
                        ^ (static_cast<std::uint64_t>(quad.py) << 2)
                        ^ quad.mask);
            }
        }
        if (config.captureImage) {
            for (std::uint64_t q = rw.firstQuad; q < quads_end; ++q) {
                const CoveredQuad &quad = quadRing[q];
                ctx.blender.blendQuad(quad.px, quad.py, quad.mask,
                                      rw.primId);
            }
        }
        quadRing.pop_front(rw.quadCount);
        ctx.retired.pop_front();
    }
}

void
RasterUnit::maybeCompleteTile()
{
    TileCtx *ctx = frag;
    if (!ctx || ctx->completing || !ctx->endSeen || !ctx->retired.empty())
        return;
    // All warps of the fragment-stage tile have committed.
    ctx->completing = true;
    const Tick done = std::max(queue.now(), ctx->lastBlendDone);
    queue.schedule(done, [this] { startFlush(); });
    updatePhase();
}

void
RasterUnit::startFlush()
{
    libra_assert(frag && frag->completing, "flush without a ready tile");

    // Snapshot everything the flush and the done-callback need, then
    // free the Fragment stage for the run-ahead tile (double-buffered
    // color buffer).
    TileCtx *ctx = frag;
    frag = ahead;
    ahead = nullptr;

    const Tick now = queue.now();
    const IRect rect = ctx->rect;
    const std::uint32_t bytes = static_cast<std::uint32_t>(
        static_cast<double>(rect.width() * rect.height() * 4)
        * std::clamp(config.fbCompressionRatio, 0.05, 1.0));
    const TileId tile = ctx->tile;

    // Transaction elimination: when enabled and the content signature
    // matches the previous frame's, the frame buffer already holds
    // these bytes — skip the write entirely.
    const bool elide = config.transactionElimination && flushNeeded
        && !flushNeeded(tile, ctx->signature);

    // DMA engine occupancy: one engine per RU, serialized flushes.
    const Tick start = std::max(now, flushReadyAt);
    const std::uint32_t lines = (bytes + 63) / 64;
    flushReadyAt = start
        + lines / std::max(config.flushLinesPerCycle, 1u);

    flushBytes += elide ? 0 : bytes;
    ++tilesRendered;

    PendingFlush *fin = flushes.acquire();
    fin->done = TileDoneInfo{};
    fin->done.tile = tile;
    fin->done.instructions = ctx->instructions;
    fin->done.warps = ctx->retired.tailIndex();
    fin->done.fragments = ctx->fragments;
    fin->done.signature = ctx->signature;
    fin->done.flushElided = elide;
    fin->done.rect = rect;
    if (config.captureImage) {
        fin->color = ctx->blender.colorBuffer();
        fin->done.colorBuffer = &fin->color;
    }
    fin->bytes = bytes;
    fin->fbAddr = addr_map::frameBufferBase
        + static_cast<Addr>(tile) * config.tileSize * config.tileSize * 4;
    tileCtxs.release(ctx);

    if (elide) {
        ++flushesElided;
        queue.schedule(start,
                       [this, fin] { finishFlush(fin, queue.now()); });
    } else {
        queue.schedule(start, [this, fin] {
            fbSink.access(MemReq{
                fin->fbAddr, fin->bytes, true, TrafficClass::FrameBuffer,
                fin->done.tile,
                [this, fin](Tick when) { finishFlush(fin, when); }});
        });
    }

    // The Fragment stage is free: dispatch the run-ahead tile's warps
    // and wake the raster front (it may be stalled on a TileBegin).
    dispatchPending();
    maybeCompleteTile(); // the promoted tile may already be finished
    tryAdvance();
}

void
RasterUnit::finishFlush(PendingFlush *fin, Tick when)
{
    TileDoneInfo info = fin->done;
    info.flushedAt = when;
    LIBRA_TRACE_ASYNC_END(traceLane, traceTileName, info.tile, when);
    if (onTileDone)
        onTileDone(info);
    updatePhase();
    flushes.release(fin);
}

void
RasterUnit::saveState(SnapshotWriter &w) const
{
    libra_assert(idle() && !advanceScheduled && !inAdvance,
                 "raster-unit snapshot while not idle");
    w.putU32(nextCore);
    w.putU64(frontReadyAt);
    w.putU64(flushReadyAt);
    w.putU8(static_cast<std::uint8_t>(phaseTracker.current()));
    w.putU64(phaseTracker.lastTransition());
    w.putU64(cores.size());
    for (const auto &core : cores)
        core->saveState(w);
}

void
RasterUnit::loadState(SnapshotReader &r)
{
    nextCore = r.takeU32();
    frontReadyAt = r.takeU64();
    flushReadyAt = r.takeU64();
    const std::uint8_t phase = r.takeU8();
    const Tick phase_edge = r.takeU64();
    if (!r.check(phase < kNumRuPhases, "RU phase out of range")
        || !r.check(nextCore < cores.size() || cores.empty(),
                    "RU dispatch rotation out of range"))
        return;
    phaseTracker.restore(static_cast<RuPhase>(phase), phase_edge);
    if (!r.check(r.takeU64() == cores.size(),
                 "RU core count mismatches the configuration"))
        return;
    for (const auto &core : cores)
        core->loadState(r);
}

} // namespace libra
