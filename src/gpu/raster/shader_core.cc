#include "gpu/raster/shader_core.hh"

#include <algorithm>

#include "check/snapshot.hh"
#include "common/log.hh"

namespace libra
{

ShaderCore::ShaderCore(EventQueue &eq, std::uint32_t warp_slots,
                       Cache &texture_l1, const std::string &name)
    : queue(eq), warpSlots(warp_slots), texL1(texture_l1),
      flights(warp_slots)
{
    libra_assert(warp_slots > 0, name, ": core needs warp slots");
    freeFlights.reserve(warp_slots);
    for (std::uint32_t f = warp_slots; f-- > 0;)
        freeFlights.push_back(f);
}

Tick
ShaderCore::reserveIssue(Tick earliest, Tick cycles)
{
    const Tick start = std::max(earliest, issueReadyAt);
    issueReadyAt = start + cycles;
    issueBusy += cycles;
    return issueReadyAt;
}

void
ShaderCore::dispatch(WarpTask task, WarpRetireCallback on_retire)
{
    libra_assert(hasFreeSlot(), "dispatch to a full core");
    const std::uint32_t f = freeFlights.back();
    freeFlights.pop_back();
    ++warpsExecuted;

    const Tick now = queue.now();

    // Main ALU block: the warp single-issues one instruction per cycle,
    // arbitrating the issue port with the other resident warps.
    const Tick alu_done = reserveIssue(now, std::max<Tick>(1, task.aluOps));

    Flight &flight = flights[f];
    flight.task = std::move(task);
    flight.onRetire = std::move(on_retire);
    flight.issueTick = 0;
    flight.lastData = 0;
    flight.latencySum = 0;

    if (flight.task.texLines.empty()) {
        // Pure-ALU warp: no texture phase.
        flight.outstanding = 0;
        queue.schedule(alu_done, [this, f, alu_done] {
            finishWarp(f, alu_done);
        });
        return;
    }

    // Texture phase: issue every sample when the ALU block completes,
    // then block until the last one returns.
    flight.outstanding = flight.task.texLines.size();
    queue.schedule(alu_done, [this, f] { issueTexPhase(f); });
}

void
ShaderCore::issueTexPhase(std::uint32_t f)
{
    Flight &flight = flights[f];
    flight.issueTick = queue.now();
    for (const Addr line : flight.task.texLines) {
        texL1.access(MemReq{
            line, 64, false, TrafficClass::Texture, flight.task.tile,
            [this, f](Tick when) { onTexData(f, when); }});
    }
    // The warp just blocked on its texture data; let the RU's phase
    // attribution notice (it may have been the last one issuing).
    if (onStateChange)
        onStateChange();
}

void
ShaderCore::onTexData(std::uint32_t f, Tick when)
{
    Flight &flight = flights[f];
    flight.latencySum += when - flight.issueTick;
    flight.lastData = std::max(flight.lastData, when);
    if (--flight.outstanding == 0)
        finishWarp(f, flight.lastData);
}

void
ShaderCore::finishWarp(std::uint32_t f, Tick data_ready)
{
    Flight &flight = flights[f];
    // Tail block (color computation/export) re-arbitrates issue.
    const Tick done = reserveIssue(data_ready, tailOps);
    texRequests += flight.task.texLines.size();
    texLatencySum += flight.latencySum;

    WarpRetireInfo &info = flight.info;
    info.tile = flight.task.tile;
    info.shadedAt = done;
    info.instructions = flight.task.instructions;
    info.texRequests = flight.task.texLines.size();
    info.texLatencySum = flight.latencySum;
    info.quadCount = flight.task.quadCount;
    info.fragments = flight.task.fragments;
    info.blend = flight.task.blend;

    queue.schedule(done, [this, f] { retireWarp(f); });
    // Data returned and the tail block re-occupied the issue port:
    // the core transitioned back from waiting to shading.
    if (onStateChange)
        onStateChange();
}

void
ShaderCore::retireWarp(std::uint32_t f)
{
    // The continuation may dispatch onto this core, possibly into this
    // very flight: take what it needs and free the slot first.
    Flight &flight = flights[f];
    WarpRetireCallback on_retire = std::move(flight.onRetire);
    const WarpRetireInfo info = flight.info;
    freeFlights.push_back(f);
    on_retire(info);
}

void
ShaderCore::saveState(SnapshotWriter &w) const
{
    libra_assert(resident() == 0,
                 "shader-core snapshot with resident warps");
    for (const Flight &flight : flights) {
        libra_assert(!flight.onRetire,
                     "shader-core snapshot with a parked retire callback");
    }
    w.putU64(issueReadyAt);
    w.putU64(warpsExecuted.value());
    w.putU64(issueBusy.value());
    w.putU64(texRequests.value());
    w.putU64(texLatencySum.value());
}

void
ShaderCore::loadState(SnapshotReader &r)
{
    issueReadyAt = r.takeU64();
    warpsExecuted.set(r.takeU64());
    issueBusy.set(r.takeU64());
    texRequests.set(r.takeU64());
    texLatencySum.set(r.takeU64());
}

} // namespace libra
