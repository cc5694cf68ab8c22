#include "gpu/raster/blend_unit.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/rng.hh"

namespace libra
{

BlendUnit::BlendUnit(std::uint32_t tile_size, std::uint32_t quads_per_cycle)
    : tileSize(tile_size), quadsPerCycle(std::max(quads_per_cycle, 1u))
{
    color.resize(static_cast<std::size_t>(tile_size) * tile_size, 0);
}

void
BlendUnit::beginTile(const IRect &tile_rect)
{
    rect = tile_rect;
    readyAt = 0;
    std::fill(color.begin(), color.end(), 0);
}

Tick
BlendUnit::acceptQuads(Tick ready, std::uint32_t quads)
{
    const Tick cycles = (quads + quadsPerCycle - 1) / quadsPerCycle;
    readyAt = std::max(readyAt, ready) + std::max<Tick>(cycles, 1);
    quadsBlended += quads;
    return readyAt;
}

void
BlendUnit::blendQuad(std::int32_t quad_x, std::int32_t quad_y,
                     std::uint8_t mask, std::uint32_t prim_id)
{
    for (int bit = 0; bit < 4; ++bit) {
        if (!(mask & (1 << bit)))
            continue;
        const std::int32_t px = quad_x + (bit & 1);
        const std::int32_t py = quad_y + (bit >> 1);
        libra_assert(rect.contains(px, py),
                     "blended fragment outside the current tile");
        const std::size_t idx =
            static_cast<std::size_t>(py - rect.y0) * tileSize
            + static_cast<std::size_t>(px - rect.x0);
        // Order-sensitive mix: the final value depends on the sequence
        // of writes to this pixel, exactly like real blending does.
        color[idx] = hashCombine(color[idx], prim_id + 1);
        ++fragmentsWritten;
    }
}

} // namespace libra
