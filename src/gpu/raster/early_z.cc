#include "gpu/raster/early_z.hh"

#include <algorithm>

#include "common/log.hh"

namespace libra
{

EarlyZ::EarlyZ(std::uint32_t tile_size)
    : tileSize(tile_size)
{
    libra_assert(tile_size > 0, "zero tile size");
    depth.resize(static_cast<std::size_t>(tile_size) * tile_size, 1.0f);
}

void
EarlyZ::beginTile(const IRect &tile_rect)
{
    rect = tile_rect;
    std::fill(depth.begin(), depth.end(), 1.0f);
}

} // namespace libra
