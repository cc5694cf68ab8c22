/**
 * @file
 * Early-Z stage: per-tile on-chip depth buffer (paper §II-A).
 *
 * Kills fragments known to be occluded before they reach the expensive
 * Fragment stage. The Z-Buffer is tile-sized and on-chip, so depth
 * traffic never reaches DRAM (§II-C). Opaque fragments write depth;
 * translucent (blended) fragments test but do not write, matching the
 * standard depth-test configuration of painter's-ordered content.
 */

#ifndef LIBRA_GPU_RASTER_EARLY_Z_HH
#define LIBRA_GPU_RASTER_EARLY_Z_HH

#include <cstdint>
#include <vector>

#include "common/geom.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "gpu/raster/rasterizer.hh"

namespace libra
{

/** One tile-sized depth buffer with LESS depth test. */
class EarlyZ
{
  public:
    explicit EarlyZ(std::uint32_t tile_size);

    /** Clear to the far plane for a new tile at @p rect. */
    void beginTile(const IRect &rect);

    /**
     * Depth-test a quad in place: clears mask bits of occluded
     * fragments and, when @p write_depth, updates the buffer for the
     * survivors. @return the surviving coverage mask.
     */
    std::uint8_t
    testQuad(Quad &quad, bool write_depth)
    {
        // Inline: the raster front calls it once per rasterized quad.
        ++quadsTested;
        std::uint8_t surviving = 0;
        for (int bit = 0; bit < 4; ++bit) {
            if (!(quad.mask & (1 << bit)))
                continue;
            const std::int32_t px = quad.px + (bit & 1);
            const std::int32_t py = quad.py + (bit >> 1);
            libra_assert(rect.contains(px, py),
                         "covered fragment outside the current tile");
            float &stored =
                depth[static_cast<std::size_t>(py - rect.y0) * tileSize
                      + static_cast<std::size_t>(px - rect.x0)];
            if (quad.z[bit] < stored) {
                surviving |= static_cast<std::uint8_t>(1 << bit);
                if (write_depth)
                    stored = quad.z[bit];
            } else {
                ++fragmentsKilled;
            }
        }
        if (surviving == 0)
            ++quadsKilled;
        quad.mask = surviving;
        return surviving;
    }

    Counter quadsTested;
    Counter quadsKilled;     //!< fully occluded quads
    Counter fragmentsKilled;

  private:
    std::uint32_t tileSize;
    IRect rect;
    std::vector<float> depth; //!< tileSize^2, tile-local row-major
};

} // namespace libra

#endif // LIBRA_GPU_RASTER_EARLY_Z_HH
