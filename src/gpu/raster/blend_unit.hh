/**
 * @file
 * Blending Unit and on-chip Color Buffer (paper §II-A).
 *
 * Output colors are combined into the tile-sized on-chip Color Buffer at
 * a fixed quad rate; no DRAM traffic happens here. The unit also keeps
 * an optional functional "image": a per-pixel order-sensitive hash of
 * the fragments written, used by the tests to prove that tile scheduling
 * never changes the rendered output.
 */

#ifndef LIBRA_GPU_RASTER_BLEND_UNIT_HH
#define LIBRA_GPU_RASTER_BLEND_UNIT_HH

#include <cstdint>
#include <vector>

#include "common/geom.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace libra
{

/** Per-tile blender with a busy-until throughput model. */
class BlendUnit
{
  public:
    BlendUnit(std::uint32_t tile_size, std::uint32_t quads_per_cycle);

    /** Start a new tile at @p rect; clears the color buffer and the
     *  throughput clock. */
    void beginTile(const IRect &rect);

    /**
     * Accept @p quads quads that became ready at @p ready.
     * @return the tick blending of this batch completes.
     */
    Tick acceptQuads(Tick ready, std::uint32_t quads);

    /** Functionally blend the fragments of the quad at (@p quad_x,
     *  @p quad_y) with coverage @p mask into the hash image. */
    void blendQuad(std::int32_t quad_x, std::int32_t quad_y,
                   std::uint8_t mask, std::uint32_t prim_id);

    /** Color-buffer contents for the current tile (pixel hashes). */
    const std::vector<std::uint64_t> &colorBuffer() const { return color; }

    const IRect &tileRect() const { return rect; }

    Counter quadsBlended;
    Counter fragmentsWritten;

  private:
    std::uint32_t tileSize;
    std::uint32_t quadsPerCycle;
    IRect rect;
    Tick readyAt = 0;
    std::vector<std::uint64_t> color;
};

} // namespace libra

#endif // LIBRA_GPU_RASTER_BLEND_UNIT_HH
