#include "gpu/raster/rasterizer.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace libra
{

TriangleSetup::TriangleSetup(const Triangle &tri, const Texture &tex)
{
    v[0] = tri.v[0].pos.xy();
    v[1] = tri.v[1].pos.xy();
    v[2] = tri.v[2].pos.xy();
    uvs[0] = tri.v[0].uv;
    uvs[1] = tri.v[1].uv;
    uvs[2] = tri.v[2].uv;
    zs[0] = tri.v[0].pos.z;
    zs[1] = tri.v[1].pos.z;
    zs[2] = tri.v[2].pos.z;

    area2 = cross2(v[1] - v[0], v[2] - v[0]);
    if (area2 < 0.0f) {
        // Normalize winding so the interior is the positive side of
        // every edge function.
        std::swap(v[1], v[2]);
        std::swap(uvs[1], uvs[2]);
        std::swap(zs[1], zs[2]);
        area2 = -area2;
    }

    for (int i = 0; i < 3; ++i) {
        const Vec2 e = v[(i + 1) % 3] - v[i];
        edgeVec[i] = e;
        // Tie-break rule for pixels exactly on an edge: a boundary pixel
        // belongs to exactly one of the two triangles sharing the edge
        // (the shared edge is traversed in opposite directions, and the
        // predicate below differs under e → -e).
        edgeAccepts[i] = e.y < 0.0f || (e.y == 0.0f && e.x > 0.0f);
    }

    // Affine attribute gradients from the vertex deltas.
    const float inv_det = 1.0f / area2;
    const Vec2 d1 = v[1] - v[0];
    const Vec2 d2 = v[2] - v[0];
    auto gradient = [&](float a0, float a1, float a2, float &ddx,
                        float &ddy) {
        ddx = ((a1 - a0) * d2.y - (a2 - a0) * d1.y) * inv_det;
        ddy = ((a2 - a0) * d1.x - (a1 - a0) * d2.x) * inv_det;
    };
    gradient(zs[0], zs[1], zs[2], dzdx, dzdy);
    z0 = zs[0];
    float du_dx, du_dy, dv_dx, dv_dy;
    gradient(uvs[0].x, uvs[1].x, uvs[2].x, du_dx, du_dy);
    gradient(uvs[0].y, uvs[1].y, uvs[2].y, dv_dx, dv_dy);
    dudx = {du_dx, dv_dx};
    dudy = {du_dy, dv_dy};
    uv0 = uvs[0];

    // LOD from the larger of the two screen-axis texel footprints.
    const float w = static_cast<float>(tex.width());
    const float h = static_cast<float>(tex.height());
    const float fx = std::sqrt(du_dx * w * du_dx * w
                               + dv_dx * h * dv_dx * h);
    const float fy = std::sqrt(du_dy * w * du_dy * w
                               + dv_dy * h * dv_dy * h);
    _texelsPerPixel = std::max(fx, fy);
    _mip = tri.useMips
        ? static_cast<std::uint8_t>(
              std::min<std::uint32_t>(tex.selectMip(_texelsPerPixel), 255))
        : 0;
}

namespace
{

/** Quads per side of a pre-cull block (8x8 pixels). */
constexpr std::int32_t kBlockQuads = 4;

/** Pre-cull verdict of one block against the triangle. */
enum class BlockCover : std::uint8_t
{
    Outside, //!< no pixel center inside: emit nothing
    Inside,  //!< every pixel center strictly inside all three edges
    Partial  //!< undecided: run the per-pixel test
};

} // namespace

void
TriangleSetup::rasterize(const IRect &rect, RasterOutput &out) const
{
    // Clip the triangle bbox to the target rectangle.
    const float min_xf = std::min({v[0].x, v[1].x, v[2].x});
    const float max_xf = std::max({v[0].x, v[1].x, v[2].x});
    const float min_yf = std::min({v[0].y, v[1].y, v[2].y});
    const float max_yf = std::max({v[0].y, v[1].y, v[2].y});
    IRect box{std::max(rect.x0,
                       static_cast<std::int32_t>(std::floor(min_xf))),
              std::max(rect.y0,
                       static_cast<std::int32_t>(std::floor(min_yf))),
              std::min(rect.x1,
                       static_cast<std::int32_t>(std::ceil(max_xf))),
              std::min(rect.y1,
                       static_cast<std::int32_t>(std::ceil(max_yf)))};
    if (box.empty())
        return;

    // Snap to even coordinates: quads are 2x2-aligned in screen space.
    // Both pixels of an edge quad are tested, so the scanned pixel
    // columns run from qx0 to qx0 + 2 * quad_cols - 1 (rows alike).
    const std::int32_t qx0 = box.x0 & ~1;
    const std::int32_t qy0 = box.y0 & ~1;
    const std::int32_t quad_cols = (box.x1 - qx0 + 1) / 2;
    const std::int32_t quad_rows = (box.y1 - qy0 + 1) / 2;
    out.blocksScanned += static_cast<std::uint32_t>(quad_cols * quad_rows);

    // Column terms, once per call. Each is the very subexpression the
    // per-pixel formula evaluates first, so reusing it changes no bit.
    out.columns.resize(static_cast<std::size_t>(quad_cols));
    for (std::int32_t qc = 0; qc < quad_cols; ++qc) {
        RasterOutput::ColumnTerms &col = out.columns[qc];
        const std::int32_t qx = qx0 + 2 * qc;
        col.inRect = 0;
        for (int dx = 0; dx < 2; ++dx) {
            const std::int32_t px = qx + dx;
            const float cx = static_cast<float>(px) + 0.5f;
            for (int e = 0; e < 3; ++e)
                col.edge[dx][e] = edgeVec[e].y * (cx - v[e].x);
            col.z[dx] = z0 + dzdx * (cx - v[0].x);
            if (px >= rect.x0 && px < rect.x1)
                col.inRect |= static_cast<std::uint8_t>(0b0101 << dx);
        }
        const float cx = static_cast<float>(qx) + 1.0f;
        col.uv = {uv0.x + dudx.x * (cx - v[0].x),
                  uv0.y + dudx.y * (cx - v[0].x)};
    }

    // Pre-cull of one block of kBlockQuads^2 quads. The edge function
    // is affine, so its exact range over the block's pixel centers is
    // set by the corners (the centers are exact in float and double).
    // The float evaluation per pixel is within 3 units of relative
    // rounding of exact, plus underflow, so a margin of 8 units plus a
    // tiny absolute term makes a decision here agree with the
    // per-pixel test. NaN or a huge bound leaves the block Partial.
    auto classify = [&](std::int32_t px_a, std::int32_t px_b,
                        std::int32_t py_a, std::int32_t py_b) {
        const double xa = px_a + 0.5, xb = px_b + 0.5;
        const double ya = py_a + 0.5, yb = py_b + 0.5;
        bool inside = true;
        for (int e = 0; e < 3; ++e) {
            const double ex = edgeVec[e].x, ey = edgeVec[e].y;
            const double r_a = ex * (ya - v[e].y), r_b = ex * (yb - v[e].y);
            const double c_a = ey * (xa - v[e].x), c_b = ey * (xb - v[e].x);
            const double bound = std::max(std::fabs(r_a), std::fabs(r_b))
                + std::max(std::fabs(c_a), std::fabs(c_b));
            if (!(bound < 0x1p100))
                return BlockCover::Partial;
            const double margin = bound * 0x1p-21 + 0x1p-120;
            const double w_max = std::max(r_a, r_b) - std::min(c_a, c_b);
            const double w_min = std::min(r_a, r_b) - std::max(c_a, c_b);
            if (w_max < -margin)
                return BlockCover::Outside;
            inside = inside && w_min > margin;
        }
        return inside ? BlockCover::Inside : BlockCover::Partial;
    };

    for (std::int32_t qr = 0; qr < quad_rows; ++qr) {
        const std::int32_t qy = qy0 + 2 * qr;
        if (qr % kBlockQuads == 0) {
            const std::int32_t last_row =
                qy0 + 2 * std::min(qr + kBlockQuads, quad_rows) - 1;
            for (std::int32_t b = 0; b * kBlockQuads < quad_cols; ++b) {
                const std::int32_t qc_end =
                    std::min((b + 1) * kBlockQuads, quad_cols);
                const BlockCover bc =
                    classify(qx0 + 2 * kBlockQuads * b,
                             qx0 + 2 * qc_end - 1, qy, last_row);
                for (std::int32_t qc = b * kBlockQuads; qc < qc_end; ++qc)
                    out.columns[qc].cover = static_cast<std::uint8_t>(bc);
            }
        }

        // Row terms for the quad row's two pixel rows.
        float row_edge[2][3];
        float row_z[2];
        std::uint8_t row_in_rect = 0;
        for (int dy = 0; dy < 2; ++dy) {
            const std::int32_t py = qy + dy;
            const float cy = static_cast<float>(py) + 0.5f;
            for (int e = 0; e < 3; ++e)
                row_edge[dy][e] = edgeVec[e].x * (cy - v[e].y);
            row_z[dy] = dzdy * (cy - v[0].y);
            if (py >= rect.y0 && py < rect.y1)
                row_in_rect |= static_cast<std::uint8_t>(0b0011 << (2 * dy));
        }
        const float cy = static_cast<float>(qy) + 1.0f;
        const Vec2 row_uv{dudy.x * (cy - v[0].y), dudy.y * (cy - v[0].y)};

        for (std::int32_t qc = 0; qc < quad_cols; ++qc) {
            const RasterOutput::ColumnTerms &col = out.columns[qc];
            const auto bc = static_cast<BlockCover>(col.cover);
            if (bc == BlockCover::Outside)
                continue;
            std::uint8_t mask = col.inRect & row_in_rect;
            if (bc == BlockCover::Partial) {
                // The per-pixel test. It has no side effects, so all
                // three edges are evaluated instead of stopping early.
                for (int bit = 0; bit < 4; ++bit) {
                    bool inside = true;
                    for (int e = 0; e < 3; ++e) {
                        const float w =
                            row_edge[bit >> 1][e] - col.edge[bit & 1][e];
                        inside &= !(w < 0.0f
                                    || (w == 0.0f && !edgeAccepts[e]));
                    }
                    if (!inside)
                        mask &= static_cast<std::uint8_t>(~(1 << bit));
                }
            }
            if (mask == 0)
                continue;
            // Filled in place: a local Quad copied in costs a
            // store-forwarding stall per quad.
            Quad &quad = out.quads.emplace_back();
            quad.px = static_cast<std::uint16_t>(qx0 + 2 * qc);
            quad.py = static_cast<std::uint16_t>(qy);
            quad.mask = mask;
            quad.mip = _mip;
            // An uncovered fragment keeps depth 0.
            for (int bit = 0; bit < 4; ++bit) {
                const float z = col.z[bit & 1] + row_z[bit >> 1];
                quad.z[bit] = mask & (1 << bit) ? z : 0.0f;
            }
            quad.uv = {col.uv.x + row_uv.x, col.uv.y + row_uv.y};
        }
    }
}

} // namespace libra
