/**
 * @file
 * The scheduling-policy interface: one object per tile-ordering
 * mechanism (paper §III-B/§III-D and the ablation variants).
 *
 * TileScheduler historically owned a switch over SchedulerPolicy that
 * mixed three concerns: the per-frame *decision* (traversal order and
 * supertile size), the *ranking* (temperature table) and the handout
 * mechanics (per-RU cursors, hot/cold ends). The decision + ranking
 * half is what varies between mechanisms, so it is extracted here: a
 * SchedulingPolicy consumes last frame's feedback and returns a
 * FramePlan; TileScheduler keeps only the handout mechanics.
 *
 * The contract every policy must satisfy (enforced mechanically by
 * tests/test_policy_conformance.cc, see DESIGN.md §12):
 *
 *  - planFrame() is deterministic: same feedback sequence, same plans;
 *  - the plan is complete: its supertile queue covers every tile of
 *    the grid exactly once at the plan's supertile size;
 *  - rankingCycles is attributed honestly: a policy that performed no
 *    ranking this frame must report 0 (the FramePlan it returns is a
 *    fresh value object, so stale attribution from a previous frame is
 *    impossible by construction);
 *  - cross-frame state, if any, round-trips through exportState() /
 *    importState() (the default implementations are for stateless
 *    policies and serialize nothing).
 */

#ifndef LIBRA_CORE_SCHEDULING_POLICY_HH
#define LIBRA_CORE_SCHEDULING_POLICY_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/scheduler_config.hh"
#include "gpu/tiling/tile_grid.hh"

namespace libra
{

class SnapshotWriter;
class SnapshotReader;

/** Everything a policy may use from the previous frame. */
struct FrameFeedback
{
    bool valid = false;
    std::uint64_t rasterCycles = 0;
    double textureHitRatio = 1.0;
    std::vector<std::uint64_t> tileDramAccesses;
    std::vector<std::uint64_t> tileInstructions;
};

/**
 * One frame's schedule, returned by value from planFrame() so every
 * field is freshly attributed each frame.
 */
struct FramePlan
{
    /** Hot/cold handout: RU 0..hot-1 pull the front, the rest the
     *  back. False = plain FIFO handout of the queue. */
    bool temperatureOrder = false;

    /** Supertile side the queue below is expressed in. */
    std::uint32_t supertileSize = 1;

    /** Cycles the ranking hardware spent building this plan; 0 when
     *  the policy did not rank (§III-E hides this under geometry). */
    std::uint64_t rankingCycles = 0;

    /** Supertiles to hand out: hot/front ... cold/back. */
    std::deque<SuperTileId> queue;
};

class SchedulingPolicy
{
  public:
    virtual ~SchedulingPolicy() = default;

    /** Stable identifier (schedulerPolicyName of the mechanism). */
    virtual const char *name() const = 0;

    /** Build the coming frame's plan from last frame's feedback. */
    virtual FramePlan planFrame(const FrameFeedback &prev) = 0;

    /** Serialize/restore cross-frame policy state. The defaults are
     *  the stateless contract: nothing written, nothing read. */
    virtual void exportState(SnapshotWriter &w) const;
    virtual void importState(SnapshotReader &r);
};

/**
 * Factory: the policy object for @p cfg.policy, planning over @p grid.
 * @p cfg must already be clamped to the grid (TileScheduler does this
 * before constructing its policy).
 */
std::unique_ptr<SchedulingPolicy>
makeSchedulingPolicy(const SchedulerConfig &cfg, const TileGrid &grid);

} // namespace libra

#endif // LIBRA_CORE_SCHEDULING_POLICY_HH
