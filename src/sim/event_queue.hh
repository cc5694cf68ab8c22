/**
 * @file
 * Global event queue driving the timing simulation.
 *
 * libra-sim is event-driven: every latency-bearing resource schedules a
 * callback at the tick where its state changes, instead of being ticked
 * every cycle. Events scheduled for the same tick execute in scheduling
 * order (a stable sequence number breaks ties) so simulations are fully
 * deterministic.
 *
 * Performance (the simulator's own hot path — a single FHD frame is
 * hundreds of thousands of events):
 *
 *  - Near events live in a single-level timing wheel of kWheel buckets,
 *    one tick per bucket. Every wheel entry lies in [now, now + kWheel),
 *    so bucket (when % kWheel) holds exactly tick `when`. Each bucket is
 *    an intrusive FIFO of pool slot indices (head/tail per bucket, one
 *    link per slot): schedule appends in O(1), runOne pops the current
 *    bucket's head in O(1), and a two-level occupancy bitmap finds the
 *    next non-empty bucket with two count-trailing-zeros when the
 *    current one is empty.
 *  - Events kWheel or more ticks ahead go to a POD min-heap of
 *    {when, seq, slot}, used only as an overflow. Whenever the clock
 *    advances, overflow entries that now fall inside the window move
 *    into their buckets in (when, seq) order before any event of the
 *    new tick runs.
 *  - Callbacks live in a side pool recycled through a free-list, so
 *    steady-state scheduling performs no allocation and neither the
 *    wheel nor the overflow heap ever moves a callback.
 *
 * Why the wheel is order-exact. Within a bucket, append order is seq
 * order, and events scheduled for the current tick while it drains are
 * appended to that same FIFO. The one subtle case is a tick X reached
 * both through the overflow and directly: the overflow entry was
 * scheduled at some t1 <= X - kWheel, a direct append for X can only
 * happen at some t2 > X - kWheel, and the first clock advance past
 * X - kWheel migrates the overflow entry before anything runs at t2.
 * So the overflow entry is always ahead in the FIFO, as its smaller seq
 * requires.
 *
 * Why kWheel = 1024. Over a 960x544 CCS frame under LIBRA, 99.8% of
 * 8.06M schedules land fewer than 128 ticks ahead, 0.004% land 1024 or
 * more ahead, none 4096 or more, and fewer than 256 events are ever
 * pending. The overflow heap therefore stays tiny and its O(log n)
 * sifts are off the hot path.
 *
 * The observable semantics — execution in (when, seq) order — are
 * identical to a plain heap-of-events design; the differential
 * equivalence suite pins that down with byte-identical counter dumps.
 */

#ifndef LIBRA_SIM_EVENT_QUEUE_HH
#define LIBRA_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/callback.hh"

namespace libra
{

class SnapshotWriter;
class SnapshotReader;

/**
 * Deferred work item.
 *
 * Inline capacity is 40 bytes: room for the largest audited in-tree
 * capture — a MemCallback (32 bytes) plus a completion Tick, the shape
 * of IdealMemory's fixed-latency completion. Cache and DRAM completion
 * events are smaller: they capture {owner, pool slot, tick} and run
 * the callback parked in the owner's CompletionPool. Captures up to
 * five pointers never allocate; larger captures fail to compile (see
 * callback.hh) — move shared state into a single shared_ptr block
 * instead.
 */
using EventCallback = SmallCallback<void(), 40>;

/**
 * Deterministic event queue: a timing wheel over pooled callback slots
 * for near events, with an overflow min-heap for far ones.
 *
 * A simulation owns exactly one EventQueue; components keep a reference
 * and schedule callbacks against it. Time only moves forward: scheduling
 * in the past is a simulator bug.
 */
class EventQueue
{
  public:
    /** Wheel size in ticks: events this far ahead or more overflow. */
    static constexpr Tick kWheel = 1024;

    EventQueue()
    {
        buckets.fill(Bucket{kNil, kNil});
        overflow.reserve(kInitialCapacity);
        slots.reserve(kInitialCapacity);
        links.reserve(kInitialCapacity);
        freeSlots.reserve(kInitialCapacity);
    }
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Tick now() const { return curTick; }

    /** Schedule @p cb to run at absolute tick @p when (>= now()). */
    void schedule(Tick when, EventCallback cb);

    /** Schedule @p cb to run @p delta ticks from now. */
    void scheduleAfter(Tick delta, EventCallback cb)
    {
        schedule(curTick + delta, std::move(cb));
    }

    bool empty() const { return wheelCount == 0 && overflow.empty(); }

    std::size_t pending() const { return wheelCount + overflow.size(); }

    /** Tick of the earliest pending event (maxTick when empty). */
    Tick nextEventTick() const
    {
        if (buckets[bucketOf(curTick)].head != kNil)
            return curTick;
        return nextTickAfterNow();
    }

    /**
     * Pop and execute the earliest event, advancing now().
     * @return false when the queue was empty.
     */
    bool runOne();

    /**
     * Run until the queue drains or the next event is past @p limit.
     * @return the number of events executed.
     */
    std::uint64_t runUntil(Tick limit = maxTick);

    /** Total events executed since construction. */
    std::uint64_t eventsExecuted() const { return executed; }

    /**
     * Serialize the clock state (now, sequence, executed). Only legal
     * on a drained queue — pending events are transient frame-internal
     * machinery and are never snapshotted (see check/snapshot.hh).
     */
    void exportState(SnapshotWriter &w) const;

    /** Restore what exportState() wrote; requires an empty queue. */
    void importState(SnapshotReader &r);

  private:
    /**
     * Pre-reserved capacity of the callback pool, its links, its
     * free-list and the overflow heap. Scheduling is allocation-free
     * until the number of *pending* events first exceeds this (the
     * vectors then grow geometrically, as usual).
     */
    static constexpr std::size_t kInitialCapacity = 1024;

    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static constexpr std::size_t kWords = kWheel / 64;
    static_assert((kWheel & (kWheel - 1)) == 0 && kWords <= 64,
                  "kWheel must be a power of two of at most 4096");

    /** Intrusive FIFO of pool slots; tail is meaningful only when
     *  head != kNil. */
    struct Bucket
    {
        std::uint32_t head;
        std::uint32_t tail;
    };

    /** Overflow-heap element: plain data only. The callback stays put
     *  in slots[slot] until execution. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    static std::size_t bucketOf(Tick when)
    {
        return static_cast<std::size_t>(when & (kWheel - 1));
    }

    /** Earliest pending tick, given that bucket(now) is empty. */
    Tick nextTickAfterNow() const;

    /** Move now() to @p when (<= every pending event) and migrate the
     *  overflow entries that fall inside the new window. */
    void advanceClock(Tick when);

    /** Append slot @p slot to the FIFO of bucket @p b. */
    void append(std::size_t b, std::uint32_t slot);

    /** Take a pool slot for @p cb (free-list first, then grow). */
    std::uint32_t acquireSlot(EventCallback &&cb);

    /** Pop the head of non-empty bucket @p b, execute and release it. */
    void runHead(std::size_t b);

    std::array<Bucket, kWheel> buckets;
    /** Bit b%64 of word b/64 is set iff bucket b is non-empty. */
    std::array<std::uint64_t, kWords> occupied{};
    /** Bit w is set iff occupied[w] != 0. */
    std::uint64_t occupiedWords = 0;
    std::size_t wheelCount = 0;

    std::vector<HeapEntry> overflow;

    /** Callback pool; slot indices are stable for a callback's whole
     *  pendency. links[slot] is the next slot in the same bucket. */
    std::vector<EventCallback> slots;
    std::vector<std::uint32_t> links;
    std::vector<std::uint32_t> freeSlots;

    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
};

} // namespace libra

#endif // LIBRA_SIM_EVENT_QUEUE_HH
