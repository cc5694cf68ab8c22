#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "check/snapshot.hh"
#include "common/log.hh"

namespace libra
{

std::uint32_t
EventQueue::acquireSlot(EventCallback &&cb)
{
    if (!freeSlots.empty()) {
        const std::uint32_t slot = freeSlots.back();
        freeSlots.pop_back();
        slots[slot] = std::move(cb);
        return slot;
    }
    const std::uint32_t slot = static_cast<std::uint32_t>(slots.size());
    slots.push_back(std::move(cb));
    links.push_back(kNil);
    return slot;
}

void
EventQueue::append(std::size_t b, std::uint32_t slot)
{
    links[slot] = kNil;
    Bucket &bucket = buckets[b];
    if (bucket.head == kNil) {
        bucket.head = slot;
        occupied[b / 64] |= std::uint64_t{1} << (b % 64);
        occupiedWords |= std::uint64_t{1} << (b / 64);
    } else {
        links[bucket.tail] = slot;
    }
    bucket.tail = slot;
    ++wheelCount;
}

void
EventQueue::schedule(Tick when, EventCallback cb)
{
    libra_assert(when >= curTick,
                 "scheduling in the past: ", when, " < ", curTick);
    const std::uint32_t slot = acquireSlot(std::move(cb));
    if (when - curTick < kWheel) {
        // Append order is seq order, so the seq itself need not be kept.
        ++nextSeq;
        append(bucketOf(when), slot);
        return;
    }
    overflow.push_back(HeapEntry{when, nextSeq++, slot});
    std::push_heap(overflow.begin(), overflow.end(), Later{});
}

Tick
EventQueue::nextTickAfterNow() const
{
    if (wheelCount == 0)
        return overflow.empty() ? maxTick : overflow.front().when;
    // Every wheel entry precedes every overflow entry, so the next
    // occupied bucket after bucket(now), circularly, holds the answer.
    const std::size_t b = bucketOf(curTick);
    const std::size_t w = b / 64;
    std::size_t found = 0;
    const std::uint64_t rest = occupied[w] & (~std::uint64_t{0} << (b % 64));
    if (rest != 0) {
        found = w * 64 + static_cast<std::size_t>(std::countr_zero(rest));
    } else {
        // Words after w first; otherwise wrap to the lowest occupied
        // word (possibly w itself, below bit b % 64).
        const std::uint64_t later =
            occupiedWords & (~std::uint64_t{1} << w);
        const std::size_t word = static_cast<std::size_t>(
            std::countr_zero(later ? later : occupiedWords));
        found = word * 64 +
                static_cast<std::size_t>(std::countr_zero(occupied[word]));
    }
    return curTick + ((found - b) & (kWheel - 1));
}

void
EventQueue::advanceClock(Tick when)
{
    libra_assert(when >= curTick, "event queue clock moving backwards");
    curTick = when;
    // Overflow entries come out in (when, seq) order, and no direct
    // append can yet have targeted a tick they migrate into.
    while (!overflow.empty() && overflow.front().when - curTick < kWheel) {
        std::pop_heap(overflow.begin(), overflow.end(), Later{});
        const HeapEntry e = overflow.back();
        overflow.pop_back();
        append(bucketOf(e.when), e.slot);
    }
}

void
EventQueue::runHead(std::size_t b)
{
    Bucket &bucket = buckets[b];
    const std::uint32_t slot = bucket.head;
    bucket.head = links[slot];
    if (bucket.head == kNil) {
        occupied[b / 64] &= ~(std::uint64_t{1} << (b % 64));
        if (occupied[b / 64] == 0)
            occupiedWords &= ~(std::uint64_t{1} << (b / 64));
    }
    --wheelCount;
    // Move the callback out before invoking: the callback may schedule
    // new events, which may recycle this very slot.
    EventCallback cb = std::move(slots[slot]);
    freeSlots.push_back(slot);
    ++executed;
    cb();
}

bool
EventQueue::runOne()
{
    std::size_t b = bucketOf(curTick);
    if (buckets[b].head == kNil) {
        if (empty())
            return false;
        advanceClock(nextTickAfterNow());
        b = bucketOf(curTick);
    }
    runHead(b);
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t count = 0;
    while (!empty() && nextEventTick() <= limit) {
        runOne();
        ++count;
    }
    return count;
}

void
EventQueue::exportState(SnapshotWriter &w) const
{
    libra_assert(empty(), "event-queue snapshot with pending events");
    w.putU64(curTick);
    w.putU64(nextSeq);
    w.putU64(executed);
}

void
EventQueue::importState(SnapshotReader &r)
{
    libra_assert(empty(), "event-queue restore into a non-empty queue");
    curTick = r.takeU64();
    nextSeq = r.takeU64();
    executed = r.takeU64();
}

} // namespace libra
