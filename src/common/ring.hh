/**
 * @file
 * FIFO on a growable power-of-two ring, addressed by absolute index.
 *
 * The n-th element pushed since the last clear() has index n and lives
 * in slot n & mask until it is popped, so a caller can hold an index
 * (say, the first quad of a warp) across later pushes and pops. When
 * the ring is full, push_back doubles the capacity and re-homes the
 * live elements under the same indices. pop_front() and clear() keep
 * the slots, and the resources inside them, for reuse: a steady state
 * pushes and pops without touching the heap, where std::deque
 * allocates and frees a node every few hundred bytes of traffic.
 */

#ifndef LIBRA_COMMON_RING_HH
#define LIBRA_COMMON_RING_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace libra
{

template <class T>
class Ring
{
  public:
    bool empty() const { return head == tail; }
    std::size_t size() const { return static_cast<std::size_t>(tail - head); }

    /** Index of the front element (of the next push when empty). */
    std::uint64_t headIndex() const { return head; }
    /** Index the next push_back() will get. */
    std::uint64_t tailIndex() const { return tail; }

    T &front() { return slots[head & mask]; }
    const T &front() const { return slots[head & mask]; }

    /** Element at absolute index @p i, which must be live. */
    T &operator[](std::uint64_t i) { return slots[i & mask]; }
    const T &operator[](std::uint64_t i) const { return slots[i & mask]; }

    /** Append; @return the element's index. */
    std::uint64_t
    push_back(T value)
    {
        if (size() == slots.size())
            grow();
        slots[tail & mask] = std::move(value);
        return tail++;
    }

    /** Drop the @p n front elements. */
    void pop_front(std::size_t n = 1) { head += n; }

    /** Drop every element and restart the indices at 0. */
    void clear() { head = tail = 0; }

  private:
    void
    grow()
    {
        std::vector<T> bigger(slots.empty() ? 8 : 2 * slots.size());
        const std::uint64_t bigger_mask = bigger.size() - 1;
        for (std::uint64_t i = head; i != tail; ++i)
            bigger[i & bigger_mask] = std::move(slots[i & mask]);
        slots.swap(bigger);
        mask = bigger_mask;
    }

    std::vector<T> slots;
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    std::uint64_t mask = 0;
};

} // namespace libra

#endif // LIBRA_COMMON_RING_HH
