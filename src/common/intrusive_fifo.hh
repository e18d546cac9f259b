/**
 * @file
 * Intrusive singly-linked FIFO.
 *
 * One template behind every pointer queue in the simulator (stream
 * queues, the runtime's token-bucket, M2func-slot and CXL.io-direct
 * waits, MSHR waiters and stalls, the controller's launch queue):
 * elements are chained through a pointer member of their own, so push
 * and pop never touch the allocator. The link member follows SlabPool's
 * convention — `T::next` by default, or e.g. `&MemPacket::link` — and an
 * element sits in at most one FIFO or pool freelist at a time. Move-only:
 * a copy would alias the chain.
 */

#pragma once

#include <cstddef>
#include <utility>

namespace m2ndp {

template <typename T, auto NextMember = &T::next>
class IntrusiveFifo
{
  public:
    IntrusiveFifo() = default;
    IntrusiveFifo(IntrusiveFifo &&other) noexcept { *this = std::move(other); }

    IntrusiveFifo &
    operator=(IntrusiveFifo &&other) noexcept
    {
        head_ = std::exchange(other.head_, nullptr);
        tail_ = std::exchange(other.tail_, nullptr);
        size_ = std::exchange(other.size_, 0);
        return *this;
    }

    bool empty() const { return head_ == nullptr; }
    std::size_t size() const { return size_; }
    /** Oldest element; the FIFO must not be empty. */
    T *front() const { return head_; }

    /** Append @p obj (its link member is overwritten). */
    void
    push(T *obj)
    {
        obj->*NextMember = nullptr;
        (tail_ != nullptr ? tail_->*NextMember : head_) = obj;
        tail_ = obj;
        ++size_;
    }

    /** Unlink the oldest element (link cleared); must not be empty. */
    T *
    pop()
    {
        T *obj = head_;
        head_ = std::exchange(obj->*NextMember, nullptr);
        if (head_ == nullptr)
            tail_ = nullptr;
        --size_;
        return obj;
    }

  private:
    T *head_ = nullptr;
    T *tail_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace m2ndp
