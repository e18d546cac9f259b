/**
 * @file
 * Intrusive slab-backed object pool.
 *
 * One template behind every hot-path record pool in the simulator (event
 * nodes, LaunchRecord, HostAccess, M2FuncCall, KernelInstance,
 * P2P routes; MemPacket keeps a per-thread variant): objects are
 * carved out of slabs that live for the pool's lifetime and recycled
 * through an intrusive freelist, so steady-state acquire/release cycles
 * never touch the allocator. Single-threaded like the rest of the
 * simulator.
 *
 * T must be default-constructible and expose a pointer member usable as
 * the freelist link while the object is pooled (by default `T::next`;
 * pass e.g. `&MemPacket::link` to reuse a differently-named field). The
 * link member is owned by the pool only while the object is free — in
 * flight it is the caller's to use (wait-queue chains etc.), which is
 * exactly how the pre-template pools behaved.
 */

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace m2ndp {

template <typename T, auto NextMember = &T::next,
          std::size_t SlabObjects = 64>
class SlabPool
{
  public:
    SlabPool() = default;

    SlabPool(const SlabPool &) = delete;
    SlabPool &operator=(const SlabPool &) = delete;

    /**
     * Pop a recycled object (or carve a fresh slab). The link member is
     * cleared; all other fields hold whatever the previous user left —
     * callers reset what they care about, as the hand-rolled pools did.
     */
    T *
    acquire()
    {
        if (free_head_ == nullptr)
            grow();
        T *obj = free_head_;
        free_head_ = obj->*NextMember;
        obj->*NextMember = nullptr;
        ++live_;
        return obj;
    }

    /** Push @p obj back on the freelist. */
    void
    release(T *obj)
    {
        obj->*NextMember = free_head_;
        free_head_ = obj;
        --live_;
    }

    /** Objects currently acquired (for leak checks in tests). */
    std::size_t live() const { return live_; }

    /** Total objects ever carved (capacity watermarking). */
    std::size_t capacity() const { return slabs_.size() * SlabObjects; }

  private:
    void
    grow()
    {
        slabs_.push_back(std::make_unique<T[]>(SlabObjects));
        T *slab = slabs_.back().get();
        for (std::size_t i = 0; i < SlabObjects; ++i) {
            slab[i].*NextMember = free_head_;
            free_head_ = &slab[i];
        }
    }

    T *free_head_ = nullptr;
    std::size_t live_ = 0;
    std::vector<std::unique_ptr<T[]>> slabs_;
};

} // namespace m2ndp
