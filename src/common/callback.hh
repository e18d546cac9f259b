/**
 * @file
 * Small-buffer-optimized, move-only callable wrapper.
 *
 * The simulation hot loop creates one callback per event and per memory
 * packet. `std::function` heap-allocates for any capture larger than its
 * tiny internal buffer and requires copyability; InlineCallback instead
 * stores captures up to kInlineBytes (48 B) directly inline and accepts
 * move-only callables. It has no heap path: a larger capture is a compile
 * error, so every scheduling site performs zero allocations.
 */

#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace m2ndp {

template <typename Signature>
class InlineCallback; // undefined primary: only R(Args...) is valid

template <typename R, typename... Args>
class InlineCallback<R(Args...)>
{
  public:
    /** Capture budget: larger callables do not compile. */
    static constexpr std::size_t kInlineBytes = 48;

    InlineCallback() noexcept = default;
    InlineCallback(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineCallback(F &&f)
    {
        emplace(std::forward<F>(f));
    }

    InlineCallback(InlineCallback &&other) noexcept { moveFrom(other); }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineCallback &
    operator=(F &&f)
    {
        reset();
        emplace(std::forward<F>(f));
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Destroy the held callable (no-op if empty). */
    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(&storage_);
            ops_ = nullptr;
        }
    }

    R
    operator()(Args... args)
    {
        return ops_->invoke(&storage_, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename F>
    static constexpr bool kFitsInline =
        sizeof(F) <= kInlineBytes &&
        alignof(F) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<F>;

    template <typename F>
    struct InlineModel
    {
        static R
        invoke(void *s, Args &&...args)
        {
            return (*std::launder(reinterpret_cast<F *>(s)))(
                std::forward<Args>(args)...);
        }
        static void
        relocate(void *dst, void *src) noexcept
        {
            F *from = std::launder(reinterpret_cast<F *>(src));
            ::new (dst) F(std::move(*from));
            from->~F();
        }
        static void
        destroy(void *s) noexcept
        {
            std::launder(reinterpret_cast<F *>(s))->~F();
        }
        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

    template <typename F>
    void
    emplace(F &&f)
    {
        using Fd = std::decay_t<F>;
        static_assert(kFitsInline<Fd>,
                      "InlineCallback capture exceeds the 48 B inline budget "
                      "(or is over-aligned / throwing-move): capture a "
                      "pointer to pooled or per-request state instead");
        ::new (static_cast<void *>(&storage_)) Fd(std::forward<F>(f));
        ops_ = &InlineModel<Fd>::ops;
    }

    void
    moveFrom(InlineCallback &other) noexcept
    {
        if (other.ops_ != nullptr) {
            other.ops_->relocate(&storage_, &other.storage_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace m2ndp
