#include "mem/sparse_memory.hh"

#include <algorithm>

namespace m2ndp {

SparseMemory::Page::~Page()
{
    for (auto &frame : frames_)
        delete[] frame.load(std::memory_order_relaxed);
}

SparseMemory::Page &
SparseMemory::pageFor(Addr addr)
{
    Shard &s = shardFor(addr);
    std::lock_guard<std::mutex> lk(s.mu);
    std::unique_ptr<Page> &page = s.pages[addr / kPageBytes];
    if (!page)
        page = std::make_unique<Page>();
    return *page;
}

const SparseMemory::Page *
SparseMemory::findPage(Addr addr) const
{
    Shard &s = shardFor(addr);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.pages.find(addr / kPageBytes);
    return it == s.pages.end() ? nullptr : it->second.get();
}

std::uint8_t *
SparseMemory::allocFrame(Page &page, Addr addr)
{
    Shard &s = shardFor(addr);
    std::lock_guard<std::mutex> lk(s.mu);
    std::atomic<std::uint8_t *> &slot = page.frames_[Page::index(addr)];
    // Another partition may have published the frame since find().
    if (std::uint8_t *frame = slot.load(std::memory_order_relaxed))
        return frame;
    auto *frame = new std::uint8_t[kFrameSize](); // zero-filled
    slot.store(frame, std::memory_order_release);
    ++s.frames;
    return frame;
}

void
SparseMemory::read(Addr addr, void *out, std::uint64_t size) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (size > 0) {
        std::uint64_t chunk = std::min(size, kPageBytes - (addr & kPageMask));
        if (const Page *page = findPage(addr))
            read(*page, addr, dst, chunk);
        else
            std::memset(dst, 0, chunk);
        addr += chunk;
        dst += chunk;
        size -= chunk;
    }
}

void
SparseMemory::write(Addr addr, const void *in, std::uint64_t size)
{
    const auto *src = static_cast<const std::uint8_t *>(in);
    while (size > 0) {
        std::uint64_t chunk = std::min(size, kPageBytes - (addr & kPageMask));
        write(pageFor(addr), addr, src, chunk);
        addr += chunk;
        src += chunk;
        size -= chunk;
    }
}

namespace {

template <typename T>
std::uint64_t
amoTypedApply(void *p, AmoOp op, std::uint64_t operand)
{
    T old;
    std::memcpy(&old, p, sizeof(T));
    auto rhs = static_cast<T>(operand);
    T result = old;
    using S = std::make_signed_t<T>;
    switch (op) {
      case AmoOp::Add:
        result = static_cast<T>(old + rhs);
        break;
      case AmoOp::Swap:
        result = rhs;
        break;
      case AmoOp::And:
        result = old & rhs;
        break;
      case AmoOp::Or:
        result = old | rhs;
        break;
      case AmoOp::Xor:
        result = old ^ rhs;
        break;
      case AmoOp::Max:
        result = static_cast<S>(old) > static_cast<S>(rhs) ? old : rhs;
        break;
      case AmoOp::Min:
        result = static_cast<S>(old) < static_cast<S>(rhs) ? old : rhs;
        break;
      case AmoOp::MaxU:
        result = old > rhs ? old : rhs;
        break;
      case AmoOp::MinU:
        result = old < rhs ? old : rhs;
        break;
    }
    std::memcpy(p, &result, sizeof(T));
    return static_cast<std::uint64_t>(old);
}

} // namespace

std::uint64_t
amoApply(void *p, AmoOp op, std::uint64_t operand, unsigned width)
{
    switch (width) {
      case 4:
        return amoTypedApply<std::uint32_t>(p, op, operand);
      case 8:
        return amoTypedApply<std::uint64_t>(p, op, operand);
      default:
        M2_PANIC("unsupported AMO width: ", width);
    }
}

std::uint64_t
amoExecute(SparseMemory &mem, AmoOp op, Addr addr, std::uint64_t operand,
           unsigned width)
{
    std::uint64_t buf = 0;
    mem.read(addr, &buf, width);
    std::uint64_t old = amoApply(&buf, op, operand, width);
    mem.write(addr, &buf, width);
    return old;
}

} // namespace m2ndp
