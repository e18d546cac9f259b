#include "sim/event_queue.hh"

#include "common/annotations.hh"

namespace m2ndp {

EventQueue::~EventQueue() = default;

M2NDP_HOT_PATH
void
EventQueue::recycle(Event *ev)
{
    ev->cb.reset();
    event_pool_.release(ev);
}

M2NDP_HOT_PATH
void
EventQueue::siftUp(std::size_t i, Event *ev)
{
    while (i > 0) {
        std::size_t parent = (i - 1) / 4;
        Event *p = heap_[parent];
        if (!before(ev, p))
            break;
        heap_[i] = p;
        p->pos = i;
        i = parent;
    }
    heap_[i] = ev;
    ev->pos = i;
}

M2NDP_HOT_PATH
void
EventQueue::siftDown(std::size_t i, Event *ev)
{
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t last = std::min(first + 4, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(heap_[c], heap_[best]))
                best = c;
        }
        Event *child = heap_[best];
        if (!before(child, ev))
            break;
        heap_[i] = child;
        child->pos = i;
        i = best;
    }
    heap_[i] = ev;
    ev->pos = i;
}

M2NDP_HOT_PATH
EventQueue::Event *
EventQueue::scheduleNode(Tick when)
{
    M2_ASSERT(when >= now_, "scheduling in the past: ", when, " < ", now_);
    Event *ev = event_pool_.acquire();
    ev->when = when;
    ev->seq = seq_++;
    ++scheduled_total_;
    // The heap reaches its high-water capacity once, then recycles
    // storage. ndp-lint: allow(hotpath-alloc)
    heap_.push_back(ev);
    siftUp(heap_.size() - 1, ev);
    return ev;
}

M2NDP_HOT_PATH
void
EventQueue::removeAt(std::size_t i)
{
    // Fill the hole with the last entry, which may belong above or below
    // it; the compare against the hole's parent picks the direction.
    Event *moved = heap_.back();
    heap_.pop_back();
    if (i == heap_.size())
        return; // the hole was the last slot
    if (i > 0 && before(moved, heap_[(i - 1) / 4]))
        siftUp(i, moved);
    else
        siftDown(i, moved);
}

void
EventQueue::cancelEvent(Event *ev)
{
    M2_ASSERT(ev->pos < heap_.size() && heap_[ev->pos] == ev,
              "cancel of a non-pending event");
    removeAt(ev->pos);
    recycle(ev);
}

M2NDP_HOT_PATH
EventQueue::Event *
EventQueue::extractMin(Tick limit)
{
    if (heap_.empty() || heap_.front()->when > limit)
        return nullptr;
    Event *top = heap_.front();
    removeAt(0);
    return top;
}

M2NDP_HOT_PATH
void
EventQueue::dispatch(Event *ev)
{
    // Invoke in place: the node is already out of the heap, so events
    // scheduled from within the callback cannot alias it; it goes back to
    // the freelist (callback destroyed) right after.
    ev->cb();
    recycle(ev);
}

M2NDP_HOT_PATH
std::uint64_t
EventQueue::runLocal(Tick limit)
{
    std::uint64_t executed = 0;
    while (Event *ev = extractMin(limit)) {
        now_ = ev->when;
        dispatch(ev);
        ++executed;
    }
    if (now_ < limit && limit != kTickMax)
        now_ = limit;
    return executed;
}

M2NDP_HOT_PATH
bool
EventQueue::stepLocal()
{
    Event *ev = extractMin(kTickMax);
    if (ev == nullptr)
        return false;
    now_ = ev->when;
    dispatch(ev);
    return true;
}

M2NDP_HOT_PATH
std::uint64_t
EventQueue::runWindow(Tick bound)
{
    // Strictly-below-bound execution: `bound` is the round's conservative
    // lookahead edge, and events AT the edge belong to the next round
    // (they may race with mailbox arrivals stamped exactly at the edge).
    run_bound_ = bound;
    std::uint64_t executed = 0;
    while (Event *ev = extractMin(bound - 1)) {
        now_ = ev->when;
        dispatch(ev);
        ++executed;
    }
    run_bound_ = kTickMax;
    return executed;
}

M2NDP_HOT_PATH
bool
EventQueue::stepWindow(Tick bound)
{
    Event *ev = extractMin(bound - 1);
    if (ev == nullptr)
        return false;
    run_bound_ = bound;
    now_ = ev->when;
    dispatch(ev);
    run_bound_ = kTickMax;
    return true;
}

} // namespace m2ndp
