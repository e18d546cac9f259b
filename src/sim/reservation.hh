/**
 * @file
 * The next-free booking rule shared by every contended resource.
 */

#pragma once

#include <algorithm>

#include "common/units.hh"
#include "sim/event_queue.hh"

namespace m2ndp {

/**
 * A single-server resource booked in call order: a booking requested at
 * @p at starts at `max(at, free)` and holds the resource for @p cost
 * ticks. The CXL link directions, crossbar output ports, cache lookup
 * ports, passive-media links and the DRAM tCCD bus clock all book
 * through this one rule.
 *
 * Fused paths book at logical ticks ahead of `now()`, so each booking
 * also raises its queue's `maxBookingLookahead()` to `start - now()`
 * when that is larger: how far ahead of the simulated present any
 * resource has been committed.
 *
 * DRAM bank state (`col_ready`, `next_act`) is deliberately not a
 * Reservation: tRP/tRCD/tRC chain off the column tick rather than
 * holding a resource for one fixed cost, so DramChannel keeps them
 * explicit.
 */
class Reservation
{
  public:
    /** Book @p cost ticks no earlier than @p at. @return the start tick. */
    Tick
    book(EventQueue &eq, Tick at, Tick cost)
    {
        Tick start = std::max(at, free_);
        free_ = start + cost;
        eq.noteBooking(start);
        return start;
    }

  private:
    Tick free_ = 0;
};

} // namespace m2ndp
