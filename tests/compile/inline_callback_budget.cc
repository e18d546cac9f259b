/**
 * @file
 * Compile-time check of InlineCallback's 48 B capture budget, built by the
 * inline_callback_budget_* ctests. It schedules an event whose lambda
 * captures exactly CAPTURE_BYTES bytes: at 48 the TU must compile, and at
 * 56 the static_assert in common/callback.hh must reject it.
 */

#include "sim/event_queue.hh"

#ifndef CAPTURE_BYTES
#error "build with -DCAPTURE_BYTES=<n>"
#endif

struct Capture
{
    unsigned char bytes[CAPTURE_BYTES];
};

void
scheduleCapture(m2ndp::EventQueue &eq, const Capture &c)
{
    auto cb = [c] { (void)c.bytes[0]; };
    static_assert(sizeof(cb) == CAPTURE_BYTES);
    eq.schedule(1, std::move(cb));
}
