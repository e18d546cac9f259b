/**
 * @file
 * Typed error taxonomy for the offload stack.
 *
 * Every layer that used to signal failure with a bare negative int64
 * (`kNdpErr`) now draws its codes from `NdpError`. The wire encoding is
 * unchanged — errors still travel as negative int64 values through the
 * M2func return slots and the `instance_id` field of launch records, so
 * kernel-instance ids (always positive) and error codes share one
 * channel exactly as before. What changed is that the value now says
 * *which* failure occurred, and `NdpEvent::error()` decodes it for the
 * application.
 *
 * Error classes, by origin:
 *  - launch-time rejections raised by the controller (InvalidKernel,
 *    QueueFull, BadPoolRegion, BadLaunchLayout),
 *  - registration failures (RegistrationFailed, IllegalInstruction),
 *  - kernel traps raised mid-execution by `NdpUnit` and the executor
 *    (UnmappedAddress, ScratchpadOverflow, IllegalInstruction),
 *  - supervision (WatchdogTimeout from the controller watchdog),
 *  - transport (DeviceLost when a CXL link goes down),
 *  - stream policy (Aborted for queued launches cancelled by fail-fast),
 *  - admission control (Overloaded for bounded-queue rejection and
 *    DeadlineExceeded for expired-deadline shedding — docs/robustness.md
 *    "Overload protection").
 */

#pragma once

#include <cstdint>

#include "common/units.hh"

namespace m2ndp {

enum class NdpError : std::int64_t
{
    Ok = 0,
    /** Legacy catch-all; numerically equal to the old kNdpErr = -1. */
    Unknown = -1,
    /** Launch names a kernel this ASID never registered. */
    InvalidKernel = -2,
    /** Controller launch queue at capacity. */
    QueueFull = -3,
    /** Launch pool region has bound < base. */
    BadPoolRegion = -4,
    /** Kernel registration failed (resources, text readback). */
    RegistrationFailed = -5,
    /** Kernel text did not assemble / contains an unknown uop. */
    IllegalInstruction = -6,
    /** Kernel accessed a virtual address with no mapping. */
    UnmappedAddress = -7,
    /** Kernel accessed scratchpad beyond its declared allocation. */
    ScratchpadOverflow = -8,
    /** Instance exceeded the controller's watchdog cycle budget. */
    WatchdogTimeout = -9,
    /** The device's CXL link went down; the device is unreachable. */
    DeviceLost = -10,
    /** Queued launch cancelled by a fail-fast stream after an error. */
    Aborted = -11,
    /**
     * Admission control rejected the launch: a bounded stream or device
     * launch queue was at capacity (host-side backpressure, distinct
     * from the device controller's QueueFull). Retryable — the Retry
     * policy backs off through the tenant rate limiter before
     * re-submitting.
     */
    Overloaded = -13,
    /**
     * The launch carried a sim-time deadline that expired before it
     * reached the device; it was shed without occupying a launch slot.
     * Never retried (the deadline is absolute; a re-issue cannot meet
     * it).
     */
    DeadlineExceeded = -14,
    /** A batched launch store at the base LaunchKernel offset, where
     *  its second half would answer through PollKernelStatus's. */
    BadLaunchLayout = -15,
};

/** Decode an id/return-channel value into the typed enum. */
constexpr NdpError
ndpErrorOf(std::int64_t v)
{
    if (v >= 0)
        return NdpError::Ok;
    if (v < static_cast<std::int64_t>(NdpError::DeadlineExceeded))
        return NdpError::Unknown;
    return static_cast<NdpError>(v);
}

/** Stable human-readable name (for logs, stats dumps, tests). */
const char *ndpErrorName(NdpError e);

/**
 * Thrown when a kernel instruction faults: by `NdpUnit` on an unmapped
 * address or a scratchpad overflow, by the executor on an instruction
 * shape the model does not run. Caught at the issue stage, where the
 * trapping uthread is retired and the owning instance is killed; it
 * never propagates past `NdpUnit::issueOne`.
 */
struct KernelTrap
{
    NdpError code;
    Addr va = 0;
};

} // namespace m2ndp
