#include "common/error.hh"

namespace m2ndp {

const char *
ndpErrorName(NdpError e)
{
    switch (e) {
    case NdpError::Ok:
        return "ok";
    case NdpError::Unknown:
        return "unknown";
    case NdpError::InvalidKernel:
        return "invalid-kernel";
    case NdpError::QueueFull:
        return "queue-full";
    case NdpError::BadPoolRegion:
        return "bad-pool-region";
    case NdpError::RegistrationFailed:
        return "registration-failed";
    case NdpError::IllegalInstruction:
        return "illegal-instruction";
    case NdpError::UnmappedAddress:
        return "unmapped-address";
    case NdpError::ScratchpadOverflow:
        return "scratchpad-overflow";
    case NdpError::WatchdogTimeout:
        return "watchdog-timeout";
    case NdpError::DeviceLost:
        return "device-lost";
    case NdpError::Aborted:
        return "aborted";
    case NdpError::Overloaded:
        return "overloaded";
    case NdpError::DeadlineExceeded:
        return "deadline-exceeded";
    case NdpError::BadLaunchLayout:
        return "bad-launch-layout";
    }
    return "invalid-error-code";
}

} // namespace m2ndp
