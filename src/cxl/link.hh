/**
 * @file
 * CXL link and protocol-stack latency model.
 *
 * CXL.mem: the paper's Fig. 2 breaks a CXL.mem round trip into ~52-70 ns of
 * protocol stack plus wire. We model each direction as a fixed stack+wire
 * latency plus bandwidth-arbitrated serialization (64 GB/s per direction for
 * CXL 3.0 / PCIe 6.0 x8, Table IV). Reads send a ~16 B M2S Req and receive a
 * 64 B S2M DRS; writes send a 64+16 B M2S RwD and receive an S2M NDR.
 *
 * CXL.io/PCIe: used only for device management and for the baseline
 * offloading schemes; it is modeled by its observed end-to-end latencies
 * (Section II-C): ~500 ns one-way, ~1.5 us for a direct-MMIO doorbell
 * round trip, ~4 us for a ring-buffer kernel launch.
 */

#pragma once

#include <cstdint>

#include "common/units.hh"
#include "cxl/fault.hh"
#include "sim/event_queue.hh"
#include "sim/reservation.hh"

namespace m2ndp {

class CxlLink;

/** CXL 3.0 / PCIe 6.0 x8 link rate per direction, GB/s (Table IV). */
inline constexpr double kCxlLinkGbps = 64.0;
/** M2S Req / S2M NDR size; also the header on every data message. */
inline constexpr std::uint32_t kCxlHeaderBytes = 16;

/** Configuration of one CXL.mem link (both directions symmetric). */
struct CxlLinkConfig
{
    Tick oneway_latency = 35000;  ///< stack + wire, one direction (35 ns)
};

/** Per-direction traffic statistics. */
struct CxlDirStats
{
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    Tick queueing = 0;
};

/**
 * One direction of a CXL link: fixed latency + serialization at the link
 * rate. Delivery returns the arrival tick; callers schedule their own
 * continuation. Each direction books time on the queue of the partition
 * that *sends* on it and owns its own fault injector, so the fault
 * schedule is a pure function of (direction seed, per-direction message
 * sequence) — thread-count independent under partitioned simulation.
 */
class CxlDirection
{
  public:
    CxlDirection(EventQueue &eq, const CxlLinkConfig &cfg, FaultConfig fault)
        : eq_(eq), cfg_(cfg), injector_(fault),
          faults_armed_(injector_.armed())
    {
    }

    /** Book transmission of @p bytes; @return arrival tick at the far end. */
    Tick send(std::uint32_t bytes);

    const CxlDirStats &stats() const { return stats_; }
    const FaultInjector &injector() const { return injector_; }

  private:
    friend class CxlLink;

    EventQueue &eq_;
    const CxlLinkConfig &cfg_;
    FaultInjector injector_;
    bool faults_armed_ = false;
    Reservation link_;
    CxlDirStats stats_;
};

/** A full-duplex CXL.mem link between host (upstream) and device. */
class CxlLink
{
  public:
    /**
     * Partitioned form: the host->device direction is sender-clocked on
     * @p host_eq, the device->host direction on @p dev_eq. Each gets an
     * independent injector seed derived from the base seed.
     */
    CxlLink(EventQueue &host_eq, EventQueue &dev_eq, CxlLinkConfig cfg = {},
            FaultConfig fault = {})
        : cfg_(cfg), down_(host_eq, cfg_, deriveFault(fault, 0xD0F7u)),
          up_(dev_eq, cfg_, deriveFault(fault, 0x09B1u))
    {
    }

    /** Single-queue form (raw benches, unit tests). */
    explicit CxlLink(EventQueue &eq, CxlLinkConfig cfg = {},
                     FaultConfig fault = {})
        : CxlLink(eq, eq, cfg, fault)
    {
    }

    const CxlLinkConfig &config() const { return cfg_; }

    /** Host -> device direction. */
    CxlDirection &down() { return down_; }
    /** Device -> host direction. */
    CxlDirection &up() { return up_; }

    // ---- fault injection (zero-cost when not armed) ----

    /**
     * Permanent link failure: the device behind it is unreachable at or
     * after tick @p t. A pure function of time — never of traffic — so
     * host- and device-side observers at different partition clocks agree
     * on exactly when the link died, independent of thread count.
     */
    bool isDownAt(Tick t) const { return forced_ && t >= forced_at_; }

    /**
     * Force the link down at @p at (tests, external supervision). Called
     * from non-event user code with all partitions parked.
     */
    void
    forceLinkDown(Tick at)
    {
        if (!forced_) {
            forced_ = true;
            forced_at_ = at;
        }
    }

    /** Force the link down at the host-side clock's current tick. */
    void forceLinkDown();

    /** Merged both-direction fault counters (bit-exact per seed). */
    FaultStats faultStats() const;

    /** Bytes on the wire for a read request (header only). */
    std::uint32_t readReqBytes() const { return kCxlHeaderBytes; }
    /** Bytes on the wire for a write request carrying @p payload bytes. */
    std::uint32_t
    writeReqBytes(std::uint32_t payload) const
    {
        return kCxlHeaderBytes + payload;
    }
    /** Bytes for a data response. */
    std::uint32_t
    dataRespBytes(std::uint32_t payload) const
    {
        return kCxlHeaderBytes + payload;
    }
    /** Bytes for a no-data response. */
    std::uint32_t ndrBytes() const { return kCxlHeaderBytes; }

  private:
    /** Derive an independent per-direction injector seed. */
    static FaultConfig deriveFault(FaultConfig fc, std::uint64_t salt);

    CxlLinkConfig cfg_;
    CxlDirection down_;
    CxlDirection up_;
    bool forced_ = false;  ///< forceLinkDown called
    Tick forced_at_ = 0;   ///< tick of the forced failure
};

/**
 * CXL.io/PCIe latency for the conventional NDP management schemes
 * (Section II-C and Fig. 5), modeled by its *observed* end-to-end cost;
 * y is the one-way CXL.io latency used in the Fig. 5 analysis.
 */
struct CxlIoConfig
{
    Tick oneway_latency = 500 * kNs; ///< y in Fig. 5
};

} // namespace m2ndp
