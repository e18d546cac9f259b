/**
 * @file
 * Deterministic, seeded fault injection for the CXL link layer.
 *
 * Fault model (per direction-agnostic *message* — a request or response
 * flit train crossing the link in `CxlDirection::send`):
 *
 *  - **CRC bit-errors**: each wire bit flips with probability
 *    `bit_error_rate`; the per-message detection probability is
 *    `min(1, ber * bits)`. Real CXL links detect these with the flit CRC
 *    and resolve them in hardware via the link-layer retry buffer
 *    (LRSM replay), so the message is still delivered — the fault costs
 *    a replay round-trip (`kCrcReplayPenalty`) and is counted.
 *  - **Dropped flits**: with probability `drop_rate` the flit train is
 *    lost outright and recovered by an ack-timeout replay
 *    (`kDropReplayPenalty`) — delivered late, counted separately.
 *  - **Link down**: `CxlLink::forceLinkDown(t)` fails the link
 *    permanently from tick t on. This is the only *unrecoverable* fault:
 *    the host port aborts in-flight accesses with a typed error and the
 *    runtime marks the device lost. It is not drawn from the injector,
 *    so it needs no `FaultConfig` field.
 *
 * Replay-resolution (rather than silent message loss) keeps fault runs
 * hang-free: the deferred M2func return read always completes, so no
 * launch can wedge waiting for a reply that never comes. The replay
 * penalty *occupies the link direction* (it models the LRSM blocking
 * retransmit), so later messages queue behind it and per-direction FIFO
 * ordering survives injection — protocols that rely on a read never
 * overtaking the write it follows stay correct.
 *
 * Determinism: one `Rng` draw per message, consumed in simulation order
 * on a single-threaded event queue — same seed, same traffic, same
 * fault schedule, bit-exact stats. The injector is only constructed
 * armed when a fault class is actually configured; the disabled check
 * on the send path is a single predictable branch.
 */

#pragma once

#include <algorithm>
#include <cstdint>

#include "common/rng.hh"
#include "common/units.hh"

namespace m2ndp {

/** Latency cost of a CRC-triggered link-layer replay. */
inline constexpr Tick kCrcReplayPenalty = 100 * kNs;
/** Latency cost of an ack-timeout replay after a dropped flit. */
inline constexpr Tick kDropReplayPenalty = 500 * kNs;

/** Per-link fault-injection configuration (disabled by default). */
struct FaultConfig
{
    bool enabled = false;
    /** Seed for the per-link RNG (the System derives per-device seeds). */
    std::uint64_t seed = 0x5eedfa17u;
    /** Per wire-bit flip probability (CRC-detected, replay-resolved). */
    double bit_error_rate = 0.0;
    /** Per-message drop probability (ack-timeout replay). */
    double drop_rate = 0.0;
};

/** Fault counters, bit-exact across same-seed runs. */
struct FaultStats
{
    std::uint64_t messages_checked = 0;
    std::uint64_t crc_replays = 0;
    std::uint64_t dropped_flits = 0;
    /** Total replay latency added to message delivery. */
    Tick replay_ticks = 0;
};

/** Seeded per-link injector; owned by `CxlLink`. */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &cfg)
        : cfg_(cfg), rng_(cfg.seed)
    {
    }

    /** True when any fault class can actually fire. */
    bool
    armed() const
    {
        return cfg_.enabled &&
               (cfg_.bit_error_rate > 0.0 || cfg_.drop_rate > 0.0);
    }

    const FaultStats &stats() const { return stats_; }

    /**
     * Roll the dice for one message of @p bytes. Returns the extra
     * delivery latency (0 for a clean message). Exactly one RNG draw
     * per message, regardless of outcome, so the fault schedule is a
     * pure function of (seed, message sequence).
     */
    Tick
    onMessage(std::uint32_t bytes)
    {
        ++stats_.messages_checked;
        double u = rng_.nextDouble();
        if (u < cfg_.drop_rate) {
            ++stats_.dropped_flits;
            stats_.replay_ticks += kDropReplayPenalty;
            return kDropReplayPenalty;
        }
        double p_crc = std::min(
            1.0, cfg_.bit_error_rate * static_cast<double>(bytes) * 8.0);
        if (u < cfg_.drop_rate + p_crc) {
            ++stats_.crc_replays;
            stats_.replay_ticks += kCrcReplayPenalty;
            return kCrcReplayPenalty;
        }
        return 0;
    }

  private:
    FaultConfig cfg_;
    Rng rng_;
    FaultStats stats_;
};

} // namespace m2ndp
