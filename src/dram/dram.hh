/**
 * @file
 * Cycle-level DRAM timing model (Ramulator-style abstraction level).
 *
 * Models per-channel bank state machines (activate / precharge / column
 * commands with tRC / tRCD / tCL / tRP / tCCD), an open-row policy with
 * FR-FCFS-lite scheduling (row hits first, then oldest), and a shared data
 * bus whose burst occupancy sets the channel bandwidth ceiling.
 *
 * Presets follow Table IV of the paper:
 *  - LPDDR5: 32 channels x 12.8 GB/s = 409.6 GB/s, 32 B access granularity
 *  - DDR5-6400: 8 channels x 51.2 GB/s = 409.6 GB/s, 64 B
 *  - HBM2: 32 channels x 32 GB/s = 1024 GB/s, 32 B
 *
 * Refresh is not modeled (uniform few-percent bandwidth tax that does not
 * change any cross-configuration comparison); noted in DESIGN.md.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"
#include "mem/packet.hh"
#include "sim/event_queue.hh"

namespace m2ndp {

/** Timing and organization parameters for one DRAM channel type. */
struct DramTiming
{
    std::string name;
    Tick tck;                  ///< command clock period (ticks)
    unsigned n_rc;             ///< ACT-to-ACT, same bank (cycles)
    unsigned n_rcd;            ///< ACT-to-column (cycles)
    unsigned n_cl;             ///< column-to-data (cycles)
    unsigned n_rp;             ///< PRE-to-ACT (cycles)
    unsigned n_ccd;            ///< column-to-column, same channel (cycles)
    unsigned burst_cycles;     ///< data-bus occupancy per access (cycles)
    unsigned banks;            ///< banks per channel (bankgroups folded in)
    std::uint32_t access_bytes; ///< device access granularity (32 or 64 B)
    std::uint64_t row_bytes;   ///< row-buffer coverage per channel

    /** LPDDR5 channel per Table IV (12.8 GB/s per channel). */
    static DramTiming lpddr5();
    /** DDR5-6400 channel per Table IV (51.2 GB/s per channel). */
    static DramTiming ddr5();
    /** HBM2 channel per Table IV (32 GB/s per channel). */
    static DramTiming hbm2();
};

/** Aggregate statistics for a DRAM device. */
struct DramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    std::uint64_t bytes = 0;
    Tick busy_ticks = 0; ///< data-bus occupancy (for utilization)

    double
    rowHitRate() const
    {
        std::uint64_t total = row_hits + row_misses;
        return total == 0 ? 0.0
                          : static_cast<double>(row_hits) /
                                static_cast<double>(total);
    }
};

/**
 * Maps physical addresses to (channel, bank, row) with fine-grained hashed
 * interleaving across channels at @p interleave_bytes granularity [Rau'91].
 */
class DramAddressMap
{
  public:
    DramAddressMap(unsigned channels, const DramTiming &timing,
                   std::uint64_t interleave_bytes = 256);

    struct Coords
    {
        unsigned channel;
        unsigned bank;
        std::uint64_t row;
    };

    Coords decode(Addr local_addr) const;
    unsigned channels() const { return channels_; }

  private:
    unsigned channels_;
    unsigned banks_;
    std::uint64_t interleave_;
    std::uint64_t blocks_per_row_;
};

/** One DRAM channel: bank timing state machines + data bus token clock. */
class DramChannel
{
  public:
    DramChannel(EventQueue &eq, const DramTiming &timing, unsigned index);

    /**
     * Book an access decoded to this channel, logically arriving at
     * @p at (>= now; fused upstream stages push early). Booking happens
     * immediately — the bank state machine and bus token clock advance
     * with the arrival tick as a floor, so no scheduler event is needed
     * to make sim-time catch up first (the next-free-tick pattern).
     * Pure timing + stats: @return the access's data tick; the owning
     * DramDevice parks any completion on its device-level drain heap.
     */
    Tick book(const MemPacket &pkt, unsigned bank, std::uint64_t row,
              Tick at);

    const DramStats &stats() const { return stats_; }

  private:
    struct BankState
    {
        bool row_open = false;
        std::uint64_t open_row = 0;
        Tick next_act = 0;  ///< earliest next ACT (tRC from last ACT)
        Tick col_ready = 0; ///< earliest column command to the open row
    };

    Tick cycles(unsigned n) const { return static_cast<Tick>(n) * timing_.tck; }

    EventQueue &eq_;
    DramTiming timing_;
    unsigned index_;
    std::vector<BankState> banks_;
    Tick next_col_ = 0; ///< tCCD spacing between column commands
    DramStats stats_;
};

/**
 * A multi-channel DRAM device (the media behind one CXL expander, or the
 * local memory of a host model).
 */
class DramDevice : public MemPort
{
  public:
    /**
     * @p drain_quantum quantizes drain *delivery* (the tick the completer
     * event fires at) up to multiples of that period; completion ticks
     * themselves stay exact. The CXL expander passes its NDP-unit cycle
     * period: units already park completions and act on them at the next
     * cycle edge, so aligning the drain to those edges coalesces
     * completer events with unit edges without moving any unit-visible
     * timing. 0 (the default, used by the host memory models) drains at
     * the exact data tick.
     */
    DramDevice(EventQueue &eq, const DramTiming &timing, unsigned channels,
               std::uint64_t interleave_bytes = 256, Tick drain_quantum = 0);

    /** Releases packets still parked in the completion ready-heap. */
    ~DramDevice();

    /** MemPort: route the packet to its channel. */
    void receive(MemPacketPtr pkt) override;

    /** Fused delivery: logical arrival at @p at (>= now). */
    void receiveAt(MemPacketPtr pkt, Tick at) override;

    /** Which channel an address maps to (for L2-slice placement). */
    unsigned channelOf(Addr local_addr) const;

    DramStats totalStats() const;
    const DramChannel &channel(unsigned i) const { return *channels_[i]; }
    unsigned numChannels() const { return static_cast<unsigned>(channels_.size()); }

    /** Accesses booked but not yet completed (across all channels). */
    std::size_t pendingCompletions() const { return ready_.size(); }

    /** Peak bandwidth in bytes/second across all channels. */
    double peakBandwidth() const;

    const DramTiming &timing() const { return timing_; }

  private:
    /** One booked access awaiting its data tick (batched completion). */
    struct ReadyEntry
    {
        MemPacket *pkt;
        Tick when;
        std::uint64_t seq; ///< FIFO tie-break for same-tick completions
    };

    /** Min-heap order on (when, seq) for std::push_heap/pop_heap. */
    static bool
    readyAfter(const ReadyEntry &a, const ReadyEntry &b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    /** Drain booked accesses whose data tick has been reached. */
    void completeReady();

    EventQueue &eq_;
    DramTiming timing_;
    DramAddressMap map_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    /**
     * Booked accesses waiting for their data tick, as one *device-level*
     * min-heap on (when, seq) drained by one Ticker. Same-tick
     * completions coalesce into a single event even across channels —
     * with 32 channels booking in lock-step this replaces 32 concurrent
     * channel tickers (most of the residual DRAM event cost) with one.
     * The device-global seq preserves booking order as the tie-break, so
     * the drain order matches what the per-channel heaps produced.
     */
    /** Round a drain tick up to the delivery quantum (see constructor). */
    Tick
    drainEdge(Tick t) const
    {
        return drain_quantum_ == 0
                   ? t
                   : ((t + drain_quantum_ - 1) / drain_quantum_) *
                         drain_quantum_;
    }

    std::vector<ReadyEntry> ready_;
    std::uint64_t ready_seq_ = 0;
    Tick drain_quantum_ = 0;
    Ticker completer_;
};

} // namespace m2ndp
