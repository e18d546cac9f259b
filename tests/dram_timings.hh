/**
 * @file
 * DRAM timings the device does not use, for tests that check the DRAM
 * model against other Table IV media (the expander itself is LPDDR5,
 * DramTiming::lpddr5()).
 */

#pragma once

#include "dram/dram.hh"

namespace m2ndp::test {

/** DDR5-6400 channel: 51.2 GB/s with 64 B granularity, one 64 B burst
 *  per 1.25 ns; 1.6 GHz command clock, so a burst takes 2 cycles. */
inline DramTiming
ddr5Timing()
{
    return DramTiming{
        .tck = 625,
        .n_rc = 149,
        .n_rcd = 46,
        .n_cl = 46,
        .n_rp = 46,
        .n_ccd = 2,
        .burst_cycles = 2,
        .banks = 32,
        .access_bytes = 64,
        .row_bytes = 8192,
    };
}

/** HBM2 pseudo-channel: 32 GB/s with 32 B granularity, one 32 B burst
 *  per 1 ns; 1 GHz command clock, so a burst takes 1 cycle. */
inline DramTiming
hbm2Timing()
{
    return DramTiming{
        .tck = 1000,
        .n_rc = 48,
        .n_rcd = 14,
        .n_cl = 14,
        .n_rp = 15,
        .n_ccd = 1,
        .burst_cycles = 1,
        .banks = 16,
        .access_bytes = 32,
        .row_bytes = 1024,
    };
}

} // namespace m2ndp::test
