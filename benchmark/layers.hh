/**
 * @file
 * Layer-counter snapshot for the benchmark ledger.
 *
 * snapshot() reads every public statistics accessor of a System (units,
 * D-TLBs, L1/L2 caches, DRAM, the request crossbar, the NDP controller,
 * device stats, both directions of every CXL link, every host port, the
 * runtimes' stats and the engine's event count) into one flat map of
 * named raw counters, summed over devices, units and slices. Two
 * snapshots around a batch give that batch's counters by subtraction;
 * layerRatios() turns such a delta into the per-layer ratios the ledger
 * reports (hit rates, per-message costs, occupancies).
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "system/system.hh"

namespace ledger {

/** Named raw counters ("l1.read_hits", "link.messages", ...). */
using Counters = std::map<std::string, double>;

/**
 * Read every public counter of @p sys plus the stats of @p runtimes
 * (runtimes are owned by the workload, not the System).
 */
Counters snapshot(m2ndp::System &sys,
                  const std::vector<const m2ndp::NdpRuntime *> &runtimes);

/**
 * after - before, key by key. High-water marks (keys starting with
 * "peak.") keep the later value: they are not additive.
 */
Counters delta(const Counters &after, const Counters &before);

/** Per-layer ratios of a counter delta, keyed by ledger metric name. */
Counters layerRatios(const Counters &d);

} // namespace ledger
