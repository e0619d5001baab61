/**
 * @file
 * Outside-in per-layer host timing.  The simulator itself carries no
 * spans here: the workload's access stream is captured from a replica
 * of the cell and replayed through standalone instances of each layer's
 * public entry point, built from the cell's own configs.  Each loop is
 * timed as a whole with ProfClock, giving ns per call; the real run's
 * call counts then weight it into ns per simulated access.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "metrics.hh"
#include "sim/system.hh"

namespace simbench {

/**
 * Replay `accesses` accesses of the cell described by `cfg` through
 * every layer.  `real` and `real_stats` come from the real run of the
 * same config and supply the per-access call counts.  Layer order is
 * fixed: workloads.next, cache.tlb.access, os.page_table.walk,
 * cache.llc.access, mem.access, cxl.observe, sketch.cm.update (nested
 * in cxl.observe), os.migration.promote, os.migration.demote.
 */
std::vector<LayerCost> replayLayers(const m5::SystemConfig &cfg,
                                    std::uint64_t accesses,
                                    const m5::RunResult &real,
                                    const m5::StatRegistry &real_stats);

} // namespace simbench
