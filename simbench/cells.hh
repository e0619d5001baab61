/**
 * @file
 * The benchmark's workloads ("cells"): one benchmark, one policy, one
 * scale and one access budget each, built through the same makeConfig
 * path m5sim uses.  README.md says why each cell exists.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hh"
#include "sim/experiment.hh"

namespace simbench {

struct Cell
{
    std::string name;      //!< Workload name on the command line.
    std::string benchmark; //!< Table 3 benchmark.
    m5::PolicyKind policy;
    double scale_denom;    //!< System scale 1/scale_denom.
    std::uint64_t accesses; //!< Post-L2 accesses per simulated run.
};

/** Every cell, in BENCHMARK.json order. */
const std::vector<Cell> &cells();

/** The named cell, or nullptr. */
const Cell *findCell(const std::string &name);

/** The cell's SystemConfig: makeConfig(benchmark, policy, 1/denom, seed). */
m5::SystemConfig cellConfig(const Cell &cell, std::uint64_t seed);

/**
 * Empty when the config is fit for a timed run: profiler, telemetry and
 * event tracing off and no fault plan.  Otherwise, what is wrong.
 */
std::string plainConfigError(const m5::SystemConfig &cfg);

/**
 * The simulated end-to-end metrics of one run (deterministic).
 * `steady_ns` is the simulated length of the post-warmup window.
 */
std::vector<Metric> simulatedMetrics(const m5::RunResult &r,
                                     std::uint64_t steady_ns);

/** A deterministic per-layer count or ratio, with the ratio's base. */
struct CountMetric
{
    Metric metric;
    std::uint64_t base = 0; //!< Denominator; 0 for plain counts.
    bool is_ratio = false;
};

/** The deterministic per-layer counts of one run. */
std::vector<CountMetric> countMetrics(const m5::RunResult &r,
                                      const m5::StatRegistry &stats,
                                      const m5::KernelLedger &ledger);

/** A registered counter's value, or 0 when the cell does not build it. */
std::uint64_t counterOr0(const m5::StatRegistry &stats,
                         const std::string &name);

} // namespace simbench
