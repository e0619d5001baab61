#include "cells.hh"

#include "os/costs.hh"

namespace simbench {

using namespace m5;

const std::vector<Cell> &
cells()
{
    // 2M accesses keep one simulated run at ~1-2.5 s of host time, so a
    // 30 s measurement holds a dozen or more runs to take a median
    // over.  m5_mcf is ROADMAP's bench cell verbatim.  2M is below
    // accessBudget(); on anb_redis it stops in the promotion ramp
    // (README.md, Workloads).
    static const std::vector<Cell> all = {
        {"m5_mcf", "mcf_r", PolicyKind::M5HptDriven, 128, 2'000'000},
        {"anb_redis", "redis", PolicyKind::Anb, 16, 2'000'000},
        {"none_pr", "pr", PolicyKind::None, 16, 2'000'000},
    };
    return all;
}

const Cell *
findCell(const std::string &name)
{
    for (const Cell &c : cells()) {
        if (c.name == name)
            return &c;
    }
    return nullptr;
}

SystemConfig
cellConfig(const Cell &cell, std::uint64_t seed)
{
    return makeConfig(cell.benchmark, cell.policy, 1.0 / cell.scale_denom,
                      seed);
}

std::string
plainConfigError(const SystemConfig &cfg)
{
    if (cfg.prof.enabled())
        return "profiler enabled in a timed run";
    if (!cfg.telemetry.path.empty())
        return "telemetry enabled in a timed run";
    if (cfg.trace.enabled())
        return "event tracing enabled in a timed run";
    if (!cfg.faults.empty())
        return "fault plan set in a timed run";
    return {};
}

std::vector<Metric>
simulatedMetrics(const RunResult &r, std::uint64_t steady_ns)
{
    const double runtime = static_cast<double>(r.runtime);
    const double kernel_ns =
        static_cast<double>(cyclesToNs(r.kernel_total_cycles));
    // Batch workloads have no request model: their one request is the
    // whole steady window, so the "p99" is that window's length.
    const double p99_ns = r.p99_request > 0.0
        ? r.p99_request : static_cast<double>(steady_ns);
    return {
        {"sim_steady_mops", r.steady_throughput / 1e6, "M/sim_s"},
        {"sim_kernel_pct", runtime > 0 ? 100.0 * kernel_ns / runtime : 0.0,
         "%"},
        {"sim_cxl_read_pct",
         ratioPct(r.steady_cxl_read_bytes,
                  r.steady_ddr_read_bytes + r.steady_cxl_read_bytes).value,
         "%"},
        {"sim_p99_request_us", p99_ns / 1e3, "sim_us"},
    };
}

std::uint64_t
counterOr0(const StatRegistry &stats, const std::string &name)
{
    return stats.has(name) ? stats.counter(name) : 0;
}

std::vector<CountMetric>
countMetrics(const RunResult &r, const StatRegistry &stats,
             const KernelLedger &ledger)
{
    const MigrationStats &m = r.migration;
    auto count = [](const std::string &name, std::uint64_t v,
                    const std::string &unit) {
        return CountMetric{{name, static_cast<double>(v), unit}, 0, false};
    };
    auto ratioMetric = [](const std::string &name, Ratio q,
                          const std::string &unit) {
        return CountMetric{{name, q.value, unit}, q.base, true};
    };
    const std::uint64_t sketch_updates =
        counterOr0(stats, "cxl.hpt.observed") +
        counterOr0(stats, "cxl.hwt.observed");
    const std::uint64_t attempts = m.promoted + m.rejected_pinned +
                                   m.rejected_not_cxl + m.failed_capacity +
                                   m.transient_fail;

    std::vector<CountMetric> out = {
        ratioMetric("cache.tlb.miss_pct",
                    ratioPct(r.tlb.misses, r.tlb.hits + r.tlb.misses), "%"),
        ratioMetric("cache.llc.miss_pct",
                    ratioPct(r.llc.misses, r.llc.hits + r.llc.misses), "%"),
        ratioMetric("cxl.snooped_per_access",
                    ratio(counterOr0(stats, "cxl.ctrl.snooped"), r.accesses),
                    "1/access"),
        ratioMetric("sketch.updates_per_access",
                    ratio(sketch_updates, r.accesses), "1/access"),
        count("os.migration.pages_promoted", m.promoted, "count"),
        count("os.migration.pages_demoted", m.demoted, "count"),
        ratioMetric("os.migration.success_pct",
                    ratioPct(m.promoted, attempts), "%"),
        count("os.migration.retries", m.retries, "count"),
        ratioMetric("os.migration.txn_commit_pct",
                    ratioPct(r.txn.commits, r.txn.commits + r.txn.aborts),
                    "%"),
        ratioMetric("os.migration.free_demote_pct",
                    ratioPct(r.txn.demoted_free, m.demoted), "%"),
        count("os.anb.faults_handled",
              counterOr0(stats, "os.anb.faults_handled"), "count"),
    };
    const std::pair<KernelWork, const char *> kernel[] = {
        {KernelWork::PteScan, "pte_scan"},
        {KernelWork::TlbShootdown, "tlb_shootdown"},
        {KernelWork::HintFault, "hint_fault"},
        {KernelWork::Migration, "migration"},
        {KernelWork::ManagerUser, "manager_user"},
        {KernelWork::Baseline, "baseline"},
    };
    for (const auto &[work, name] : kernel) {
        out.push_back(CountMetric{
            {std::string("os.kernel.") + name + "_ms",
             static_cast<double>(cyclesToNs(ledger.category(work))) / 1e6,
             "sim_ms"},
            0, false});
    }
    out.push_back(count("m5.manager.wakeups",
                        counterOr0(stats, "m5.manager.wakeups"), "count"));
    out.push_back(ratioMetric(
        "m5.promoted_per_nominated_pct",
        ratioPct(counterOr0(stats, "m5.promoter.accepted"),
                 counterOr0(stats, "m5.nominator.nominated_pages")),
        "%"));
    return out;
}

} // namespace simbench
