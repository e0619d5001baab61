/**
 * @file
 * simbench — the repository benchmark (README.md in this directory).
 *
 *   simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *   simbench --workload NAME [--seed N] --csv
 *
 * --trace 0 measures the end-to-end metrics: it builds and runs the
 * cell's TieredSystem repeatedly for S seconds and reports medians of
 * the host metrics beside the (deterministic) simulated ones.
 * --trace 1 reports the per-layer metrics: it alternates plain runs
 * with traced runs (a span around TieredSystem::run plus the replay in
 * replay.cc), then reruns once with the host profiler on.  Every run is
 * fingerprinted; a run that differs from the first, or breaks a
 * conservation identity, counts as a failed operation.  --csv prints
 * one run in m5sim's --csv format, to check that the benchmark builds
 * the machine m5sim runs.  The last stdout line of a measurement is
 * one JSON object: correct, attempted, failed, metrics.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cells.hh"
#include "common/env.hh"
#include "host.hh"
#include "metrics.hh"
#include "replay.hh"
#include "telemetry/prof.hh"

using namespace m5;
using namespace simbench;

namespace {

//! Lower bounds on samples per measurement, whatever --seconds says:
//! medians need a few runs, and set-up is cheap enough to repeat more.
constexpr std::size_t kMinRuns = 3;
constexpr std::size_t kMinTracePairs = 2;
constexpr std::size_t kMinSetups = 11;
constexpr double kSetupSeconds = 1.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 7;
    std::uint64_t seconds = 30;
    int trace = 0;
    bool csv = false;
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] | --csv\n",
                 msg.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto number = [&]() -> std::uint64_t {
            if (i + 1 >= argc)
                usageError("missing value for " + arg);
            const auto v = parseU64(argv[++i]);
            if (!v)
                usageError(arg + " wants a non-negative integer");
            return *v;
        };
        if (arg == "--workload") {
            if (i + 1 >= argc)
                usageError("missing value for --workload");
            opt.workload = argv[++i];
        } else if (arg == "--seed") {
            opt.seed = number();
        } else if (arg == "--seconds") {
            opt.seconds = number();
        } else if (arg == "--trace") {
            const std::uint64_t t = number();
            if (t > 1)
                usageError("--trace wants 0 or 1");
            opt.trace = static_cast<int>(t);
        } else if (arg == "--csv") {
            opt.csv = true;
        } else {
            usageError("unknown option '" + arg + "'");
        }
    }
    if (opt.workload.empty())
        usageError("--workload is required");
    return opt;
}

double
nowNs()
{
    return static_cast<double>(ProfClock::nowNs());
}

/** One constructed-and-run system with its host times. */
struct TimedRun
{
    std::unique_ptr<TieredSystem> sys;
    RunResult result;
    double setup_ns = 0.0;
    double run_ns = 0.0;
};

TimedRun
timedRun(const SystemConfig &cfg, std::uint64_t accesses)
{
    TimedRun t;
    const double t0 = nowNs();
    t.sys = std::make_unique<TieredSystem>(cfg);
    const double t1 = nowNs();
    t.result = t.sys->run(accesses);
    const double t2 = nowNs();
    t.setup_ns = t1 - t0;
    t.run_ns = t2 - t1;
    return t;
}

/** m5sim --csv's two lines for one run (see tools/m5sim.cc). */
void
printM5simCsv(const RunResult &r)
{
    const double ddr_frac =
        static_cast<double>(r.steady_ddr_read_bytes) /
        static_cast<double>(std::max<std::uint64_t>(
            1, r.steady_ddr_read_bytes + r.steady_cxl_read_bytes));
    std::printf("bench,policy,accesses,runtime_ms,steady_mops,kernel_pct,"
                "promoted,demoted,llc_miss,ddr_read_frac,p50_us,p99_us\n");
    std::printf("%s,%s,%lu,%.1f,%.3f,%.2f,%lu,%lu,%.4f,%.4f,%.2f,%.2f\n",
                r.benchmark.c_str(), r.policy.c_str(),
                static_cast<unsigned long>(r.accesses),
                static_cast<double>(r.runtime) / 1e6,
                r.steady_throughput / 1e6,
                100.0 * static_cast<double>(r.kernel_time) /
                    static_cast<double>(std::max<Tick>(1, r.runtime)),
                static_cast<unsigned long>(r.migration.promoted),
                static_cast<unsigned long>(r.migration.demoted),
                r.llc.missRatio(), ddr_frac, r.p50_request / 1e3,
                r.p99_request / 1e3);
}

/** Simulated length of the post-warmup window of a finished run. */
std::uint64_t
steadyNs(TieredSystem &sys, const RunResult &r)
{
    return r.runtime - sys.core().measureStart();
}

/** The fingerprint line (compare it across commits) and any failures. */
void
printChecks(const RunChecker &checker)
{
    std::printf("# fingerprint %016lx over %lu runs, %lu failed\n",
                static_cast<unsigned long>(checker.reference()),
                static_cast<unsigned long>(checker.attempted()),
                static_cast<unsigned long>(checker.failed()));
    for (const std::string &e : checker.errors())
        std::fprintf(stderr, "simbench: check failed: %s\n", e.c_str());
}

/** --trace 0: end-to-end metrics. */
int
measureEndToEnd(const Cell &cell, const SystemConfig &cfg,
                std::uint64_t accesses, double seconds, RunChecker &checker)
{
    const double deadline = nowNs() + seconds * 1e9;
    std::vector<double> rates;
    std::vector<double> setups;
    std::vector<Metric> simulated;
    double peak_rss_mb = 0.0;
    double last_ns = 0.0; // Stop before a run that would overrun.
    while (rates.size() < kMinRuns || nowNs() + last_ns < deadline) {
        const double t0 = nowNs();
        TimedRun t = timedRun(cfg, accesses);
        checker.check("run " + std::to_string(rates.size()), *t.sys,
                      t.result);
        if (simulated.empty()) {
            simulated = simulatedMetrics(t.result,
                                         steadyNs(*t.sys, t.result));
            peak_rss_mb = peakRssMb(); // One simulation's footprint.
        }
        rates.push_back(static_cast<double>(accesses) * 1e3 / t.run_ns);
        setups.push_back(t.setup_ns / 1e9);
        t.sys.reset();
        last_ns = nowNs() - t0;
    }
    // Set-up is short and noisy; repeat it on its own for at least
    // kSetupSeconds so its median rests on many samples.
    const double setup_deadline = nowNs() + kSetupSeconds * 1e9;
    while (setups.size() < kMinSetups || nowNs() < setup_deadline) {
        const double t0 = nowNs();
        auto sys = std::make_unique<TieredSystem>(cfg);
        setups.push_back((nowNs() - t0) / 1e9);
    }

    std::printf("# %s: %zu runs of %lu accesses; sim_rate_maps min %.4f "
                "median %.4f max %.4f\n",
                cell.name.c_str(), rates.size(),
                static_cast<unsigned long>(accesses),
                *std::min_element(rates.begin(), rates.end()),
                median(rates), *std::max_element(rates.begin(), rates.end()));
    std::vector<Metric> metrics = {
        {"sim_rate_maps", median(rates), "M/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    metrics.insert(metrics.end(), simulated.begin(), simulated.end());
    printChecks(checker);
    std::printf("%s\n", resultJson(checker.ok(), checker.attempted(),
                                   checker.failed(), metrics).c_str());
    return 0;
}

/** --trace 1: per-layer metrics. */
int
measureLayers(const Cell &cell, const SystemConfig &cfg,
              std::uint64_t accesses, double seconds, RunChecker &checker)
{
    const double deadline = nowNs() + seconds * 1e9;
    std::vector<double> plain_ns;
    std::vector<double> traced_ns;
    std::vector<std::vector<LayerCost>> replays;
    std::vector<CountMetric> counts;
    double last_ns = 0.0; // Stop before a pair that would overrun.
    while (traced_ns.size() < kMinTracePairs ||
           nowNs() + last_ns < deadline) {
        const double t0 = nowNs();
        const std::string pair = std::to_string(traced_ns.size());
        {
            TimedRun t = timedRun(cfg, accesses);
            checker.check("plain run " + pair, *t.sys, t.result);
            plain_ns.push_back(t.run_ns);
        }
        TimedRun t = timedRun(cfg, accesses);
        checker.check("traced run " + pair, *t.sys, t.result);
        traced_ns.push_back(t.run_ns);
        if (counts.empty())
            counts = countMetrics(t.result, t.sys->stats(), t.sys->ledger());
        replays.push_back(
            replayLayers(cfg, accesses, t.result, t.sys->stats()));
        last_ns = nowNs() - t0;
    }

    // The profiler only observes: the profiled rerun must match too.
    SystemConfig prof_cfg = cfg;
    prof_cfg.prof.collect = true;
    TimedRun prof = timedRun(prof_cfg, accesses);
    checker.check("profiled run", *prof.sys, prof.result);

    // Per-layer ns/call: the median over the traced runs' replays.
    std::vector<LayerCost> layers = replays.front();
    for (std::size_t i = 0; i < layers.size(); ++i) {
        std::vector<double> xs;
        for (const auto &rep : replays)
            xs.push_back(rep[i].ns_per_call);
        layers[i].ns_per_call = median(xs);
    }
    const double plain = median(plain_ns);
    const double traced = median(traced_ns);
    const double n = static_cast<double>(accesses);
    const Decomposition d = decompose(traced / n, layers, accesses);

    std::printf("# %s: %zu plain + %zu traced runs of %lu accesses\n",
                cell.name.c_str(), plain_ns.size(), traced_ns.size(),
                static_cast<unsigned long>(accesses));
    std::printf("# %-26s %10s %12s %14s %12s\n", "layer", "ns/call",
                "replay calls", "run calls", "ns/access");
    std::vector<Metric> metrics;
    for (const LayerCost &l : layers) {
        const double per_access = nsPerAccess(l, accesses);
        std::printf("# %-26s %10.2f %12lu %14lu %12.3f%s\n",
                    l.name.c_str(), l.ns_per_call,
                    static_cast<unsigned long>(l.replay_calls),
                    static_cast<unsigned long>(l.run_calls), per_access,
                    l.nested ? "  (inside cxl.observe)" : "");
        metrics.push_back({l.name + "_ns", per_access, "ns/access"});
    }
    std::printf("# layers %.3f + residual %.3f = sim.run %.3f ns/access "
                "(base: %lu accesses)\n",
                d.layers_ns_per_access, d.residual_ns_per_access,
                d.run_ns_per_access, static_cast<unsigned long>(accesses));
    metrics.push_back({"sim.run_ns_per_access", d.run_ns_per_access,
                       "ns/access"});
    metrics.push_back({"sim.residual_ns_per_access",
                       d.residual_ns_per_access, "ns/access"});
    std::printf("# bench.trace_overhead_pct %.3f %% (traced %.3f vs plain "
                "%.3f ns/access)\n",
                100.0 * (traced - plain) / plain, traced / n, plain / n);
    std::printf("# telemetry.prof_slowdown_x %.3f x (profiled %.3f "
                "ns/access)\n",
                prof.run_ns / plain, prof.run_ns / n);
    metrics.push_back({"bench.trace_overhead_pct",
                       100.0 * (traced - plain) / plain, "%"});
    metrics.push_back({"telemetry.prof_slowdown_x", prof.run_ns / plain,
                       "x"});
    for (const CountMetric &c : counts) {
        if (c.is_ratio) {
            std::printf("# %-34s %14.6f %-9s base %lu\n",
                        c.metric.name.c_str(), c.metric.value,
                        c.metric.unit.c_str(),
                        static_cast<unsigned long>(c.base));
        } else {
            std::printf("# %-34s %14.6f %s\n", c.metric.name.c_str(),
                        c.metric.value, c.metric.unit.c_str());
        }
        metrics.push_back(c.metric);
    }
    printChecks(checker);
    std::printf("%s\n", resultJson(checker.ok(), checker.attempted(),
                                   checker.failed(), metrics).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Cell *cell = findCell(opt.workload);
    if (!cell)
        usageError("unknown workload '" + opt.workload + "'");
    const SystemConfig cfg = cellConfig(*cell, opt.seed);
    const std::uint64_t accesses = cell->accesses;
    if (opt.csv) {
        TieredSystem sys(cfg);
        printM5simCsv(sys.run(accesses));
        return 0;
    }

    const HostInfo host = hostInfo();
    std::printf("%s\n", hostLine(host, cell->name, opt.seed).c_str());
    if (!host.optimized) {
        std::fprintf(stderr, "simbench: warning: this build is not "
                             "optimized; host times are not meaningful\n");
    }
    RunChecker checker;
    if (const std::string err = plainConfigError(cfg); !err.empty())
        checker.fail(err);
    const auto seconds = static_cast<double>(opt.seconds);
    return opt.trace
        ? measureLayers(*cell, cfg, accesses, seconds, checker)
        : measureEndToEnd(*cell, cfg, accesses, seconds, checker);
}
