// Tests of the benchmark's own arithmetic and checks.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "cells.hh"
#include "metrics.hh"

using namespace m5;
using namespace simbench;

namespace {

constexpr std::uint64_t kAccesses = 1000;

std::vector<LayerCost>
fixedLayers()
{
    return {
        {"workloads.next", 20.0, 1000, 1000, false},   // 20 ns/access
        {"os.page_table.walk", 8.0, 100, 250, false},  // 2 ns/access
        {"cxl.observe", 10.0, 500, 400, false},        // 4 ns/access
        {"sketch.cm.update", 3.0, 500, 800, true},     // 2.4, nested
        {"os.migration.promote", 500.0, 64, 0, false}, // never called
    };
}

} // namespace

TEST(SimbenchArithmetic, WeightsNsPerCallByRunCallsPerAccess)
{
    const auto layers = fixedLayers();
    EXPECT_DOUBLE_EQ(nsPerAccess(layers[0], kAccesses), 20.0);
    EXPECT_DOUBLE_EQ(nsPerAccess(layers[1], kAccesses), 2.0);
    EXPECT_DOUBLE_EQ(nsPerAccess(layers[2], kAccesses), 4.0);
    EXPECT_DOUBLE_EQ(nsPerAccess(layers[3], kAccesses), 2.4);
    EXPECT_DOUBLE_EQ(nsPerAccess(layers[4], kAccesses), 0.0);
}

TEST(SimbenchArithmetic, ResidualIsRunMinusNonNestedLayers)
{
    const Decomposition d = decompose(30.0, fixedLayers(), kAccesses);
    EXPECT_DOUBLE_EQ(d.layers_ns_per_access, 26.0); // sketch not re-added
    EXPECT_DOUBLE_EQ(d.residual_ns_per_access, 4.0);
    EXPECT_DOUBLE_EQ(d.layers_ns_per_access + d.residual_ns_per_access,
                     d.run_ns_per_access);
    // A run faster than its layers' sum is reported, not clamped.
    EXPECT_DOUBLE_EQ(decompose(25.0, fixedLayers(), kAccesses)
                         .residual_ns_per_access, -1.0);
    // No accesses: every layer weighs 0 and the run is all residual.
    EXPECT_DOUBLE_EQ(decompose(7.0, fixedLayers(), 0).residual_ns_per_access,
                     7.0);
}

TEST(SimbenchArithmetic, Median)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(SimbenchRatios, ZeroBaseGivesZeroValueAndBase)
{
    const Ratio r = ratio(5, 0);
    EXPECT_EQ(r.value, 0.0);
    EXPECT_EQ(r.base, 0u);
    const Ratio p = ratioPct(1, 4);
    EXPECT_DOUBLE_EQ(p.value, 25.0);
    EXPECT_EQ(p.base, 4u);
}

TEST(SimbenchRatios, CountMetricsOfACellWithoutTrackersOrMigration)
{
    // anb_redis/none_pr build no HPT/HWT and none_pr migrates nothing:
    // those ratios must read 0 and carry their real (possibly 0) base.
    RunResult r;
    r.accesses = kAccesses;
    r.llc.hits = 10;
    r.llc.misses = 990;
    StatRegistry stats;
    KernelLedger ledger;
    const auto counts = countMetrics(r, stats, ledger);
    auto find = [&](const std::string &name) -> const CountMetric & {
        for (const CountMetric &c : counts) {
            if (c.metric.name == name)
                return c;
        }
        ADD_FAILURE() << "missing " << name;
        return counts.front();
    };
    const CountMetric &sketch = find("sketch.updates_per_access");
    EXPECT_EQ(sketch.metric.value, 0.0);
    EXPECT_EQ(sketch.base, kAccesses);
    EXPECT_TRUE(sketch.is_ratio);
    for (const char *name :
         {"os.migration.success_pct", "os.migration.txn_commit_pct",
          "os.migration.free_demote_pct", "m5.promoted_per_nominated_pct",
          "cache.tlb.miss_pct"}) {
        const CountMetric &c = find(name);
        EXPECT_EQ(c.metric.value, 0.0) << name;
        EXPECT_EQ(c.base, 0u) << name;
    }
    EXPECT_DOUBLE_EQ(find("cache.llc.miss_pct").metric.value, 99.0);
    EXPECT_EQ(find("cache.llc.miss_pct").base, kAccesses);
    for (const CountMetric &c : counts)
        EXPECT_TRUE(std::isfinite(c.metric.value)) << c.metric.name;
}

TEST(SimbenchChecks, ConservationIdentities)
{
    RunResult r;
    r.accesses = 100;
    r.llc.hits = 40;
    r.llc.misses = 60;
    EXPECT_TRUE(conservationErrors(r, {30, 70}, 100, 30).empty());
    EXPECT_EQ(conservationErrors(r, {30, 69}, 100, 30).size(), 1u);
    EXPECT_EQ(conservationErrors(r, {31, 69}, 100, 30).size(), 1u);
    r.llc.misses = 59;
    EXPECT_EQ(conservationErrors(r, {31, 68}, 100, 30).size(), 3u);
}

TEST(SimbenchChecks, FingerprintCatchesAPerturbedConfig)
{
    const Cell &cell = *findCell("m5_mcf");
    const SystemConfig cfg = cellConfig(cell, 7);
    constexpr std::uint64_t n = 50'000;
    RunChecker checker;
    for (int i = 0; i < 2; ++i) {
        TieredSystem sys(cfg);
        const RunResult r = sys.run(n);
        EXPECT_TRUE(checker.check("same config", sys, r));
    }
    SystemConfig perturbed = cfg;
    perturbed.think_per_access += 1;
    TieredSystem sys(perturbed);
    const RunResult r = sys.run(n);
    EXPECT_FALSE(checker.check("perturbed config", sys, r));
    EXPECT_EQ(checker.attempted(), 3u);
    EXPECT_EQ(checker.failed(), 1u);
    EXPECT_FALSE(checker.ok());
}

TEST(SimbenchChecks, ProfilerDoesNotChangeTheFingerprint)
{
    SystemConfig cfg = cellConfig(*findCell("m5_mcf"), 7);
    constexpr std::uint64_t n = 50'000;
    TieredSystem plain(cfg);
    const RunResult a = plain.run(n);
    cfg.prof.collect = true;
    TieredSystem profiled(cfg);
    const RunResult b = profiled.run(n);
    EXPECT_EQ(fingerprint(a, plain.stats()),
              fingerprint(b, profiled.stats()));
}

TEST(SimbenchChecks, TimedRunsRejectObservers)
{
    for (const Cell &cell : cells())
        EXPECT_EQ(plainConfigError(cellConfig(cell, 1)), "") << cell.name;
    SystemConfig cfg = cellConfig(cells().front(), 1);
    cfg.prof.collect = true;
    EXPECT_NE(plainConfigError(cfg), "");
    cfg = cellConfig(cells().front(), 1);
    cfg.telemetry.path = "t.jsonl";
    EXPECT_NE(plainConfigError(cfg), "");
    cfg = cellConfig(cells().front(), 1);
    cfg.trace.path = "t.json";
    EXPECT_NE(plainConfigError(cfg), "");
    cfg = cellConfig(cells().front(), 1);
    cfg.faults = "migrate_busy:p=0.05";
    EXPECT_NE(plainConfigError(cfg), "");
}

TEST(SimbenchOutput, ResultLineHasExactlyTheContractKeys)
{
    const std::string line = resultJson(
        true, 3, 0,
        {{"a", 1.5, "ms"},
         {"b", std::numeric_limits<double>::quiet_NaN(), "s"}});
    EXPECT_EQ(line,
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, "
              "\"b\": {\"value\": null, \"unit\": \"s\"}}}");
}
