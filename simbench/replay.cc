#include "replay.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "cache/cache.hh"
#include "cache/tlb.hh"
#include "cells.hh"
#include "common/logging.hh"
#include "mem/topology.hh"
#include "sketch/cm_sketch.hh"
#include "telemetry/prof.hh"

namespace simbench {

using namespace m5;

namespace {

/** Host ns spent in f(). */
template <typename F>
double
timeNs(F &&f)
{
    const std::uint64_t t0 = ProfClock::nowNs();
    f();
    return static_cast<double>(ProfClock::nowNs() - t0);
}

LayerCost
layer(const char *name, double ns, std::uint64_t replay_calls,
      std::uint64_t run_calls, bool nested = false)
{
    return {name, replay_calls ? ns / static_cast<double>(replay_calls) : 0.0,
            replay_calls, run_calls, nested};
}

/** Pages promoted then demoted in the migration replay. */
constexpr std::size_t kMigrationPages = 2048;

} // namespace

std::vector<LayerCost>
replayLayers(const SystemConfig &cfg, std::uint64_t accesses,
             const RunResult &real, const StatRegistry &real_stats)
{
    // The replay reuses the default two-tier sizing below; every cell
    // runs on it.
    m5_assert(cfg.tiers.empty(), "replay assumes the default tier pair");
    std::vector<LayerCost> out;

    // A replica of the cell, never run: its workload is the cell's
    // workload at the same seed (the stream is open-loop, so it equals
    // the real run's), and its page table holds the initial placement.
    auto replica = std::make_unique<TieredSystem>(cfg);
    std::vector<AccessEvent> events(accesses);
    Workload &wl = replica->workload();
    const double next_ns = timeNs([&] {
        for (AccessEvent &ev : events)
            ev = wl.next();
    });
    out.push_back(layer("workloads.next", next_ns, accesses, real.accesses));

    PageTable &pt = replica->pageTable();
    std::vector<Pfn> pfn_of(pt.numPages());
    for (Vpn v = 0; v < pt.numPages(); ++v)
        pfn_of[v] = pt.pte(v).pfn;

    // TLB: a lookup per access, a fill on each miss.  An untimed twin
    // collects the missing VPNs for the page-walk replay.
    std::vector<Vpn> walks;
    {
        Tlb twin(cfg.tlb_cfg);
        Pfn pfn = 0;
        for (const AccessEvent &ev : events) {
            const Vpn vpn = vpnOf(ev.va);
            if (!twin.lookup(vpn, pfn)) {
                twin.fill(vpn, pfn_of[vpn]);
                walks.push_back(vpn);
            }
        }
    }
    Tlb tlb(cfg.tlb_cfg);
    const double tlb_ns = timeNs([&] {
        Pfn pfn = 0;
        for (const AccessEvent &ev : events) {
            const Vpn vpn = vpnOf(ev.va);
            if (!tlb.lookup(vpn, pfn))
                tlb.fill(vpn, pfn_of[vpn]);
        }
    });
    out.push_back(layer("cache.tlb.access", tlb_ns, accesses,
                        real.tlb.hits + real.tlb.misses));

    const double walk_ns = timeNs([&] {
        for (Vpn vpn : walks)
            (void)pt.walk(vpn);
    });
    out.push_back(layer("os.page_table.walk", walk_ns, walks.size(),
                        real.tlb.misses));

    // LLC at the cell's geometry (taken from the replica's own LLC).
    // The replica's LLC runs untimed to collect the memory requests:
    // the dirty-victim writeback, then the fill, as issueAccess does.
    std::vector<Addr> pas(accesses);
    for (std::size_t i = 0; i < events.size(); ++i) {
        const AccessEvent &ev = events[i];
        pas[i] = pageBase(pfn_of[vpnOf(ev.va)]) | (ev.va & (kPageBytes - 1));
    }
    std::vector<std::pair<Addr, bool>> requests;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const CacheResult res = replica->llc().access(pas[i],
                                                      events[i].is_write);
        if (!res.hit) {
            if (res.writeback)
                requests.emplace_back(*res.writeback, true);
            requests.emplace_back(pas[i], false);
        }
    }
    SetAssocCache llc(CacheConfig{
        replica->llc().sets() * replica->llc().assoc() * kWordBytes,
        replica->llc().assoc()});
    const double llc_ns = timeNs([&] {
        for (std::size_t i = 0; i < events.size(); ++i)
            (void)llc.access(pas[i], events[i].is_write);
    });
    out.push_back(layer("cache.llc.access", llc_ns, accesses,
                        real.llc.hits + real.llc.misses));

    // Memory tiers with no observer attached.
    const std::unique_ptr<MemorySystem> mem =
        TierTopology::defaultPair(pt.numPages(), cfg.tier_params,
                                  cfg.ddr_capacity_fraction)
            .buildMemory();
    const double mem_ns = timeNs([&] {
        Tick now = 0;
        for (const auto &[pa, is_write] : requests)
            now += mem->access(pa, is_write, now);
    });
    out.push_back(layer("mem.access", mem_ns, requests.size(),
                        real.llc.misses + real.llc.writebacks));

    // The CXL controller with the cell's PAC/HPT/HWT units sees every
    // request to a lower tier.
    std::vector<std::pair<Addr, bool>> lower;
    for (const auto &req : requests) {
        if (mem->nodeOf(req.first) != kNodeDdr)
            lower.push_back(req);
    }
    CxlController &ctrl = replica->controller();
    const double cxl_ns = timeNs([&] {
        Tick now = 0;
        for (const auto &[pa, is_write] : lower)
            ctrl.observe(pa, is_write, ++now);
    });
    out.push_back(layer("cxl.observe", cxl_ns, lower.size(),
                        counterOr0(real_stats, "cxl.ctrl.snooped")));

    // One CM-sketch update per HPT and per HWT observation, timed at the
    // HPT geometry over the snooped pages.
    const TrackerConfig &hpt = cfg.hpt_cfg;
    CmSketch sketch(hpt.hash_rows,
                    std::max<std::uint64_t>(1, hpt.entries / hpt.hash_rows),
                    hpt.seed, hpt.counter_bits);
    const double sketch_ns = timeNs([&] {
        for (const auto &req : lower)
            (void)sketch.update(pfnOf(req.first));
    });
    out.push_back(layer("sketch.cm.update", sketch_ns, lower.size(),
                        counterOr0(real_stats, "cxl.hpt.observed") +
                            counterOr0(real_stats, "cxl.hwt.observed"),
                        /*nested=*/true));
    replica.reset();

    // Migration on a fresh replica: promote a fixed list of lower-tier
    // pages, then demote them.  Committed promotions keep a shadow, so
    // a clean page demotes as a zero-copy PTE flip; a store first makes
    // the demotion a full copy.  The two costs are mixed in the real
    // run's free-demotion share.
    auto mig_sys = std::make_unique<TieredSystem>(cfg);
    MigrationEngine &engine = mig_sys->migrationEngine();
    const std::size_t pages = std::min<std::size_t>(
        {kMigrationPages, mig_sys->pageTable().numPages(),
         static_cast<std::size_t>(
             mig_sys->memory().tier(kNodeDdr).framesTotal())});
    std::uint64_t moved = 0;
    Tick now = 0;
    const double promote_ns = timeNs([&] {
        for (Vpn vpn = 0; vpn < pages; ++vpn) {
            const MigrateResult res = engine.promote(vpn, now);
            moved += res.ok();
            now += res.busy;
        }
    });
    m5_assert(moved == pages, "migration replay: %lu of %zu promotions",
              static_cast<unsigned long>(moved), pages);
    out.push_back(layer("os.migration.promote", promote_ns, pages,
                        real.migration.promoted));

    const std::size_t half = pages / 2;
    for (Vpn vpn = half; vpn < pages; ++vpn)
        now += engine.noteWrite(vpn, now);
    auto demoteRange = [&](Vpn lo, Vpn hi) {
        return timeNs([&] {
            for (Vpn vpn = lo; vpn < hi; ++vpn) {
                const MigrateResult res = engine.demote(vpn, now);
                moved -= res.ok();
                now += res.busy;
            }
        });
    };
    const double free_ns = demoteRange(0, half);
    const double copy_ns = demoteRange(half, pages);
    m5_assert(moved == 0, "migration replay: %lu pages not demoted",
              static_cast<unsigned long>(moved));
    m5_assert(engine.txn() && engine.txn()->stats().demoted_free == half,
              "migration replay: the clean half did not demote zero-copy");
    const double free_share =
        ratio(real.txn.demoted_free, real.migration.demoted).value;
    LayerCost demote = layer("os.migration.demote", 0.0, pages,
                             real.migration.demoted);
    const double free_per_call =
        free_ns / static_cast<double>(std::max<std::size_t>(1, half));
    const double copy_per_call =
        copy_ns / static_cast<double>(std::max<std::size_t>(1, pages - half));
    demote.ns_per_call =
        free_share * free_per_call + (1.0 - free_share) * copy_per_call;
    out.push_back(demote);
    return out;
}

} // namespace simbench
