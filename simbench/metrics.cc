#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace simbench {

using namespace m5;

Ratio
ratio(std::uint64_t num, std::uint64_t base)
{
    return {base ? static_cast<double>(num) / static_cast<double>(base)
                 : 0.0,
            base};
}

Ratio
ratioPct(std::uint64_t num, std::uint64_t base)
{
    Ratio r = ratio(num, base);
    r.value *= 100.0;
    return r;
}

double
nsPerAccess(const LayerCost &layer, std::uint64_t accesses)
{
    return layer.ns_per_call * ratio(layer.run_calls, accesses).value;
}

Decomposition
decompose(double run_ns_per_access, const std::vector<LayerCost> &layers,
          std::uint64_t accesses)
{
    Decomposition d;
    d.run_ns_per_access = run_ns_per_access;
    for (const LayerCost &l : layers) {
        if (!l.nested)
            d.layers_ns_per_access += nsPerAccess(l, accesses);
    }
    d.residual_ns_per_access = run_ns_per_access - d.layers_ns_per_access;
    return d;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

namespace {

/** Incremental FNV-1a over typed fields. */
class Fnv
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    Fnv &
    u(std::uint64_t v)
    {
        bytes(&v, sizeof v);
        return *this;
    }

    Fnv &
    d(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        return u(bits);
    }

    Fnv &
    s(const std::string &v)
    {
        u(v.size());
        bytes(v.data(), v.size());
        return *this;
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace

std::uint64_t
fingerprint(const RunResult &r, const StatRegistry &stats)
{
    Fnv f;
    f.s(r.benchmark).s(r.policy).u(r.accesses).u(r.runtime).u(r.app_time)
        .u(r.kernel_time).d(r.throughput).d(r.steady_throughput)
        .d(r.p50_request).d(r.p99_request).u(r.steady_ddr_read_bytes)
        .u(r.steady_cxl_read_bytes);
    f.u(r.llc.hits).u(r.llc.misses).u(r.llc.writebacks)
        .u(r.llc.invalidated_lines);
    f.u(r.tlb.hits).u(r.tlb.misses).u(r.tlb.shootdowns).u(r.tlb.flushes);
    const MigrationStats &m = r.migration;
    f.u(m.promoted).u(m.demoted).u(m.rejected_pinned).u(m.rejected_not_cxl)
        .u(m.failed_capacity).u(m.busy_time).u(m.transient_fail)
        .u(m.retries).u(m.dropped).u(m.exchanged).u(m.exchange_failed)
        .u(m.placed_lower).u(m.moved_lateral);
    const TxnStats &t = r.txn;
    f.u(t.commits).u(t.aborts).u(t.abort_src_race).u(t.abort_partner_race)
        .u(t.degraded_pages).u(t.shadow_retained).u(t.shadow_invalidated)
        .u(t.shadow_reclaimed).u(t.demoted_free);
    f.u(r.ddr_read_bytes).u(r.cxl_read_bytes).u(r.kernel_ident_cycles)
        .u(r.kernel_total_cycles).u(r.baseline_cycles);
    f.u(r.hot_pages.size());
    for (Pfn p : r.hot_pages)
        f.u(p);
    f.u(r.tenants.size());
    for (const TenantResult &tr : r.tenants) {
        f.s(tr.name).u(tr.accesses).u(tr.ddr_hits).u(tr.lower_hits)
            .u(tr.promoted).u(tr.demoted).u(tr.cap_demotions)
            .u(tr.cap_rejects).d(tr.mean_access_ns).d(tr.p99_access_ns)
            .u(tr.ddr_frames).u(tr.cap_frames).u(tr.cxl_reads)
            .u(tr.cxl_writes);
    }
    for (const StatSample &s : stats.sample()) {
        f.s(s.name).u(static_cast<std::uint64_t>(s.kind));
        switch (s.kind) {
          case StatSample::Kind::Counter:
            f.u(s.counter);
            break;
          case StatSample::Kind::Gauge:
            f.d(s.gauge);
            break;
          case StatSample::Kind::Histogram:
            for (std::uint64_t e : s.hist->edges())
                f.u(e);
            for (std::uint64_t c : s.hist->counts())
                f.u(c);
            break;
        }
    }
    return f.value();
}

std::vector<std::string>
conservationErrors(const RunResult &r,
                   const std::vector<std::size_t> &pages_per_node,
                   std::size_t footprint_pages, std::size_t top_frames)
{
    std::vector<std::string> errs;
    char buf[160];
    if (r.llc.hits + r.llc.misses != r.accesses) {
        std::snprintf(buf, sizeof buf,
                      "LLC hits %lu + misses %lu != accesses %lu",
                      static_cast<unsigned long>(r.llc.hits),
                      static_cast<unsigned long>(r.llc.misses),
                      static_cast<unsigned long>(r.accesses));
        errs.emplace_back(buf);
    }
    std::size_t mapped = 0;
    for (std::size_t n : pages_per_node)
        mapped += n;
    if (mapped != footprint_pages) {
        std::snprintf(buf, sizeof buf,
                      "pages over all nodes %zu != footprint %zu", mapped,
                      footprint_pages);
        errs.emplace_back(buf);
    }
    const std::size_t top = pages_per_node.empty() ? 0 : pages_per_node[0];
    if (top > top_frames) {
        std::snprintf(buf, sizeof buf,
                      "top-tier pages %zu > top-tier frames %zu", top,
                      top_frames);
        errs.emplace_back(buf);
    }
    return errs;
}

std::vector<std::string>
conservationErrors(TieredSystem &sys, const RunResult &r)
{
    std::vector<std::size_t> per_node;
    for (NodeId n = 0; n < sys.memory().tiers(); ++n)
        per_node.push_back(sys.pageTable().pagesOnNode(n));
    return conservationErrors(
        r, per_node, sys.pageTable().numPages(),
        static_cast<std::size_t>(
            sys.memory().tier(sys.topology().top()).framesTotal()));
}

bool
RunChecker::check(const std::string &label, std::uint64_t print,
                  const std::vector<std::string> &identity_errors)
{
    ++attempted_;
    bool good = true;
    if (!have_reference_) {
        have_reference_ = true;
        reference_ = print;
    } else if (print != reference_) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "%s: fingerprint %016lx != reference %016lx",
                      label.c_str(), static_cast<unsigned long>(print),
                      static_cast<unsigned long>(reference_));
        errors_.emplace_back(buf);
        good = false;
    }
    for (const std::string &e : identity_errors) {
        errors_.push_back(label + ": " + e);
        good = false;
    }
    if (!good)
        ++failed_;
    return good;
}

bool
RunChecker::check(const std::string &label, TieredSystem &sys,
                  const RunResult &r)
{
    return check(label, fingerprint(r, sys.stats()),
                 conservationErrors(sys, r));
}

void
RunChecker::fail(const std::string &why)
{
    errors_.push_back(why);
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (std::isfinite(m.value))
            std::snprintf(buf, sizeof buf, "%.17g", m.value);
        else
            std::snprintf(buf, sizeof buf, "null");
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace simbench
