/**
 * @file
 * Pure arithmetic behind the benchmark's reports: ratios that carry
 * their base, the weighted per-layer decomposition of a run's host
 * time, medians, the run fingerprint and the conservation identities.
 * Everything here is deterministic and unit-tested
 * (test_simbench.cc); the timing itself lives in main.cc/replay.cc.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace simbench {

/** A ratio reported together with its denominator. */
struct Ratio
{
    double value = 0.0; //!< 0 when the base is 0 (nothing to divide).
    std::uint64_t base = 0;
};

/** num / base, or 0 with base 0. */
Ratio ratio(std::uint64_t num, std::uint64_t base);

/** 100 * num / base, or 0 with base 0. */
Ratio ratioPct(std::uint64_t num, std::uint64_t base);

/**
 * Host cost of one layer, measured by replaying the workload's stream
 * through a standalone instance of the layer's entry point.
 */
struct LayerCost
{
    std::string name;
    double ns_per_call = 0.0;       //!< Replay time / replay calls.
    std::uint64_t replay_calls = 0; //!< Calls timed in the replay.
    //! Calls the real run made to this entry point (from its stats).
    std::uint64_t run_calls = 0;
    //! True when the layer runs inside another listed layer (the CM
    //! sketch inside the CXL controller): it is reported but not added
    //! to the decomposition a second time.
    bool nested = false;
};

/** A layer's host ns per simulated access: ns/call * calls/access. */
double nsPerAccess(const LayerCost &layer, std::uint64_t accesses);

/** sim.run split into the listed layers plus an unexplained residual. */
struct Decomposition
{
    double run_ns_per_access = 0.0;
    double layers_ns_per_access = 0.0; //!< Sum over non-nested layers.
    double residual_ns_per_access = 0.0; //!< run - layers (may be < 0).
};

Decomposition decompose(double run_ns_per_access,
                        const std::vector<LayerCost> &layers,
                        std::uint64_t accesses);

/** Median (mean of the middle pair if even); 0 for an empty sample. */
double median(std::vector<double> xs);

/**
 * FNV-1a over every RunResult field and every registered statistic
 * (counters, gauge bit patterns, histogram buckets).  Two runs of one
 * configuration must agree on it: the simulator is deterministic, and
 * host-side observation (timing, the profiler) must not perturb it.
 */
std::uint64_t fingerprint(const m5::RunResult &r,
                          const m5::StatRegistry &stats);

/**
 * Conservation identities read through public accessors; each broken
 * identity yields one message.  `top_frames` is the top tier's
 * framesTotal().
 */
std::vector<std::string>
conservationErrors(const m5::RunResult &r,
                   const std::vector<std::size_t> &pages_per_node,
                   std::size_t footprint_pages, std::size_t top_frames);

/** Same, read off a system that has just returned `r` from run(). */
std::vector<std::string> conservationErrors(m5::TieredSystem &sys,
                                            const m5::RunResult &r);

/**
 * Per-workload correctness bookkeeping.  The first run's fingerprint
 * becomes the reference; every run is one attempted operation, and a
 * run whose fingerprint differs or whose identities break is a failed
 * one.
 */
class RunChecker
{
  public:
    /** Check one run; returns false (and records why) on failure. */
    bool check(const std::string &label, std::uint64_t print,
               const std::vector<std::string> &identity_errors);

    /** Convenience overload computing both parts from the system. */
    bool check(const std::string &label, m5::TieredSystem &sys,
               const m5::RunResult &r);

    /** Record a failure that is not a run (e.g. a config violation). */
    void fail(const std::string &why);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool ok() const { return errors_.empty(); }
    const std::vector<std::string> &errors() const { return errors_; }
    //! The first run's fingerprint; every later run must equal it.
    std::uint64_t reference() const { return reference_; }

  private:
    bool have_reference_ = false;
    std::uint64_t reference_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> errors_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The result line: one JSON object with exactly the keys correct,
 * attempted, failed and metrics.  Values print with 17 significant
 * digits; a non-finite value prints as null, so the line stays valid
 * JSON and the defect shows instead of a made-up number.
 */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace simbench
