/**
 * @file
 * The host record printed with every result.  Absolute host rates from
 * different machines cannot be compared, so each result says where and
 * how it was measured.
 */

#pragma once

#include <string>

namespace simbench {

struct HostInfo
{
    std::string cpu;        //!< /proc/cpuinfo "model name".
    unsigned nproc = 0;     //!< Online CPUs.
    std::string compiler;   //!< Compiler id and version of this build.
    std::string build_type; //!< CMake build type of this build.
    bool optimized = false; //!< Compiled with optimization on.
};

HostInfo hostInfo();

/** One "# host: ..." line naming the host, the build and the seed. */
std::string hostLine(const HostInfo &h, const std::string &workload,
                     unsigned long long seed);

/** This process image's peak resident set so far, in MiB (0 if unknown). */
double peakRssMb();

} // namespace simbench
