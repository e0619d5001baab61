#include "host.hh"

#include <unistd.h>

#include <fstream>

namespace simbench {

HostInfo
hostInfo()
{
    HostInfo h;
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                h.cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    if (h.cpu.empty())
        h.cpu = "unknown";
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    h.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
    h.compiler = SIMBENCH_COMPILER;
    h.build_type = SIMBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
    h.optimized = true;
#endif
    return h;
}

std::string
hostLine(const HostInfo &h, const std::string &workload,
         unsigned long long seed)
{
    return "# host: cpu=\"" + h.cpu + "\" nproc=" + std::to_string(h.nproc) +
           " compiler=\"" + h.compiler + "\" build=" + h.build_type +
           (h.optimized ? "" : " (UNOPTIMIZED)") + " workload=" + workload +
           " seed=" + std::to_string(seed) +
           " -- host rates compare only against runs on this same host";
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so
    // under a launcher it reports the launcher's peak when that is larger.
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB.
    }
    return 0.0;
}

} // namespace simbench
