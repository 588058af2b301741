#include "util/env.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>

#include "util/logging.h"

namespace fs {
namespace util {

namespace {

std::mutex g_warned_mutex;
std::set<std::string> g_warned;

/** Warn once per variable per process; repeated reads stay quiet. */
void
warnOnce(const char *name, const std::string &detail)
{
    {
        std::lock_guard<std::mutex> lock(g_warned_mutex);
        if (!g_warned.insert(name).second)
            return;
    }
    warn(name, ": ", detail);
}

} // namespace

std::uint64_t
envU64(const char *name, std::uint64_t def, std::uint64_t lo,
       std::uint64_t hi)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return def;
    if (*v == '\0' || *v == '-') {
        warnOnce(name, "unparsable value \"" + std::string(v) +
                           "\"; using default " + std::to_string(def));
        return def;
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(v, &end, 0);
    if (errno != 0 || end == v || *end != '\0') {
        warnOnce(name, "unparsable value \"" + std::string(v) +
                           "\"; using default " + std::to_string(def));
        return def;
    }
    if (parsed < lo || parsed > hi) {
        warnOnce(name, "value " + std::string(v) + " outside [" +
                           std::to_string(lo) + ", " +
                           std::to_string(hi) + "]; using default " +
                           std::to_string(def));
        return def;
    }
    return std::uint64_t(parsed);
}

double
envDouble(const char *name, double def, double lo, double hi)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return def;
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(v, &end);
    if (*v == '\0' || errno != 0 || end == v || *end != '\0' ||
        !std::isfinite(parsed)) {
        warnOnce(name, "unparsable value \"" + std::string(v) +
                           "\"; using default " + std::to_string(def));
        return def;
    }
    if (parsed < lo || parsed > hi) {
        warnOnce(name, "value " + std::string(v) + " outside [" +
                           std::to_string(lo) + ", " +
                           std::to_string(hi) + "]; using default " +
                           std::to_string(def));
        return def;
    }
    return parsed;
}

bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

void
resetEnvWarnings()
{
    std::lock_guard<std::mutex> lock(g_warned_mutex);
    g_warned.clear();
}

} // namespace util
} // namespace fs
