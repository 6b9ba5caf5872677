#include "base/trace.hh"

#include <atomic>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>

#include "base/logging.hh"

namespace fenceless::trace
{

namespace
{

// The mask and stream are process-wide but read from every simulation
// thread of a parallel sweep, so they are atomics; emit() serialises
// under a mutex so concurrent runs never interleave half-lines.
std::atomic<std::uint32_t> enabled_mask{0};
std::atomic<std::ostream *> stream{nullptr};
std::mutex emit_mutex;

std::ostream &
out()
{
    std::ostream *os = stream.load(std::memory_order_acquire);
    return os ? *os : std::cout;
}

} // namespace

namespace
{

constexpr Flag all_flags[] = {
    Flag::Core, Flag::SB, Flag::L1, Flag::Dir, Flag::Net, Flag::Spec,
    Flag::Req, Flag::Stall, Flag::All,
};

} // namespace

const char *
flagName(Flag f)
{
    switch (f) {
      case Flag::Core: return "core";
      case Flag::SB: return "sb";
      case Flag::L1: return "l1";
      case Flag::Dir: return "dir";
      case Flag::Net: return "net";
      case Flag::Spec: return "spec";
      case Flag::Req: return "req";
      case Flag::Stall: return "stall";
      case Flag::All: return "all";
    }
    return "?";
}

std::string
validFlagNames()
{
    std::string names;
    for (Flag f : all_flags) {
        if (!names.empty())
            names += ",";
        names += flagName(f);
    }
    return names;
}

bool
parseFlags(const std::string &spec, std::uint32_t &mask,
           std::string &error)
{
    std::uint32_t parsed = 0;
    std::string token;
    std::string unknown;
    std::istringstream is(spec);
    while (std::getline(is, token, ',')) {
        if (token.empty())
            continue;
        bool found = false;
        for (Flag f : all_flags) {
            if (token == flagName(f)) {
                parsed |= static_cast<std::uint32_t>(f);
                found = true;
                break;
            }
        }
        if (!found) {
            // Collect every bad token so one retry fixes them all.
            if (!unknown.empty())
                unknown += "', '";
            unknown += token;
        }
    }
    if (!unknown.empty()) {
        error = "unknown trace flag(s) '" + unknown + "' (valid: " +
                validFlagNames() + ")";
        return false;
    }
    mask = parsed;
    return true;
}

void
setEnabled(std::uint32_t mask)
{
    enabled_mask.store(mask, std::memory_order_release);
}

std::uint32_t
enabled()
{
    return enabled_mask.load(std::memory_order_relaxed);
}

void
setStream(std::ostream *os)
{
    stream.store(os, std::memory_order_release);
}

void
initFromEnv()
{
    if (const char *env = std::getenv("FENCELESS_TRACE")) {
        std::uint32_t mask = 0;
        std::string error;
        if (parseFlags(env, mask, error))
            setEnabled(mask);
        else
            warn("FENCELESS_TRACE ignored: ", error);
    }
}

namespace detail
{

void
emit(Flag, Tick tick, const std::string &who, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(emit_mutex);
    out() << std::setw(10) << tick << ": " << who << ": " << msg
          << "\n";
}

} // namespace detail

} // namespace fenceless::trace
