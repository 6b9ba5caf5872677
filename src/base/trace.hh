/**
 * @file
 * Lightweight debug tracing (DPRINTF-style).
 *
 * Components emit trace points tagged with a flag; nothing is formatted
 * unless the flag is enabled, so tracing is free when off.  Enable
 * programmatically or via the FENCELESS_TRACE environment variable
 * (comma-separated flag names, e.g. `FENCELESS_TRACE=l1,spec`).
 *
 *     FL_TRACE(trace::Flag::L1, *this, "fill 0x", std::hex, addr);
 *
 * prints `  12345: l1_0: fill 0x1040` to the trace stream.
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>

#include "base/types.hh"

namespace fenceless::trace
{

enum class Flag : std::uint32_t
{
    Core  = 1u << 0,
    SB    = 1u << 1,
    L1    = 1u << 2,
    Dir   = 1u << 3,
    Net   = 1u << 4,
    Spec  = 1u << 5,
    Req   = 1u << 6, //!< request-lifetime flow events (miss attribution)
    Stall = 1u << 7, //!< core stall-interval duration events
    All   = ~0u,
};

/** @return the canonical lower-case name of a single flag. */
const char *flagName(Flag f);

/** Comma-separated list of every valid flag name (for error messages). */
std::string validFlagNames();

/**
 * Parse "core,l1,spec" / "all" into @p mask.
 * @return true on success; on failure @p error describes the unknown
 *         name and lists the valid flags, and @p mask is untouched.
 */
bool parseFlags(const std::string &spec, std::uint32_t &mask,
                std::string &error);

/** Enable the given flags (bitwise or of Flag values). */
void setEnabled(std::uint32_t mask);

/** Currently enabled mask. */
std::uint32_t enabled();

/** @return true if @p f is enabled. */
inline bool
isEnabled(Flag f)
{
    return (enabled() & static_cast<std::uint32_t>(f)) != 0;
}

/** Redirect trace output (default std::cout); nullptr restores it. */
void setStream(std::ostream *os);

/**
 * Initialise from the FENCELESS_TRACE environment variable.  A typo in
 * the variable must not kill a whole sweep, so unknown names only warn
 * (listing the valid flags) and leave the mask unchanged.
 */
void initFromEnv();

namespace detail
{

void emit(Flag f, Tick tick, const std::string &who,
          const std::string &msg);

/** Stream every argument (fold), so FL_TRACE's commas compose. */
template <typename... Args>
void
streamAll(std::ostream &os, Args &&...args)
{
    (os << ... << std::forward<Args>(args));
}

} // namespace detail

} // namespace fenceless::trace

/**
 * Emit a trace point.  @p obj must provide name() and curTick()
 * (every SimObject does).  Arguments are streamed; nothing is
 * evaluated when the flag is disabled.
 */
#define FL_TRACE(flag, obj, ...)                                       \
    do {                                                               \
        if (fenceless::trace::isEnabled(flag)) {                       \
            std::ostringstream fl_trace_os_;                           \
            fenceless::trace::detail::streamAll(fl_trace_os_,          \
                                                __VA_ARGS__);          \
            fenceless::trace::detail::emit(flag, (obj).curTick(),      \
                                           (obj).name(),               \
                                           fl_trace_os_.str());        \
        }                                                              \
    } while (0)
