/**
 * @file
 * Process exit codes shared by every example and benchmark binary, so
 * scripts and CI can tell failure modes apart without parsing stderr:
 *
 *   0    success
 *   1    fatal() -- user/configuration error, or any generic failure
 *   3    the simulation terminated but a workload postcondition failed
 *   4    the run hung: the watchdog aborted it or, with no watchdog,
 *        the event queue drained before every core halted (stall
 *        dossier printed either way), or the cycle budget ran out
 *   134  SIGABRT -- panic() tripped a simulator invariant (the shell
 *        reports 128+SIGABRT; an incident dump precedes the abort)
 *
 * Documented in README.md ("Debugging hangs and crashes").
 */

#pragma once

namespace fenceless::harness
{

inline constexpr int exit_ok = 0;
inline constexpr int exit_fatal = 1;
inline constexpr int exit_postcondition = 3;
inline constexpr int exit_hang = 4;

} // namespace fenceless::harness
