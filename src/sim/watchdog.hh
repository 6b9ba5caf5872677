/**
 * @file
 * Hang / livelock watchdog.
 *
 * A wedged simulation is worse than a crashed one: a deadlocked
 * directory transaction leaves cores asleep and the event queue either
 * drains (silent early exit) or spins on housekeeping events until
 * max_cycles, telling the user nothing.  The watchdog turns both into
 * a prompt, diagnosable abort.
 *
 * Mechanism: the watchdog is a *passive* monitor driven by the
 * harness's run loop (see harness::System), which stops the event
 * queue every `interval` cycles and calls checkAt() at that boundary
 * with the retired instructions and rollbacks summed across all
 * cores.  It is not an event, so it adds nothing to the event count.
 * The run loop stands it down once every core has halted.  If a full
 * window passes in which no core retired anything, that's a hang
 * (NoRetirement); if nothing retired but rollbacks exceeded a storm
 * threshold, that's a livelock (RollbackStorm -- cores are spinning
 * through speculation rollbacks without net progress; note
 * SpecController's exponential cooldown makes benign rollback-heavy
 * workloads like dekker retire *some* instructions every window, so
 * they never trip this).
 *
 * Keeping a wedged-but-empty system alive until the next check is the
 * run loop's job (it keeps stepping boundaries while the watchdog is
 * armed even when the event queue has drained), so the watchdog itself
 * needs no event-queue coupling.  Cost: one probe per interval -- zero
 * per-event overhead.
 */

#pragma once

#include <cstdint>

#include "base/types.hh"

namespace fenceless::sim
{

class Watchdog
{
  public:
    struct Params
    {
        Tick interval = 100'000;     //!< cycles between progress checks
        std::uint64_t storm_threshold = 256; //!< rollbacks/window => storm
    };

    /** Progress counters sampled at each check. */
    struct Progress
    {
        std::uint64_t instret = 0;   //!< total retired, all cores
        std::uint64_t rollbacks = 0; //!< total rollbacks, all cores
    };

    enum class Cause : std::uint8_t
    {
        None,
        NoRetirement,  //!< no core retired an instruction all window
        RollbackStorm, //!< rollbacks without net retirement
    };

    struct Report
    {
        Cause cause = Cause::None;
        Tick window_begin = 0;
        Tick fire_tick = 0;
        std::uint64_t instret = 0;   //!< total retired at fire time
        std::uint64_t rollbacks_in_window = 0;
    };

    explicit Watchdog(Params params) : params_(params) {}

    /** Prime the progress baseline at tick @p now. */
    void prime(Tick now, const Progress &p);

    /**
     * Run one progress check at tick @p now (a full window after the
     * last prime/check).  Returns true when the watchdog fires -- the
     * report() is then final and the caller should abort the run.
     * Returns false on a healthy window (baseline re-primed).
     */
    bool checkAt(Tick now, const Progress &p);

    const Report &report() const { return report_; }
    Tick interval() const { return params_.interval; }

    static const char *causeName(Cause c);

  private:
    Params params_;

    Tick window_begin_ = 0;
    std::uint64_t last_instret_ = 0;
    std::uint64_t last_rollbacks_ = 0;
    Report report_;
};

} // namespace fenceless::sim
