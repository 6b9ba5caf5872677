#include "sim/watchdog.hh"

namespace fenceless::sim
{

const char *
Watchdog::causeName(Cause c)
{
    switch (c) {
      case Cause::None: return "none";
      case Cause::NoRetirement: return "no-retirement";
      case Cause::RollbackStorm: return "rollback-storm";
    }
    return "?";
}

void
Watchdog::prime(Tick now, const Progress &p)
{
    last_instret_ = p.instret;
    last_rollbacks_ = p.rollbacks;
    window_begin_ = now;
    report_ = Report{};
}

bool
Watchdog::checkAt(Tick now, const Progress &p)
{
    const std::uint64_t d_inst = p.instret - last_instret_;
    const std::uint64_t d_rb = p.rollbacks - last_rollbacks_;

    if (d_inst == 0) {
        // A whole window with zero retirement anywhere.  Rollbacks
        // without retirement mean the cores are live but churning
        // (livelock); none at all means they are wedged (deadlock or a
        // lost wakeup).  Either way, diagnose and stop.
        Report r;
        r.cause = (d_rb >= params_.storm_threshold)
                      ? Cause::RollbackStorm
                      : Cause::NoRetirement;
        // A sub-storm trickle of rollbacks with no retirement is still
        // a hang: classify it as NoRetirement rather than waiting for
        // the storm threshold.
        r.window_begin = window_begin_;
        r.fire_tick = now;
        r.instret = p.instret;
        r.rollbacks_in_window = d_rb;
        report_ = r;
        return true;
    }

    last_instret_ = p.instret;
    last_rollbacks_ = p.rollbacks;
    window_begin_ = now;
    return false;
}

} // namespace fenceless::sim
