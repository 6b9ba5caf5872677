/**
 * @file
 * Base class for simulated components and the shared simulation context.
 */

#pragma once

#include <string>

#include "base/stats.hh"
#include "base/types.hh"
#include "sim/eventq.hh"
#include "sim/profiler.hh"
#include "sim/reqtrace.hh"
#include "sim/trace_sink.hh"

namespace fenceless::sim
{

/**
 * Shared state every component needs: the stat registry, the event
 * queue, the structured trace sink, the waste-attribution profiler and
 * the request-span sink.  Owned by the System (harness); passed by
 * reference to all SimObjects.  One context is one simulated system
 * driven by one host thread, so none of it needs locking, even when a
 * SweepRunner drives many systems in parallel.
 */
struct SimContext
{
    // Declared first so it is destroyed last.
    statistics::StatRegistry stats;
    EventQueue eventq;
    trace::TraceSink tracer;
    prof::WasteProfiler profiler;
    reqtrace::ReqTraceSink spans;

    Tick curTick() const { return eventq.curTick(); }
};

/**
 * A named simulated component with its own stat group and its own
 * trace-sink track, registered once, at construction.  It provides
 * what the FL_TEVENT and FL_SPAN hooks read: tracer(), spans(),
 * traceId() and curTick().
 *
 * All components run at the same clock (1 tick == 1 cycle); latencies are
 * expressed directly in cycles.
 */
class SimObject
{
  public:
    SimObject(SimContext &ctx, std::string name)
        : ctx_(ctx), name_(std::move(name)),
          stats_(ctx.stats.createGroup(name_)),
          trace_id_(ctx.tracer.registerComponent(name_))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Tick curTick() const { return ctx_.curTick(); }

    EventQueue &eventq() { return ctx_.eventq; }
    statistics::StatGroup &statGroup() { return stats_; }
    const statistics::StatGroup &statGroup() const { return stats_; }

    trace::TraceSink &tracer() { return ctx_.tracer; }
    const trace::TraceSink &tracer() const { return ctx_.tracer; }

    /** Timeline track id of this component in the trace sink. */
    std::uint16_t traceId() const { return trace_id_; }

    /** The request-span sink (FL_SPAN records through it). */
    reqtrace::ReqTraceSink &spans() { return ctx_.spans; }

  protected:
    SimContext &ctx_;

  private:
    std::string name_;
    statistics::StatGroup &stats_;
    std::uint16_t trace_id_;
};

} // namespace fenceless::sim
