#include "sim/simulator.h"

#include "common/logging.h"

namespace faasflow::sim {

EventId
Simulator::schedule(SimTime delay, Callback fn)
{
    if (delay < SimTime::zero())
        panic("Simulator::schedule with negative delay %s", delay.str().c_str());
    return queue_.schedule(now_ + delay, std::move(fn));
}

EventId
Simulator::scheduleAt(SimTime when, Callback fn)
{
    if (when < now_)
        panic("Simulator::scheduleAt in the past (%s < now %s)",
              when.str().c_str(), now_.str().c_str());
    return queue_.schedule(when, std::move(fn));
}

EventId
Simulator::scheduleBackground(SimTime delay, Callback fn)
{
    if (delay < SimTime::zero())
        panic("Simulator::scheduleBackground with negative delay %s",
              delay.str().c_str());
    return queue_.schedule(now_ + delay, std::move(fn), true);
}

bool
Simulator::cancel(EventId id)
{
    return queue_.cancel(id);
}

uint64_t
Simulator::run()
{
    return runUntil(SimTime::max());
}

uint64_t
Simulator::runUntil(SimTime horizon)
{
    uint64_t count = 0;
    while (queue_.nextTime() <= horizon) {
        SimTime when;
        Callback fn;
        if (!queue_.pop(when, fn))
            break;
        now_ = when;
        fn();
        ++count;
        ++processed_;
    }
    if (horizon != SimTime::max() && now_ < horizon)
        now_ = horizon;
    return count;
}

}  // namespace faasflow::sim
