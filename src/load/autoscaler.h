#ifndef FAASFLOW_LOAD_AUTOSCALER_H_
#define FAASFLOW_LOAD_AUTOSCALER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "faasflow/system.h"

namespace faasflow::load {

/**
 * Reactive warm-pool autoscaler: scale-up only.
 *
 * Every 100 ms it inspects, per worker and per function, the queued
 * acquisitions and the busy-vs-total containers (one
 * ContainerPool::functionLoad() probe), and calls
 * ContainerPool::prewarm() when demand outruns the containers that
 * exist. It never destroys a container: an idle container retires only
 * by the pool's keep-alive policy (the paper's 600 s lifetime by
 * default).
 *
 * Everything runs on the simulated clock in deterministic order
 * (workers by index, functions by sorted name), so two runs with the
 * same seed make identical scaling decisions at identical instants.
 */
class Autoscaler
{
  public:
    struct Stats
    {
        uint64_t ticks = 0;
        uint64_t scale_up_total = 0;    ///< containers prewarmed
        /** Always 0: the autoscaler no longer trims. Kept because the
         *  perfbench harness reports it as `load.trims`. */
        uint64_t scale_down_total = 0;
    };

    explicit Autoscaler(System& system);

    /** First tick now, then every interval while foreground simulator
     *  events remain. The re-arm is a background event, as in the
     *  telemetry sampler, so the run still drains with both on. */
    void start();

    const Stats& stats() const { return stats_; }

  private:
    System& system_;
    Stats stats_;
    bool started_ = false;
    std::vector<std::string> functions_;

    void tick();
};

}  // namespace faasflow::load

#endif  // FAASFLOW_LOAD_AUTOSCALER_H_
