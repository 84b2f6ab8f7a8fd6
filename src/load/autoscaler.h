#ifndef FAASFLOW_LOAD_AUTOSCALER_H_
#define FAASFLOW_LOAD_AUTOSCALER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "faasflow/system.h"

namespace faasflow::load {

/**
 * Reactive warm-pool autoscaler.
 *
 * On a fixed cadence it inspects, per worker and per function, the
 * signals the pool and node already export — queued acquisitions
 * (ContainerPool::waitersFor), busy-vs-total containers, and node CPU
 * run-queue depth — and steers the warm pool with the two new pool
 * verbs: prewarm() when demand outruns the containers that exist, and
 * trimIdle() when idle containers sit above the floor on a quiet node.
 *
 * Everything runs on the simulated clock in deterministic order
 * (workers by index, functions by sorted name), so two runs with the
 * same seed make identical scaling decisions at identical instants.
 */
class Autoscaler
{
  public:
    struct Config
    {
        /** Inspection cadence. */
        SimTime interval = SimTime::millis(100);
        /** Max prewarm starts per function per worker per tick. */
        int max_step = 2;
        /** Idle containers per function kept through trims. */
        int min_warm = 0;
        /** Trim only while node CPU utilisation sits below this. */
        double trim_utilisation = 0.30;
        /** Idle containers above the floor tolerated before trimming. */
        int trim_slack = 1;
    };

    struct Stats
    {
        uint64_t ticks = 0;
        uint64_t scale_up_total = 0;    ///< containers prewarmed
        uint64_t scale_down_total = 0;  ///< idle containers trimmed
    };

    explicit Autoscaler(System& system);
    Autoscaler(System& system, Config config);

    /** First tick now, then every interval while foreground simulator
     *  events remain. The re-arm is a background event, as in the
     *  telemetry sampler, so the run still drains with both on. */
    void start();

    const Stats& stats() const { return stats_; }

  private:
    System& system_;
    Config config_;
    Stats stats_;
    bool started_ = false;
    std::vector<std::string> functions_;

    void tick();
};

}  // namespace faasflow::load

#endif  // FAASFLOW_LOAD_AUTOSCALER_H_
