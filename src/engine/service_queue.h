#ifndef FAASFLOW_ENGINE_SERVICE_QUEUE_H_
#define FAASFLOW_ENGINE_SERVICE_QUEUE_H_

#include <cstdint>
#include <deque>
#include <functional>

#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/simulator.h"

namespace faasflow::engine {

/**
 * A single-threaded event processor with a FIFO queue: the model of one
 * workflow-engine process (Node.js for HyperFlow, gevent for FaaSFlow).
 *
 * Every trigger decision and state update costs one service slot; when
 * events arrive faster than the engine can process them they queue.
 * This serialisation at the *master* engine is the dominant source of
 * MasterSP scheduling overhead for wide workflows (§2.3) — and the
 * reason WorkerSP wins by distributing it across workers.
 *
 * Utilisation holds under open-loop (non-draining) arrivals too: the
 * busy-time integral folds in the in-progress segment at read time, so
 * utilisation() is exact even while the queue has never drained — the
 * regime a saturation sweep measures. Its window starts at construction.
 */
class ServiceQueue
{
  public:
    /**
     * @param service_mean mean per-event processing time
     * @param service_sigma lognormal jitter (0 = deterministic)
     */
    ServiceQueue(sim::Simulator& sim, SimTime service_mean,
                 double service_sigma, Rng rng);

    /** Enqueues an event; `handler` runs after queueing + service time. */
    void submit(std::function<void()> handler);

    /** Queued events plus the one in service. */
    size_t depth() const { return queue_.size() + (busy_ ? 1 : 0); }
    uint64_t processed() const { return processed_; }

    /** Time-weighted average of busy state since construction — the
     *  engine CPU usage reported in §5.6/§5.7. Always in [0, 1]. */
    double utilisation() const;

  private:
    sim::Simulator& sim_;
    SimTime service_mean_;
    double service_sigma_;
    Rng rng_;
    std::deque<std::function<void()>> queue_;
    bool busy_ = false;
    uint64_t processed_ = 0;
    SimTime window_start_;
    double busy_seconds_ = 0.0;
    SimTime busy_since_;

    void startNext();
};

}  // namespace faasflow::engine

#endif  // FAASFLOW_ENGINE_SERVICE_QUEUE_H_
