#include "engine/service_queue.h"

#include <algorithm>

namespace faasflow::engine {

ServiceQueue::ServiceQueue(sim::Simulator& sim, SimTime service_mean,
                           double service_sigma, Rng rng)
    : sim_(sim), service_mean_(service_mean), service_sigma_(service_sigma),
      rng_(rng), window_start_(sim.now())
{
}

void
ServiceQueue::submit(std::function<void()> handler)
{
    queue_.push_back(std::move(handler));
    if (!busy_) {
        busy_ = true;
        busy_since_ = sim_.now();
        startNext();
    }
}

void
ServiceQueue::startNext()
{
    if (queue_.empty()) {
        busy_seconds_ += (sim_.now() - busy_since_).secondsF();
        busy_ = false;
        return;
    }
    auto handler = std::move(queue_.front());
    queue_.pop_front();

    SimTime service = service_mean_;
    if (service_sigma_ > 0.0) {
        service = SimTime::micros(static_cast<int64_t>(rng_.lognormal(
            static_cast<double>(service.micros()), service_sigma_)));
    }
    sim_.schedule(service, [this, handler = std::move(handler)] {
        handler();
        ++processed_;
        startNext();
    });
}

double
ServiceQueue::utilisation() const
{
    const double window = (sim_.now() - window_start_).secondsF();
    if (window <= 0.0)
        return 0.0;
    double busy = busy_seconds_;
    if (busy_)
        busy += (sim_.now() - busy_since_).secondsF();
    return std::min(1.0, busy / window);
}

}  // namespace faasflow::engine
