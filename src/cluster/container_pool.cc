#include "cluster/container_pool.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace faasflow::cluster {

ContainerPool::ContainerPool(sim::Simulator& sim,
                             const FunctionRegistry& registry, Config config,
                             Rng rng,
                             std::function<bool(int64_t)> reserve_memory,
                             std::function<void(int64_t)> release_memory)
    : sim_(sim),
      registry_(registry),
      config_(config),
      rng_(rng),
      reserve_memory_(std::move(reserve_memory)),
      release_memory_(std::move(release_memory)),
      stats_epoch_(sim.now())
{
    assert(reserve_memory_ && release_memory_);
}

ContainerPool::~ContainerPool() = default;

Container*
ContainerPool::findIdle(const std::string& function)
{
    // Most-recently-used reuse keeps warm containers warm and lets the
    // lifetime check evict the cold tail. Ties (same last-used instant)
    // break towards the lowest container id, matching a scan of the
    // id-ordered container map.
    const auto it = fn_index_.find(function);
    if (it == fn_index_.end())
        return nullptr;
    Container* best = nullptr;
    for (Container* c : it->second.idle) {
        if (!best || c->lastUsed() > best->lastUsed() ||
            (c->lastUsed() == best->lastUsed() && c->id() < best->id()))
            best = c;
    }
    return best;
}

void
ContainerPool::addIdle(Container* container)
{
    fn_index_[container->function()].idle.push_back(container);
}

void
ContainerPool::removeIdle(Container* container)
{
    auto& idle = fn_index_[container->function()].idle;
    const auto it = std::find(idle.begin(), idle.end(), container);
    if (it != idle.end()) {
        *it = idle.back();
        idle.pop_back();
    }
}

void
ContainerPool::noteBusyChange(const std::string& function, int delta)
{
    FunctionStats& fs = stats_[function];
    const SimTime now = sim_.now();
    fs.busy_integral +=
        static_cast<double>(fs.busy) *
        (now - std::max(fs.last_change, stats_epoch_)).secondsF();
    fs.last_change = now;
    fs.busy += delta;
    assert(fs.busy >= 0);
    fs.peak = std::max(fs.peak, fs.busy);
}

void
ContainerPool::acquire(const std::string& function,
                       std::function<void(AcquireResult)> on_ready)
{
    if (Container* warm = findIdle(function)) {
        removeIdle(warm);
        warm->state_ = ContainerState::Busy;
        warm->use_count_++;
        ++warm_hits_;
        noteBusyChange(function, +1);
        AcquireResult result{warm, false, SimTime::zero()};
        // Deliver asynchronously so callers never re-enter their own call
        // stack (uniform with the cold-start path).
        sim_.schedule(SimTime::zero(),
                      [cb = std::move(on_ready), result] { cb(result); });
        return;
    }
    if (tryCreate(function, on_ready, sim_.now()))
        return;
    // No capacity right now: queue until a release or destroy frees some.
    // (This is the auto-scaling queue of §4.2.2: "the worker engine pushes
    // the task to a queue for containers to capture".)
    wait_queue_.push_back(Waiter{function, sim_.now(), std::move(on_ready)});
}

bool
ContainerPool::evictForSpace(int64_t bytes_needed)
{
    while (true) {
        if (reserve_memory_(bytes_needed)) {
            // Space exists now; give the reservation back — tryCreate
            // performs the real one.
            release_memory_(bytes_needed);
            return true;
        }
        // Lowest keep-alive priority first: frequency x cold cost / size
        // (the Greedy-Dual ranking FaasCache uses).
        Container* victim = nullptr;
        double victim_priority = 0.0;
        for (auto& [id, c] : containers_) {
            if (c->state() != ContainerState::Idle)
                continue;
            const double priority =
                static_cast<double>(c->useCount()) *
                config_.cold_start_mean.secondsF() /
                static_cast<double>(c->memLimit());
            if (!victim || priority < victim_priority) {
                victim = c.get();
                victim_priority = priority;
            }
        }
        if (!victim)
            return false;
        ++pressure_evictions_;
        destroy(victim);
    }
}

bool
ContainerPool::tryCreate(const std::string& function,
                         std::function<void(AcquireResult)>& on_ready,
                         SimTime queued_since)
{
    if (containerCount(function) >= config_.per_function_limit)
        return false;
    const FunctionSpec& spec = registry_.get(function);
    if (config_.keep_alive == KeepAlivePolicy::GreedyDual)
        evictForSpace(spec.mem_provisioned);
    if (!reserve_memory_(spec.mem_provisioned))
        return false;

    ++cold_starts_;
    auto container = std::make_unique<Container>(
        next_id_++, function, spec.mem_provisioned);
    Container* raw = container.get();
    containers_.emplace(raw->id(), std::move(container));
    ++fn_index_[function].count;

    SimTime cold = config_.cold_start_mean;
    if (config_.cold_start_sigma > 0.0) {
        cold = SimTime::micros(static_cast<int64_t>(rng_.lognormal(
            static_cast<double>(cold.micros()), config_.cold_start_sigma)));
    }
    const SimTime queue_delay = sim_.now() - queued_since;
    const uint64_t id = raw->id();
    const uint64_t epoch = crash_epoch_;
    sim_.schedule(cold, [this, id, function, queue_delay, epoch,
                         cb = std::move(on_ready)]() mutable {
        if (epoch != crash_epoch_) {
            // The node crashed while this container was starting. Drop
            // the waiter: its executor abandons via the same epoch.
            return;
        }
        const auto it = containers_.find(id);
        if (it == containers_.end()) {
            // Recycled by a red-black switch mid-start: the waiter must
            // not be dropped — transparently retry the acquisition.
            acquire(function, std::move(cb));
            return;
        }
        Container* c = it->second.get();
        c->state_ = ContainerState::Busy;
        c->use_count_++;
        noteBusyChange(c->function(), +1);
        cb(AcquireResult{c, true, queue_delay});
    });
    return true;
}

void
ContainerPool::crash()
{
    ++crash_epoch_;
    for (auto& [id, c] : containers_) {
        if (c->state() == ContainerState::Busy)
            noteBusyChange(c->function(), -1);
        release_memory_(c->mem_limit_);
        c->state_ = ContainerState::Destroyed;
    }
    containers_.clear();
    wait_queue_.clear();
    fn_index_.clear();
}

void
ContainerPool::release(Container* container)
{
    if (container->state_ != ContainerState::Busy)
        panic("release of non-busy container %llu",
              static_cast<unsigned long long>(container->id()));
    noteBusyChange(container->function(), -1);
    if (container->recycle_on_release_ ||
        config_.keep_alive == KeepAlivePolicy::AlwaysCold) {
        // Red-black: a recycled function's container goes as soon as its
        // in-flight task returns. AlwaysCold recycles unconditionally.
        destroy(container);
    } else {
        container->state_ = ContainerState::Idle;
        container->last_used_ = sim_.now();
        addIdle(container);
        if (config_.keep_alive == KeepAlivePolicy::FixedLifetime)
            scheduleLifetimeCheck(container);
    }
    serveWaiters();
}

void
ContainerPool::releaseCrashed(Container* container)
{
    if (container->state_ != ContainerState::Busy)
        panic("releaseCrashed of non-busy container %llu",
              static_cast<unsigned long long>(container->id()));
    noteBusyChange(container->function(), -1);
    destroy(container);
    serveWaiters();
}

void
ContainerPool::shrinkMemLimit(Container* container, int64_t new_limit)
{
    if (new_limit > container->mem_limit_)
        panic("shrinkMemLimit would grow the container");
    const int64_t delta = container->mem_limit_ - new_limit;
    if (delta == 0)
        return;
    container->mem_limit_ = new_limit;
    release_memory_(delta);
}

void
ContainerPool::recycleFunction(const std::string& function)
{
    std::vector<Container*> stale;
    for (auto& [id, c] : containers_) {
        if (c->function() != function)
            continue;
        if (c->state() == ContainerState::Busy) {
            c->recycle_on_release_ = true;
        } else {
            stale.push_back(c.get());
        }
    }
    for (Container* c : stale)
        destroy(c);
    serveWaiters();
}

int
ContainerPool::prewarm(const std::string& function, int count)
{
    int started = 0;
    for (; started < count; ++started) {
        if (containerCount(function) >= config_.per_function_limit)
            break;
        const FunctionSpec& spec = registry_.get(function);
        if (!reserve_memory_(spec.mem_provisioned))
            break;
        ++prewarm_starts_;
        auto container = std::make_unique<Container>(
            next_id_++, function, spec.mem_provisioned);
        Container* raw = container.get();
        containers_.emplace(raw->id(), std::move(container));
        ++fn_index_[function].count;

        SimTime cold = config_.cold_start_mean;
        if (config_.cold_start_sigma > 0.0) {
            cold = SimTime::micros(static_cast<int64_t>(rng_.lognormal(
                static_cast<double>(cold.micros()),
                config_.cold_start_sigma)));
        }
        const uint64_t id = raw->id();
        const uint64_t epoch = crash_epoch_;
        sim_.schedule(cold, [this, id, epoch] {
            if (epoch != crash_epoch_)
                return;  // node crashed while the prewarm was starting
            const auto it = containers_.find(id);
            if (it == containers_.end())
                return;  // recycled mid-start; no waiter to re-serve
            Container* c = it->second.get();
            c->state_ = ContainerState::Idle;
            c->last_used_ = sim_.now();
            addIdle(c);
            if (config_.keep_alive == KeepAlivePolicy::FixedLifetime)
                scheduleLifetimeCheck(c);
            // A queued acquisition may be waiting for exactly this warm
            // container.
            serveWaiters();
        });
    }
    return started;
}

int
ContainerPool::trimIdle(const std::string& function, int keep)
{
    const auto it = fn_index_.find(function);
    if (it == fn_index_.end())
        return 0;
    // Coldest-first: destroy the least-recently-used idle containers
    // beyond `keep` (ties break towards the lowest id, like findIdle).
    std::vector<Container*> idle = it->second.idle;
    std::sort(idle.begin(), idle.end(), [](Container* a, Container* b) {
        if (a->lastUsed() != b->lastUsed())
            return a->lastUsed() < b->lastUsed();
        return a->id() < b->id();
    });
    const int excess = static_cast<int>(idle.size()) - std::max(keep, 0);
    for (int i = 0; i < excess; ++i) {
        destroy(idle[i]);
        ++idle_trims_;
    }
    if (excess > 0)
        serveWaiters();  // freed memory may unblock other functions
    return std::max(excess, 0);
}

size_t
ContainerPool::waitersFor(const std::string& function) const
{
    size_t n = 0;
    for (const Waiter& w : wait_queue_)
        if (w.function == function)
            ++n;
    return n;
}

void
ContainerPool::destroy(Container* container)
{
    if (container->state() == ContainerState::Idle)
        removeIdle(container);
    --fn_index_[container->function()].count;
    release_memory_(container->mem_limit_);
    container->state_ = ContainerState::Destroyed;
    containers_.erase(container->id());
}

void
ContainerPool::scheduleLifetimeCheck(Container* container)
{
    const uint64_t id = container->id();
    const uint64_t use_count = container->useCount();
    sim_.schedule(config_.container_lifetime, [this, id, use_count] {
        const auto it = containers_.find(id);
        if (it == containers_.end())
            return;
        Container* c = it->second.get();
        // Destroy only if it stayed idle the whole time.
        if (c->state() == ContainerState::Idle && c->useCount() == use_count)
            destroy(c);
    });
}

void
ContainerPool::serveWaiters()
{
    // FIFO scan: try to satisfy each waiter either with a warm container
    // or by creating one; stop changing nothing is possible for the rest.
    bool progress = true;
    while (progress && !wait_queue_.empty()) {
        progress = false;
        for (auto it = wait_queue_.begin(); it != wait_queue_.end(); ++it) {
            if (Container* warm = findIdle(it->function)) {
                removeIdle(warm);
                warm->state_ = ContainerState::Busy;
                warm->use_count_++;
                ++warm_hits_;
                noteBusyChange(it->function, +1);
                AcquireResult result{warm, false, sim_.now() - it->enqueue_time};
                auto cb = std::move(it->on_ready);
                wait_queue_.erase(it);
                sim_.schedule(SimTime::zero(),
                              [cb = std::move(cb), result] { cb(result); });
                progress = true;
                break;
            }
            if (tryCreate(it->function, it->on_ready, it->enqueue_time)) {
                wait_queue_.erase(it);
                progress = true;
                break;
            }
        }
    }
}

int
ContainerPool::containerCount(const std::string& function) const
{
    const auto it = fn_index_.find(function);
    return it == fn_index_.end() ? 0 : it->second.count;
}

int
ContainerPool::totalContainers() const
{
    return static_cast<int>(containers_.size());
}

int
ContainerPool::busyContainers(const std::string& function) const
{
    const auto it = stats_.find(function);
    return it == stats_.end() ? 0 : it->second.busy;
}

double
ContainerPool::averageConcurrency(const std::string& function) const
{
    const auto it = stats_.find(function);
    if (it == stats_.end())
        return 0.0;
    const FunctionStats& fs = it->second;
    const double window = (sim_.now() - stats_epoch_).secondsF();
    if (window <= 0.0)
        return static_cast<double>(fs.busy);
    const double integral =
        fs.busy_integral +
        static_cast<double>(fs.busy) *
            (sim_.now() - std::max(fs.last_change, stats_epoch_)).secondsF();
    return integral / window;
}

int
ContainerPool::peakConcurrency(const std::string& function) const
{
    const auto it = stats_.find(function);
    return it == stats_.end() ? 0 : it->second.peak;
}

}  // namespace faasflow::cluster
