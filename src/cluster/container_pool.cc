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
    // keep-alive expiry evict the cold tail. Ties (same last-used instant)
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
    FnIndex& fs = fn_index_[function];
    const SimTime now = sim_.now();
    fs.busy_integral +=
        static_cast<double>(fs.busy) *
        (now - std::max(fs.last_change, stats_epoch_)).secondsF();
    fs.last_change = now;
    fs.busy += delta;
    assert(fs.busy >= 0);
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
    ++fn_index_[function].waiting;
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
ContainerPool::reserveContainer(const std::string& function, bool make_room)
{
    if (containerCount(function) >= config_.per_function_limit)
        return false;
    const int64_t mem = registry_.get(function).mem_provisioned;
    if (make_room && config_.keep_alive == KeepAlivePolicy::GreedyDual)
        evictForSpace(mem);
    return reserve_memory_(mem);
}

template <typename OnStarted>
void
ContainerPool::startContainer(const std::string& function,
                              OnStarted on_started)
{
    auto container = std::make_unique<Container>(
        next_id_++, function, registry_.get(function).mem_provisioned);
    const uint64_t id = container->id();
    containers_.emplace(id, std::move(container));
    ++fn_index_[function].count;

    SimTime cold = config_.cold_start_mean;
    if (config_.cold_start_sigma > 0.0) {
        cold = SimTime::micros(static_cast<int64_t>(rng_.lognormal(
            static_cast<double>(cold.micros()), config_.cold_start_sigma)));
    }
    const uint64_t epoch = crash_epoch_;
    sim_.schedule(cold, [this, id, epoch,
                         on_started = std::move(on_started)]() mutable {
        if (epoch != crash_epoch_) {
            // The node crashed while this container was starting. Drop
            // any waiter: its executor abandons via the same epoch.
            return;
        }
        const auto it = containers_.find(id);
        on_started(it == containers_.end() ? nullptr : it->second.get());
    });
}

bool
ContainerPool::tryCreate(const std::string& function,
                         std::function<void(AcquireResult)>& on_ready,
                         SimTime queued_since)
{
    if (!reserveContainer(function, /*make_room=*/true))
        return false;
    ++cold_starts_;
    const SimTime queue_delay = sim_.now() - queued_since;
    startContainer(function, [this, function, queue_delay,
                              cb = std::move(on_ready)](Container* c) mutable {
        if (!c) {
            // Recycled by a red-black switch mid-start: the waiter must
            // not be dropped — transparently retry the acquisition.
            acquire(function, std::move(cb));
            return;
        }
        c->state_ = ContainerState::Busy;
        c->use_count_++;
        noteBusyChange(function, +1);
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
    for (auto& [fn, idx] : fn_index_) {
        idx.idle.clear();
        idx.count = 0;
        idx.waiting = 0;
    }
    expiries_.clear();
    if (expiry_timer_.valid()) {
        sim_.cancel(expiry_timer_);
        expiry_timer_ = {};
    }
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
        parkIdle(container);
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
    for (; started < count && reserveContainer(function, /*make_room=*/false);
         ++started) {
        startContainer(function, [this](Container* c) {
            if (!c)
                return;  // recycled mid-start; no waiter to re-serve
            parkIdle(c);
            // A queued acquisition may be waiting for exactly this warm
            // container.
            serveWaiters();
        });
    }
    return started;
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
ContainerPool::parkIdle(Container* container)
{
    container->state_ = ContainerState::Idle;
    container->last_used_ = sim_.now();
    addIdle(container);
    if (config_.keep_alive != KeepAlivePolicy::FixedLifetime)
        return;
    expiries_.push_back(Expiry{sim_.now() + config_.container_lifetime,
                               container->id(), container->useCount()});
    if (!expiry_timer_.valid())
        armExpiryTimer();
}

Container*
ContainerPool::expiring(const Expiry& e) const
{
    const auto it = containers_.find(e.id);
    if (it == containers_.end())
        return nullptr;
    Container* c = it->second.get();
    // Only a container that stayed idle the whole lifetime retires.
    if (c->state() != ContainerState::Idle || c->useCount() != e.use_count)
        return nullptr;
    return c;
}

void
ContainerPool::armExpiryTimer()
{
    while (!expiries_.empty() && !expiring(expiries_.front()))
        expiries_.pop_front();
    if (expiries_.empty())
        return;
    expiry_timer_ =
        sim_.scheduleAt(expiries_.front().when, [this] { expireIdle(); });
}

void
ContainerPool::expireIdle()
{
    expiry_timer_ = {};
    const SimTime now = sim_.now();
    while (!expiries_.empty() && expiries_.front().when <= now) {
        if (Container* c = expiring(expiries_.front()))
            destroy(c);
        expiries_.pop_front();
    }
    armExpiryTimer();
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
                --fn_index_[it->function].waiting;
                wait_queue_.erase(it);
                sim_.schedule(SimTime::zero(),
                              [cb = std::move(cb), result] { cb(result); });
                progress = true;
                break;
            }
            if (tryCreate(it->function, it->on_ready, it->enqueue_time)) {
                --fn_index_[it->function].waiting;
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

ContainerPool::FunctionLoad
ContainerPool::functionLoad(const std::string& function) const
{
    const auto it = fn_index_.find(function);
    if (it == fn_index_.end())
        return {};
    const FnIndex& idx = it->second;
    return FunctionLoad{idx.count, idx.busy, idx.waiting};
}

double
ContainerPool::averageConcurrency(const std::string& function) const
{
    const auto it = fn_index_.find(function);
    if (it == fn_index_.end())
        return 0.0;
    const FnIndex& fs = it->second;
    const double window = (sim_.now() - stats_epoch_).secondsF();
    if (window <= 0.0)
        return static_cast<double>(fs.busy);
    const double integral =
        fs.busy_integral +
        static_cast<double>(fs.busy) *
            (sim_.now() - std::max(fs.last_change, stats_epoch_)).secondsF();
    return integral / window;
}

}  // namespace faasflow::cluster
