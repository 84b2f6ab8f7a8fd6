#include "storage/remote_store.h"

#include "common/logging.h"

namespace faasflow::storage {

RemoteStore::RemoteStore(sim::Simulator& sim, net::Network& network,
                         net::NodeId storage_node, Config config)
    : sim_(sim), network_(network), storage_node_(storage_node),
      config_(config)
{
}

RemoteStore::RemoteStore(sim::Simulator& sim, net::Network& network,
                         net::NodeId storage_node)
    : RemoteStore(sim, network, storage_node, Config{})
{
}

void
RemoteStore::setDegradeFactor(double factor)
{
    if (factor < 1.0)
        panic("remote store: degrade factor must be >= 1");
    degrade_factor_ = factor;
}

SimTime
RemoteStore::opLatency() const
{
    if (degrade_factor_ == 1.0)
        return config_.op_latency;
    return SimTime::micros(static_cast<int64_t>(
        static_cast<double>(config_.op_latency.micros()) * degrade_factor_));
}

void
RemoteStore::put(const std::string& key, int64_t bytes, int from_node,
                 PutCallback on_done, obs::SpanId cause)
{
    stats_.puts++;
    stats_.bytes_written += bytes;
    objects_[key] = bytes;

    const SimTime start = sim_.now();
    obs::SpanId span = 0;
    if (trace_ && trace_->enabled()) {
        span = trace_->openSpan(
            "storage", "put", static_cast<int>(obs::TraceTrack::Storage),
            start);
        trace_->flow("storage", cause, span, start, start);
    }
    const auto done = [this, start, span,
                       key](const PutCallback& cb) {
        if (trace_)
            trace_->closeSpan(span, sim_.now(), key);
        if (cb)
            cb(sim_.now() - start);
    };
    if (from_node == storage_node_ || bytes == 0) {
        // Loopback write (master-side client) or a zero-size marker: only
        // the operation latency applies.
        sim_.schedule(opLatency(),
                      [done, cb = std::move(on_done)] { done(cb); });
        return;
    }
    network_.startFlow(
        from_node, storage_node_, bytes,
        [this, done, cb = std::move(on_done)](SimTime) {
            sim_.schedule(opLatency(), [done, cb] { done(cb); });
        });
}

void
RemoteStore::get(const std::string& key, int to_node, GetCallback on_done,
                 obs::SpanId cause)
{
    const auto it = objects_.find(key);
    if (it == objects_.end())
        panic("remote store: get of missing key '%s'", key.c_str());
    const int64_t bytes = it->second;
    stats_.gets++;
    stats_.bytes_read += bytes;

    const SimTime start = sim_.now();
    obs::SpanId span = 0;
    if (trace_ && trace_->enabled()) {
        span = trace_->openSpan(
            "storage", "get", static_cast<int>(obs::TraceTrack::Storage),
            start);
    }
    const auto done = [this, start, span, cause, key,
                       bytes](const GetCallback& cb) {
        if (trace_) {
            trace_->closeSpan(span, sim_.now(), key);
            // The arrow lands when the data does — at the consumer.
            trace_->flow("storage", span, cause, sim_.now(), sim_.now());
        }
        if (cb)
            cb(sim_.now() - start, bytes);
    };
    if (to_node == storage_node_ || bytes == 0) {
        sim_.schedule(opLatency(),
                      [done, cb = std::move(on_done)] { done(cb); });
        return;
    }
    // Operation latency first (lookup), then the transfer back.
    sim_.schedule(opLatency(), [this, to_node, bytes, done,
                                cb = std::move(on_done)]() mutable {
        network_.startFlow(storage_node_, to_node, bytes,
                           [done, cb = std::move(cb)](SimTime) {
                               done(cb);
                           });
    });
}

bool
RemoteStore::contains(const std::string& key) const
{
    return objects_.count(key) > 0;
}

void
RemoteStore::erase(const std::string& key)
{
    objects_.erase(key);
}

int64_t
RemoteStore::storedBytes() const
{
    int64_t total = 0;
    for (const auto& [key, bytes] : objects_)
        total += bytes;
    return total;
}

}  // namespace faasflow::storage
