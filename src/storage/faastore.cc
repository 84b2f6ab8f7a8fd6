#include "storage/faastore.h"

#include <algorithm>

#include "common/logging.h"

namespace faasflow::storage {

FaaStore::FaaStore(sim::Simulator& sim, cluster::WorkerNode& node,
                   RemoteStore& remote, Config config)
    : sim_(sim), node_(node), remote_(remote), config_(config)
{
    MemStore::Config mem_config = config.mem;
    if (config.sandbox == Sandbox::MicroVM) {
        // Built-in in-memory storage distributed among the MicroVMs:
        // reads/writes cross a vsock boundary instead of shared memory.
        mem_config.op_latency += config.microvm_access_latency;
    }
    mem_ = std::make_unique<MemStore>(sim, 0, mem_config);
}

FaaStore::FaaStore(sim::Simulator& sim, cluster::WorkerNode& node,
                   RemoteStore& remote)
    : FaaStore(sim, node, remote, Config{})
{
}

int64_t
FaaStore::overProvision(const cluster::FunctionSpec& spec, double map_factor,
                        int64_t headroom)
{
    const int64_t reclaimable =
        std::max<int64_t>(spec.mem_provisioned - spec.mem_peak - headroom, 0);
    return static_cast<int64_t>(static_cast<double>(reclaimable) *
                                std::max(map_factor, 1.0));
}

int64_t
FaaStore::groupQuota(
    const std::vector<std::pair<const cluster::FunctionSpec*, double>>&
        members,
    int64_t headroom)
{
    int64_t quota = 0;
    for (const auto& [spec, map_factor] : members)
        quota += overProvision(*spec, map_factor, headroom);
    return quota;
}

bool
FaaStore::allocatePool(const std::string& workflow, int64_t quota)
{
    if (quota < 0)
        panic("faastore: negative pool quota");
    Pool& pool = pools_[workflow];
    const int64_t delta = quota - pool.quota;
    if (delta > 0) {
        if (!node_.reserveMemory(delta))
            return false;
    } else if (delta < 0) {
        node_.releaseMemory(-delta);
    }
    pool.quota = quota;
    int64_t total = 0;
    for (const auto& [name, p] : pools_)
        total += p.quota;
    mem_->setCapacity(total);
    return true;
}

void
FaaStore::releasePool(const std::string& workflow)
{
    const auto it = pools_.find(workflow);
    if (it == pools_.end())
        return;
    node_.releaseMemory(it->second.quota);
    pools_.erase(it);
    int64_t total = 0;
    for (const auto& [name, p] : pools_)
        total += p.quota;
    mem_->setCapacity(total);
}

int64_t
FaaStore::poolQuota(const std::string& workflow) const
{
    const auto it = pools_.find(workflow);
    return it == pools_.end() ? 0 : it->second.quota;
}

int64_t
FaaStore::poolUsed(const std::string& workflow) const
{
    const auto it = pools_.find(workflow);
    return it == pools_.end() ? 0 : it->second.used;
}

void
FaaStore::save(const std::string& workflow, const std::string& key,
               int64_t bytes, bool prefer_local,
               std::function<void(SimTime, bool)> on_done, obs::SpanId cause)
{
    if (prefer_local) {
        const auto it = pools_.find(workflow);
        const bool quota_ok =
            it != pools_.end() && it->second.used + bytes <= it->second.quota;
        if (quota_ok && mem_->tryReserve(bytes)) {
            it->second.used += bytes;
            key_workflow_[key] = workflow;
            ++local_saves_;
            mem_->put(key, bytes, [cb = std::move(on_done)](SimTime elapsed) {
                if (cb)
                    cb(elapsed, true);
            });
            return;
        }
        ++quota_rejections_;
    }
    ++remote_saves_;
    remote_.put(key, bytes, node_.netId(),
                [cb = std::move(on_done)](SimTime elapsed) {
                    if (cb)
                        cb(elapsed, false);
                },
                cause);
}

bool
FaaStore::hasLocal(const std::string& key) const
{
    return mem_->contains(key);
}

void
FaaStore::fetch(const std::string& key, GetCallback on_done,
                obs::SpanId cause)
{
    if (mem_->contains(key)) {
        mem_->get(key, std::move(on_done));
    } else {
        remote_.get(key, node_.netId(), std::move(on_done), cause);
    }
}

void
FaaStore::drop(const std::string& workflow, const std::string& key)
{
    if (mem_->contains(key)) {
        const auto wf = key_workflow_.find(key);
        // Account the freed bytes back to the owning pool.
        const auto it =
            pools_.find(wf != key_workflow_.end() ? wf->second : workflow);
        if (it != pools_.end()) {
            const int64_t bytes = mem_->usedBytes();
            mem_->erase(key);
            it->second.used -= bytes - mem_->usedBytes();
        } else {
            mem_->erase(key);
        }
        if (wf != key_workflow_.end())
            key_workflow_.erase(wf);
    } else {
        remote_.erase(key);
    }
}

void
FaaStore::onNodeCrash()
{
    mem_->clear();
    key_workflow_.clear();
    for (auto& [name, pool] : pools_)
        pool.used = 0;
}

void
FaaStore::reclaimContainerMemory(cluster::ContainerPool& pool,
                                 cluster::Container* container,
                                 const cluster::FunctionSpec& spec) const
{
    if (config_.sandbox == Sandbox::MicroVM) {
        // No memory hot-unplug for MicroVMs (§4.3.2): ballooning and
        // virtio-mem are avoided; the quota is provisioned inside the
        // VMs up front, so there is nothing to shrink here.
        return;
    }
    const int64_t target =
        std::min(container->memLimit(), spec.mem_peak + config_.headroom);
    pool.shrinkMemLimit(container, target);
}

}  // namespace faasflow::storage
