#include "obs/profile.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/string_util.h"

namespace faasflow::obs {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline uint64_t
fnv(uint64_t h, uint64_t v)
{
    // Byte-wise FNV-1a over the 8 bytes of v.
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= kFnvPrime;
    }
    return h;
}

inline uint64_t
fnvStr(uint64_t h, std::string_view s)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
    }
    h ^= 0xff;  // terminator so ("ab","c") != ("a","bc")
    h *= kFnvPrime;
    return h;
}

json::Value
histJson(const LogHistogram& h)
{
    json::Value v = json::Value::object();
    v.set("count", json::Value(static_cast<int64_t>(h.count())));
    v.set("sum", json::Value(h.sum()));
    v.set("max", json::Value(h.max()));
    v.set("mean", json::Value(h.mean()));
    v.set("p50", json::Value(h.p50()));
    v.set("p99", json::Value(h.p99()));
    v.set("bins", h.binsJson());
    return v;
}

}  // namespace

// ---------------------------------------------------------------------
// LogHistogram

int
LogHistogram::binOf(int64_t value)
{
    if (value <= 0)
        return 0;
    const auto v = static_cast<uint64_t>(value);
    const int width = std::bit_width(v);  // >= 1
    const int octave = width - 1;
    if (octave >= kOctaves)
        return kBins - 1;
    // kSubBits mantissa bits right below the leading bit; octave 0..
    // kSubBits-1 have fewer mantissa bits, shift left to spread them.
    const int shift = octave - kSubBits;
    const uint64_t sub =
        shift >= 0 ? (v >> shift) & (kSub - 1)
                   : (v << -shift) & (kSub - 1);
    return 1 + octave * kSub + static_cast<int>(sub);
}

int64_t
LogHistogram::binUpper(int bin)
{
    if (bin <= 0)
        return 0;
    const int octave = (bin - 1) / kSub;
    const int sub = (bin - 1) % kSub;
    if (octave >= kOctaves - 1 && sub == kSub - 1)
        return std::numeric_limits<int64_t>::max();
    // Upper bound: the smallest value of the next bin, minus one. In
    // the sub-unit octaves (octave < kSubBits) every integer value has
    // its own sub-bucket, so the bound is that single value.
    const int shift = octave - kSubBits;
    const uint64_t base = 1ULL << octave;
    const uint64_t step_num = static_cast<uint64_t>(sub) + 1;
    const uint64_t upper =
        shift >= 0 ? base + (step_num << shift) - 1
                   : base + (static_cast<uint64_t>(sub) >> -shift);
    return static_cast<int64_t>(std::max<uint64_t>(upper, base));
}

void
LogHistogram::record(int64_t value)
{
    ++count_;
    sum_ += std::max<int64_t>(value, 0);
    max_ = std::max(max_, value);
    ++bins_[static_cast<size_t>(binOf(value))];
}

void
LogHistogram::merge(const LogHistogram& other)
{
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
    for (int b = 0; b < kBins; ++b)
        bins_[static_cast<size_t>(b)] +=
            other.bins_[static_cast<size_t>(b)];
}

int64_t
LogHistogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    const double clamped = std::min(std::max(q, 0.0), 1.0);
    // Rank arithmetic in integers: the ceil(q*count)-th sample.
    const double exact = clamped * static_cast<double>(count_);
    auto rank = static_cast<uint64_t>(exact);
    if (static_cast<double>(rank) < exact)
        ++rank;
    rank = std::max<uint64_t>(rank, 1);
    uint64_t seen = 0;
    for (int b = 0; b < kBins; ++b) {
        seen += bins_[static_cast<size_t>(b)];
        if (seen >= rank) {
            // The max clamp keeps the top bin's huge nominal upper bound
            // from leaking into quantiles.
            return std::min(binUpper(b), max_);
        }
    }
    return max_;
}

uint64_t
LogHistogram::fold(uint64_t h) const
{
    h = fnv(h, count_);
    h = fnv(h, static_cast<uint64_t>(sum_));
    h = fnv(h, static_cast<uint64_t>(max_));
    for (int b = 0; b < kBins; ++b) {
        const uint64_t c = bins_[static_cast<size_t>(b)];
        if (c != 0) {
            h = fnv(h, static_cast<uint64_t>(b));
            h = fnv(h, c);
        }
    }
    return h;
}

json::Value
LogHistogram::binsJson() const
{
    json::Value out = json::Value::array();
    for (int b = 0; b < kBins; ++b) {
        const uint64_t c = bins_[static_cast<size_t>(b)];
        if (c == 0)
            continue;
        json::Value pair = json::Value::array();
        pair.asArray().push_back(json::Value(static_cast<int64_t>(b)));
        pair.asArray().push_back(json::Value(static_cast<int64_t>(c)));
        out.asArray().push_back(std::move(pair));
    }
    return out;
}

// ---------------------------------------------------------------------
// RollingWindow

RollingWindow::RollingWindow(SimTime span, int buckets)
    : span_(span),
      bucket_us_(std::max<int64_t>(span.micros() / std::max(buckets, 1), 1)),
      ring_(static_cast<size_t>(std::max(buckets, 1)))
{
}

void
RollingWindow::advanceTo(int64_t index)
{
    if (index <= newest_index_)
        return;
    const auto n = static_cast<int64_t>(ring_.size());
    // Clear only the slots actually skipped (bounded by the ring size).
    const int64_t first_stale = std::max(newest_index_ - n + 1, int64_t{0});
    for (int64_t i = std::max(index - n + 1, first_stale + n);
         i <= index; ++i) {
        ring_[static_cast<size_t>(i % n)] = Bucket{};
    }
    if (newest_index_ < 0 || index - newest_index_ >= n) {
        for (auto& b : ring_)
            b = Bucket{};
    }
    newest_index_ = index;
}

void
RollingWindow::noteWorst(int64_t index)
{
    const auto n = static_cast<int64_t>(ring_.size());
    const Bucket& b = ring_[static_cast<size_t>(index % n)];
    if (b.count == 0)
        return;
    // "Worst" = highest per-sample mean value; ties keep the earlier
    // window (first blow-up wins), which is deterministic.
    const double mean = static_cast<double>(b.value_sum) /
                        static_cast<double>(b.count);
    const double worst_mean =
        worst_.count == 0 ? -1.0
                          : static_cast<double>(worst_.value_sum) /
                                static_cast<double>(worst_.count);
    if (mean > worst_mean) {
        worst_ = b;
        worst_start_ = SimTime::micros(index * bucket_us_);
    }
}

void
RollingWindow::record(SimTime now, int64_t value, int64_t weight)
{
    const int64_t index = now.micros() / bucket_us_;
    advanceTo(index);
    const auto n = static_cast<int64_t>(ring_.size());
    if (index <= newest_index_ - n)
        return;  // older than the ring
    Bucket& b = ring_[static_cast<size_t>(index % n)];
    ++b.count;
    b.value_sum += value;
    b.weight_sum += weight;
    b.value_max = std::max(b.value_max, value);
    noteWorst(index);
}

RollingWindow::Bucket
RollingWindow::totals(SimTime now) const
{
    Bucket out;
    if (newest_index_ < 0)
        return out;
    const auto n = static_cast<int64_t>(ring_.size());
    const int64_t now_index = now.micros() / bucket_us_;
    for (int64_t i = std::max(now_index - n + 1, int64_t{0});
         i <= newest_index_ && i <= now_index; ++i) {
        const Bucket& b = ring_[static_cast<size_t>(i % n)];
        out.count += b.count;
        out.value_sum += b.value_sum;
        out.weight_sum += b.weight_sum;
        out.value_max = std::max(out.value_max, b.value_max);
    }
    return out;
}

// ---------------------------------------------------------------------
// ProfileStore

ProfileStore::ProfileStore(ProfileConfig config) : config_(config) {}

ProfileStore::NodeProfile&
ProfileStore::nodeProfile(std::string_view workflow, std::string_view node)
{
    return nodes_[NodeKey{std::string(workflow), std::string(node)}];
}

ProfileStore::EdgeProfile&
ProfileStore::edgeProfile(std::string_view workflow, size_t edge,
                          std::string_view from, std::string_view to,
                          int64_t spec_bytes)
{
    EdgeProfile& p = edges_[EdgeKey{std::string(workflow), edge}];
    if (!p.window_ready) {
        p.from = std::string(from);
        p.to = std::string(to);
        p.spec_bytes = spec_bytes;
        p.window = RollingWindow(config_.window, config_.window_buckets);
        p.window_ready = true;
    }
    return p;
}

void
ProfileStore::recordExec(std::string_view workflow, std::string_view node,
                         SimTime exec)
{
    if (!enabled_)
        return;
    NodeProfile& p = nodeProfile(workflow, node);
    p.exec_us.record(exec.micros());
    ++p.runs;
    ++node_samples_;
}

void
ProfileStore::recordQueue(std::string_view workflow, std::string_view node,
                          SimTime wait)
{
    if (!enabled_)
        return;
    nodeProfile(workflow, node).queue_us.record(wait.micros());
    ++node_samples_;
}

void
ProfileStore::recordColdStart(std::string_view workflow,
                              std::string_view node, SimTime duration)
{
    if (!enabled_)
        return;
    NodeProfile& p = nodeProfile(workflow, node);
    p.coldstart_us.record(duration.micros());
    ++p.cold_starts;
    ++node_samples_;
}

void
ProfileStore::recordSched(std::string_view workflow, std::string_view node,
                          SimTime latency)
{
    if (!enabled_)
        return;
    nodeProfile(workflow, node).sched_us.record(latency.micros());
    ++node_samples_;
}

void
ProfileStore::recordEdge(std::string_view workflow, size_t edge,
                         std::string_view from, std::string_view to,
                         SimTime now, int64_t spec_bytes, int64_t bytes,
                         SimTime latency, bool local)
{
    if (!enabled_)
        return;
    EdgeProfile& p = edgeProfile(workflow, edge, from, to, spec_bytes);
    p.bytes.record(bytes);
    p.latency_us.record(latency.micros());
    if (local) {
        ++p.local_hits;
    } else {
        ++p.remote_hits;
    }
    p.window.record(now, latency.micros(), bytes);
    ++edge_samples_;
}

void
ProfileStore::recordStoreOp(StoreOp op, int64_t bytes, SimTime latency)
{
    if (!enabled_)
        return;
    StoreOpProfile& p = store_ops_[static_cast<size_t>(op)];
    p.latency_us.record(latency.micros());
    p.bytes.record(bytes);
}

void
ProfileStore::recordTransfer(int64_t bytes, SimTime latency)
{
    if (!enabled_)
        return;
    transfer_bytes_.record(bytes);
    transfer_latency_.record(latency.micros());
    ++transfer_count_;
}

void
ProfileStore::recordTenantArrival(std::string_view tenant)
{
    if (!enabled_)
        return;
    ++tenants_[std::string(tenant)].arrivals;
}

void
ProfileStore::recordTenantCompletion(std::string_view tenant, SimTime e2e,
                                     bool missed_deadline)
{
    if (!enabled_)
        return;
    TenantProfile& p = tenants_[std::string(tenant)];
    ++p.completions;
    if (missed_deadline)
        ++p.misses;
    p.e2e_us.record(e2e.micros());
}

void
ProfileStore::merge(const ProfileStore& other)
{
    for (const auto& [key, p] : other.nodes_) {
        NodeProfile& mine = nodes_[key];
        mine.exec_us.merge(p.exec_us);
        mine.queue_us.merge(p.queue_us);
        mine.sched_us.merge(p.sched_us);
        mine.coldstart_us.merge(p.coldstart_us);
        mine.runs += p.runs;
        mine.cold_starts += p.cold_starts;
    }
    for (const auto& [key, p] : other.edges_) {
        EdgeProfile& mine = edges_[key];
        if (!mine.window_ready) {
            mine.from = p.from;
            mine.to = p.to;
            mine.spec_bytes = p.spec_bytes;
            mine.window = RollingWindow(config_.window,
                                        config_.window_buckets);
            mine.window_ready = true;
        }
        mine.bytes.merge(p.bytes);
        mine.latency_us.merge(p.latency_us);
        mine.local_hits += p.local_hits;
        mine.remote_hits += p.remote_hits;
        // Rolling windows are presentation state, not part of the
        // mergeable algebra; keep the worse of the two worst buckets so
        // anomaly verdicts survive a merge.
        const RollingWindow::Bucket& theirs = p.window.worstBucket();
        const RollingWindow::Bucket& ours = mine.window.worstBucket();
        const auto bucket_mean = [](const RollingWindow::Bucket& b) {
            return b.count == 0 ? -1.0
                                : static_cast<double>(b.value_sum) /
                                      static_cast<double>(b.count);
        };
        if (bucket_mean(theirs) > bucket_mean(ours))
            mine.window = p.window;
    }
    for (const auto& [key, p] : other.tenants_) {
        TenantProfile& mine = tenants_[key];
        mine.arrivals += p.arrivals;
        mine.completions += p.completions;
        mine.misses += p.misses;
        mine.e2e_us.merge(p.e2e_us);
    }
    for (size_t i = 0; i < store_ops_.size(); ++i) {
        store_ops_[i].latency_us.merge(other.store_ops_[i].latency_us);
        store_ops_[i].bytes.merge(other.store_ops_[i].bytes);
    }
    transfer_bytes_.merge(other.transfer_bytes_);
    transfer_latency_.merge(other.transfer_latency_);
    node_samples_ += other.node_samples_;
    edge_samples_ += other.edge_samples_;
    transfer_count_ += other.transfer_count_;
}

uint64_t
ProfileStore::digest() const
{
    // Domain order: the sorted maps provide it; within a key, the
    // histogram folds are fixed-order. Rolling-window state is excluded
    // — it is presentation state, not part of the mergeable algebra.
    uint64_t h = kFnvOffset;
    for (const auto& [key, p] : nodes_) {
        h = fnvStr(h, key.first);
        h = fnvStr(h, key.second);
        h = p.exec_us.fold(h);
        h = p.queue_us.fold(h);
        h = p.sched_us.fold(h);
        h = p.coldstart_us.fold(h);
        h = fnv(h, p.runs);
        h = fnv(h, p.cold_starts);
    }
    for (const auto& [key, p] : edges_) {
        h = fnvStr(h, key.first);
        h = fnv(h, key.second);
        h = fnvStr(h, p.from);
        h = fnvStr(h, p.to);
        h = fnv(h, static_cast<uint64_t>(p.spec_bytes));
        h = p.bytes.fold(h);
        h = p.latency_us.fold(h);
        h = fnv(h, p.local_hits);
        h = fnv(h, p.remote_hits);
    }
    for (const auto& [key, p] : tenants_) {
        h = fnvStr(h, key);
        h = fnv(h, p.arrivals);
        h = fnv(h, p.completions);
        h = fnv(h, p.misses);
        h = p.e2e_us.fold(h);
    }
    for (const auto& op : store_ops_) {
        h = op.latency_us.fold(h);
        h = op.bytes.fold(h);
    }
    h = transfer_bytes_.fold(h);
    h = transfer_latency_.fold(h);
    return h;
}

std::vector<EdgeAnomaly>
ProfileStore::anomalies() const
{
    std::vector<EdgeAnomaly> out;
    for (const auto& [key, p] : edges_) {
        if (p.bytes.count() < config_.anomaly_min_samples)
            continue;
        // Bytes deviation against the WDL spec, either direction.
        if (p.spec_bytes > 0) {
            const double observed = p.bytes.mean();
            const double spec = static_cast<double>(p.spec_bytes);
            const double factor =
                observed > spec ? observed / spec
                                : (observed > 0.0 ? spec / observed : 1e9);
            if (factor > config_.anomaly_bytes_factor) {
                EdgeAnomaly a;
                a.workflow = key.first;
                a.edge = key.second;
                a.from = p.from;
                a.to = p.to;
                a.kind = "bytes";
                a.factor = factor;
                a.observed = observed;
                a.expected = spec;
                a.window_start = p.window.worstBucketStart();
                out.push_back(std::move(a));
            }
        }
        // Latency blow-up: the worst window's mean against the lifetime
        // median — a link outage or brown-out stalls a handful of
        // fetches hard, which a p50 baseline is immune to.
        const RollingWindow::Bucket& worst = p.window.worstBucket();
        const auto baseline = static_cast<double>(p.latency_us.p50());
        if (worst.count > 0 && baseline > 0.0) {
            const double worst_mean =
                static_cast<double>(worst.value_sum) /
                static_cast<double>(worst.count);
            const double factor = worst_mean / baseline;
            if (factor > config_.anomaly_latency_factor) {
                EdgeAnomaly a;
                a.workflow = key.first;
                a.edge = key.second;
                a.from = p.from;
                a.to = p.to;
                a.kind = "latency";
                a.factor = factor;
                a.observed = worst_mean;
                a.expected = baseline;
                a.window_start = p.window.worstBucketStart();
                out.push_back(std::move(a));
            }
        }
    }
    // Most-deviant first; ties in key order (already sorted by the map).
    std::stable_sort(out.begin(), out.end(),
                     [](const EdgeAnomaly& a, const EdgeAnomaly& b) {
                         return a.factor > b.factor;
                     });
    return out;
}

json::Value
ProfileStore::toJson(SimTime now) const
{
    json::Value root = json::Value::object();
    root.set("schema", json::Value(std::string("faasflow.profile.v1")));
    root.set("now_us", json::Value(now.micros()));
    root.set("digest", json::Value(strFormat("%016llx",
                                             static_cast<unsigned long long>(
                                                 digest()))));
    root.set("node_samples",
             json::Value(static_cast<int64_t>(node_samples_)));
    root.set("edge_samples",
             json::Value(static_cast<int64_t>(edge_samples_)));

    json::Value nodes = json::Value::array();
    for (const auto& [key, p] : nodes_) {
        json::Value n = json::Value::object();
        n.set("workflow", json::Value(key.first));
        n.set("node", json::Value(key.second));
        n.set("runs", json::Value(static_cast<int64_t>(p.runs)));
        n.set("cold_starts",
              json::Value(static_cast<int64_t>(p.cold_starts)));
        n.set("exec_us", histJson(p.exec_us));
        n.set("queue_us", histJson(p.queue_us));
        n.set("sched_us", histJson(p.sched_us));
        n.set("coldstart_us", histJson(p.coldstart_us));
        nodes.asArray().push_back(std::move(n));
    }
    root.set("nodes", std::move(nodes));

    json::Value edges = json::Value::array();
    for (const auto& [key, p] : edges_) {
        json::Value e = json::Value::object();
        e.set("workflow", json::Value(key.first));
        e.set("edge", json::Value(static_cast<int64_t>(key.second)));
        e.set("from", json::Value(p.from));
        e.set("to", json::Value(p.to));
        e.set("spec_bytes", json::Value(p.spec_bytes));
        e.set("local_hits",
              json::Value(static_cast<int64_t>(p.local_hits)));
        e.set("remote_hits",
              json::Value(static_cast<int64_t>(p.remote_hits)));
        e.set("bytes", histJson(p.bytes));
        e.set("latency_us", histJson(p.latency_us));
        const RollingWindow::Bucket window = p.window.totals(now);
        json::Value w = json::Value::object();
        w.set("span_us", json::Value(p.window.span().micros()));
        w.set("count", json::Value(static_cast<int64_t>(window.count)));
        w.set("latency_sum_us", json::Value(window.value_sum));
        w.set("bytes_sum", json::Value(window.weight_sum));
        w.set("latency_max_us", json::Value(window.value_max));
        e.set("window", std::move(w));
        edges.asArray().push_back(std::move(e));
    }
    root.set("edges", std::move(edges));

    json::Value tenants = json::Value::array();
    for (const auto& [name, p] : tenants_) {
        json::Value t = json::Value::object();
        t.set("tenant", json::Value(name));
        t.set("arrivals", json::Value(static_cast<int64_t>(p.arrivals)));
        t.set("completions",
              json::Value(static_cast<int64_t>(p.completions)));
        t.set("misses", json::Value(static_cast<int64_t>(p.misses)));
        t.set("e2e_us", histJson(p.e2e_us));
        tenants.asArray().push_back(std::move(t));
    }
    root.set("tenants", std::move(tenants));

    json::Value ops = json::Value::array();
    for (size_t i = 0; i < store_ops_.size(); ++i) {
        const StoreOpProfile& p = store_ops_[i];
        if (p.latency_us.count() == 0)
            continue;
        json::Value o = json::Value::object();
        o.set("op", json::Value(std::string(
                        storeOpName(static_cast<StoreOp>(i)))));
        o.set("latency_us", histJson(p.latency_us));
        o.set("bytes", histJson(p.bytes));
        ops.asArray().push_back(std::move(o));
    }
    root.set("store_ops", std::move(ops));

    json::Value transfers = json::Value::object();
    transfers.set("count",
                  json::Value(static_cast<int64_t>(transfer_count_)));
    transfers.set("bytes", histJson(transfer_bytes_));
    transfers.set("latency_us", histJson(transfer_latency_));
    root.set("transfers", std::move(transfers));

    json::Value anomaly_list = json::Value::array();
    for (const EdgeAnomaly& a : anomalies()) {
        json::Value v = json::Value::object();
        v.set("kind", json::Value(a.kind));
        v.set("workflow", json::Value(a.workflow));
        v.set("edge", json::Value(static_cast<int64_t>(a.edge)));
        v.set("from", json::Value(a.from));
        v.set("to", json::Value(a.to));
        v.set("factor", json::Value(a.factor));
        v.set("observed", json::Value(a.observed));
        v.set("expected", json::Value(a.expected));
        v.set("window_start_us", json::Value(a.window_start.micros()));
        anomaly_list.asArray().push_back(std::move(v));
    }
    root.set("anomalies", std::move(anomaly_list));
    return root;
}

std::string
ProfileStore::toPrometheusText() const
{
    // Summary quantiles per (workflow, node)/(workflow, edge) series;
    // full bin detail stays in the JSON dump. Every family is emitted
    // with its TYPE line once, series grouped under it.
    std::string out;
    const auto family = [&out](const char* name) {
        out += strFormat("# TYPE %s gauge\n", name);
    };
    const auto gauge = [&out](const char* name, const std::string& labels,
                              double value) {
        out += strFormat("%s{%s} %.10g\n", name, labels.c_str(), value);
    };

    family("faasflow_profile_node_exec_us");
    for (const auto& [key, p] : nodes_) {
        for (const auto& [q, v] :
             {std::pair<const char*, int64_t>{"0.5", p.exec_us.p50()},
              std::pair<const char*, int64_t>{"0.99", p.exec_us.p99()}}) {
            gauge("faasflow_profile_node_exec_us",
                  strFormat("workflow=\"%s\",node=\"%s\",quantile=\"%s\"",
                            key.first.c_str(), key.second.c_str(), q),
                  static_cast<double>(v));
        }
    }
    family("faasflow_profile_node_queue_us");
    for (const auto& [key, p] : nodes_) {
        gauge("faasflow_profile_node_queue_us",
              strFormat("workflow=\"%s\",node=\"%s\",quantile=\"0.99\"",
                        key.first.c_str(), key.second.c_str()),
              static_cast<double>(p.queue_us.p99()));
    }
    family("faasflow_profile_node_cold_starts");
    for (const auto& [key, p] : nodes_) {
        gauge("faasflow_profile_node_cold_starts",
              strFormat("workflow=\"%s\",node=\"%s\"", key.first.c_str(),
                        key.second.c_str()),
              static_cast<double>(p.cold_starts));
    }
    family("faasflow_profile_edge_latency_us");
    for (const auto& [key, p] : edges_) {
        gauge("faasflow_profile_edge_latency_us",
              strFormat("workflow=\"%s\",edge=\"%zu\",from=\"%s\","
                        "to=\"%s\",quantile=\"0.99\"",
                        key.first.c_str(), key.second, p.from.c_str(),
                        p.to.c_str()),
              static_cast<double>(p.latency_us.p99()));
    }
    family("faasflow_profile_edge_bytes_mean");
    for (const auto& [key, p] : edges_) {
        gauge("faasflow_profile_edge_bytes_mean",
              strFormat("workflow=\"%s\",edge=\"%zu\",from=\"%s\","
                        "to=\"%s\"",
                        key.first.c_str(), key.second, p.from.c_str(),
                        p.to.c_str()),
              p.bytes.mean());
    }
    family("faasflow_profile_anomalies_total");
    gauge("faasflow_profile_anomalies_total", "scope=\"all\"",
          static_cast<double>(anomalies().size()));
    return out;
}

void
ProfileStore::clear()
{
    nodes_.clear();
    edges_.clear();
    tenants_.clear();
    for (auto& op : store_ops_)
        op = StoreOpProfile{};
    transfer_bytes_ = LogHistogram{};
    transfer_latency_ = LogHistogram{};
    node_samples_ = 0;
    edge_samples_ = 0;
    transfer_count_ = 0;
}

std::string_view
storeOpName(ProfileStore::StoreOp op)
{
    switch (op) {
    case ProfileStore::StoreOp::FetchLocal: return "fetch_local";
    case ProfileStore::StoreOp::FetchRemote: return "fetch_remote";
    case ProfileStore::StoreOp::SaveLocal: return "save_local";
    case ProfileStore::StoreOp::SaveRemote: return "save_remote";
    }
    return "unknown";
}

}  // namespace faasflow::obs
