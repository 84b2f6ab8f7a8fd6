#ifndef FAASFLOW_OBS_PROFILE_H_
#define FAASFLOW_OBS_PROFILE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_time.h"
#include "json/json.h"

namespace faasflow::obs {

/**
 * Fixed-bin log-scale histogram over non-negative integer samples
 * (microseconds or bytes).
 *
 * Binning is pure integer bit-math — octave = position of the leading
 * bit, plus kSubBits sub-octave bits of the mantissa — so two samples
 * land in the same bin on every platform, with no libm in sight.
 * Relative bin width is 2^(1/4)-ish (4 sub-buckets per octave, ~19%
 * worst-case quantile error), which is plenty for profiles whose
 * consumers care about factors, not microseconds.
 */
class LogHistogram
{
  public:
    static constexpr int kSubBits = 2;              ///< 4 sub-buckets/octave
    static constexpr int kSub = 1 << kSubBits;
    static constexpr int kOctaves = 40;             ///< covers ~10^12
    /** Bin 0 holds zero/negative samples; the rest are log-spaced. */
    static constexpr int kBins = 1 + kOctaves * kSub;

    /** Bin index of a sample (pure integer math, branch-light). */
    static int binOf(int64_t value);

    /** Inclusive upper bound of a bin (the quantile estimate read out
     *  for any sample that landed in it). */
    static int64_t binUpper(int bin);

    void record(int64_t value);

    uint64_t count() const { return count_; }
    int64_t sum() const { return sum_; }
    int64_t max() const { return max_; }
    double mean() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                                 static_cast<double>(count_);
    }

    /** Upper bound of the bin holding the q-quantile sample (exact bin
     *  arithmetic — deterministic, no interpolation). q in [0, 1]. */
    int64_t quantile(double q) const;

    int64_t p50() const { return quantile(0.50); }
    int64_t p99() const { return quantile(0.99); }

    /** Folds count/sum/max and every occupied bin into an FNV-1a hash
     *  (bins in index order, so equal state => equal fold). */
    uint64_t fold(uint64_t h) const;

    /** Non-empty bins as [bin, count] pairs (JSON dump). */
    json::Value binsJson() const;

    const std::array<uint64_t, kBins>& bins() const { return bins_; }

  private:
    uint64_t count_ = 0;
    int64_t sum_ = 0;
    int64_t max_ = 0;
    std::array<uint64_t, kBins> bins_{};
};

/**
 * One rolling-window bucket ring on the simulated clock. Buckets are
 * keyed by absolute bucket index (now / width); advancing to a newer
 * index lazily clears the slots in between — no scheduled events, so
 * the window machinery is sim-inert by construction. Samples older than
 * the ring are counted but not windowed.
 */
class RollingWindow
{
  public:
    struct Bucket
    {
        uint64_t count = 0;
        int64_t value_sum = 0;   ///< latency µs (or misses for SLO use)
        int64_t weight_sum = 0;  ///< bytes (or totals for SLO use)
        int64_t value_max = 0;
    };

    RollingWindow() = default;
    RollingWindow(SimTime span, int buckets);

    void record(SimTime now, int64_t value, int64_t weight);

    /** Aggregate over the buckets covering [now - span, now]. */
    Bucket totals(SimTime now) const;

    SimTime span() const { return span_; }

    /** The worst (max value) bucket ever observed, with its start time —
     *  the "which window misbehaved" answer anomaly reports carry. */
    const Bucket& worstBucket() const { return worst_; }
    SimTime worstBucketStart() const { return worst_start_; }

  private:
    SimTime span_ = SimTime::seconds(5);
    int64_t bucket_us_ = 625 * 1000;
    std::vector<Bucket> ring_;
    int64_t newest_index_ = -1;
    Bucket worst_;
    SimTime worst_start_;

    void advanceTo(int64_t index);
    void noteWorst(int64_t index);
};

/** Tuning knobs of the online profiler (SystemConfig::profile). */
struct ProfileConfig
{
    /** Rolling-window span and resolution for per-edge baselines. */
    SimTime window = SimTime::seconds(5);
    int window_buckets = 8;

    /** An edge is bytes-anomalous when observed mean bytes deviate from
     *  the WDL spec bytes by more than this factor (either direction). */
    double anomaly_bytes_factor = 4.0;

    /** An edge is latency-anomalous when its worst-window mean latency
     *  exceeds this factor times the lifetime median. */
    double anomaly_latency_factor = 8.0;

    /** Anomaly verdicts need at least this many lifetime samples. */
    uint64_t anomaly_min_samples = 4;
};

/** One flagged edge (the signal a live repartitioner would key on). */
struct EdgeAnomaly
{
    std::string workflow;
    std::string from;
    std::string to;
    size_t edge = 0;
    /** "bytes" (spec deviation) or "latency" (window blow-up). */
    std::string kind;
    double factor = 0.0;      ///< observed deviation factor
    double observed = 0.0;    ///< observed mean bytes / worst-window µs
    double expected = 0.0;    ///< spec bytes / lifetime median µs
    SimTime window_start;     ///< start of the offending window
};

/**
 * Online profile store: streaming per-(workflow, node) and per-(workflow,
 * edge) cost profiles, plus store-op / network-transfer / per-tenant
 * aggregates, all on the simulated clock.
 *
 * Recording only mutates host-side state — no simulated events are
 * scheduled, so a profiled run is bit-identical to an unprofiled one
 * (the same inertness contract as TraceRecorder/TelemetrySampler).
 *
 * Determinism: every per-key aggregate is a commutative fold (histogram
 * bin adds, sums, maxes), keys live in ordered maps, and digest() walks
 * them in that domain order — so the digest depends on which samples
 * were recorded, not on the order they arrived in.
 */
class ProfileStore
{
  public:
    explicit ProfileStore(ProfileConfig config = {});

    void enable() { enabled_ = true; }
    void disable() { enabled_ = false; }
    bool enabled() const { return enabled_; }

    const ProfileConfig& config() const { return config_; }

    // ---- node samples ------------------------------------------------

    void recordExec(std::string_view workflow, std::string_view node,
                    SimTime exec);
    /** Container-queue wait (only recorded when non-zero upstream). */
    void recordQueue(std::string_view workflow, std::string_view node,
                     SimTime wait);
    void recordColdStart(std::string_view workflow, std::string_view node,
                         SimTime duration);
    /** Engine-side scheduling latency: trigger/assignment submission to
     *  the executor actually starting the node. */
    void recordSched(std::string_view workflow, std::string_view node,
                     SimTime latency);

    // ---- edge samples ------------------------------------------------

    /**
     * One observed transfer over a DAG edge payload item.
     * @param spec_bytes the WDL-declared size (anomaly baseline)
     * @param bytes the observed size
     * @param local whether FaaStore served it locally
     */
    void recordEdge(std::string_view workflow, size_t edge,
                    std::string_view from, std::string_view to,
                    SimTime now, int64_t spec_bytes, int64_t bytes,
                    SimTime latency, bool local);

    // ---- substrate samples -------------------------------------------

    enum class StoreOp { FetchLocal, FetchRemote, SaveLocal, SaveRemote };
    void recordStoreOp(StoreOp op, int64_t bytes, SimTime latency);

    /** One completed bulk network flow. */
    void recordTransfer(int64_t bytes, SimTime latency);

    // ---- tenant samples ----------------------------------------------

    void recordTenantArrival(std::string_view tenant);
    void recordTenantCompletion(std::string_view tenant, SimTime e2e,
                                bool missed_deadline);

    // ---- aggregation -------------------------------------------------

    /** FNV-1a over all aggregates, keys walked in domain (sorted map)
     *  order. Equal across any recording order. */
    uint64_t digest() const;

    uint64_t nodeSampleCount() const { return node_samples_; }
    uint64_t edgeSampleCount() const { return edge_samples_; }

    /** Edges whose observed bytes or worst-window latency deviate past
     *  the configured factors (see ProfileConfig). Deterministic. */
    std::vector<EdgeAnomaly> anomalies() const;

    /** Full dump: schema faasflow.profile.v1 (see faasflow_top). */
    json::Value toJson(SimTime now) const;

    /** Prometheus text exposition of profile summary gauges (appended to
     *  the TelemetrySampler exposition via its extra-exposition hook). */
    std::string toPrometheusText() const;

    void clear();

    // ---- introspection (tests) ---------------------------------------

    struct NodeProfile
    {
        LogHistogram exec_us;
        LogHistogram queue_us;
        LogHistogram sched_us;
        LogHistogram coldstart_us;
        uint64_t runs = 0;
        uint64_t cold_starts = 0;
    };

    struct EdgeProfile
    {
        std::string from;
        std::string to;
        int64_t spec_bytes = 0;
        LogHistogram bytes;
        LogHistogram latency_us;
        uint64_t local_hits = 0;
        uint64_t remote_hits = 0;
        RollingWindow window;
        bool window_ready = false;
    };

    struct TenantProfile
    {
        uint64_t arrivals = 0;
        uint64_t completions = 0;
        uint64_t misses = 0;
        LogHistogram e2e_us;
    };

    using NodeKey = std::pair<std::string, std::string>;
    using EdgeKey = std::pair<std::string, size_t>;

    const std::map<NodeKey, NodeProfile>& nodes() const { return nodes_; }
    const std::map<EdgeKey, EdgeProfile>& edges() const { return edges_; }
    const std::map<std::string, TenantProfile>& tenants() const
    {
        return tenants_;
    }

  private:
    struct StoreOpProfile
    {
        LogHistogram latency_us;
        LogHistogram bytes;
    };

    ProfileConfig config_;
    bool enabled_ = false;

    std::map<NodeKey, NodeProfile> nodes_;
    std::map<EdgeKey, EdgeProfile> edges_;
    std::map<std::string, TenantProfile> tenants_;
    std::array<StoreOpProfile, 4> store_ops_;
    LogHistogram transfer_bytes_;
    LogHistogram transfer_latency_;

    uint64_t node_samples_ = 0;
    uint64_t edge_samples_ = 0;
    uint64_t transfer_count_ = 0;

    NodeProfile& nodeProfile(std::string_view workflow,
                             std::string_view node);
    EdgeProfile& edgeProfile(std::string_view workflow, size_t edge,
                             std::string_view from, std::string_view to,
                             int64_t spec_bytes);
};

/** Human label of a StoreOp ("fetch_local", ...). */
std::string_view storeOpName(ProfileStore::StoreOp op);

}  // namespace faasflow::obs

#endif  // FAASFLOW_OBS_PROFILE_H_
