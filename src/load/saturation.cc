#include "load/saturation.h"

#include <functional>

#include "benchmarks/specs.h"
#include "common/campaign.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "faasflow/client.h"
#include "faasflow/system.h"
#include "load/autoscaler.h"
#include "load/driver.h"
#include "load/spec.h"

namespace faasflow::load {

namespace {

/** Deploys one benchmark the standard way (warm-up, one partition
 *  iteration, settle) — the §5.1 methodology, local to keep the load
 *  library independent of bench/harness.h. */
std::string
deployScenarioBenchmark(System& system, benchmarks::Benchmark bench)
{
    system.registerFunctions(bench.functions);
    const std::string name = system.deploy(std::move(bench.dag));
    ClosedLoopClient warmup(system, name, 10);
    warmup.start();
    system.run();
    system.repartition(name);
    ClosedLoopClient settle(system, name, 6);
    settle.start();
    system.run();
    return name;
}

/** Base (multiplier = 1) arrival rates, per minute. The admission caps
 *  below stay fixed while the multiplier scales the offered load, so
 *  past the knee the caps bind — that contrast is the experiment. */
constexpr double kAlphaRatePerMin = 25.0;    // Poisson over Vid
constexpr double kBravoOnRatePerMin = 40.0;  // bursty over FP
constexpr double kCharliePeakPerMin = 25.0;  // diurnal ramp over WC

TenantSpec
makeTenant(const std::string& name, const std::string& workflow,
           ArrivalSpec arrival, bool admission, double admit_rate_per_s,
           double burst)
{
    TenantSpec t;
    t.name = name;
    t.arrival = arrival;
    t.mix.push_back(MixEntry{workflow, 1.0});
    if (admission) {
        t.admission.enabled = true;
        t.admission.rate_per_s = admit_rate_per_s;
        t.admission.burst = burst;
        t.admission.defer = false;  // shed: admitted work stays bounded
    }
    return t;
}

}  // namespace

SweepPoint
runScenario(double multiplier, bool admission, const SaturationConfig& cfg)
{
    System system(SystemConfig::faasflowFaastore());
    const std::string vid =
        deployScenarioBenchmark(system, benchmarks::videoFfmpeg());
    const std::string fp =
        deployScenarioBenchmark(system, benchmarks::fileProcessing());
    const std::string wc =
        deployScenarioBenchmark(system, benchmarks::wordCount());
    system.metrics().clear();

    LoadSpec spec;
    spec.present = true;
    spec.horizon = cfg.horizon;
    spec.autoscale = cfg.autoscale;

    ArrivalSpec alpha_arrival;
    alpha_arrival.kind = ArrivalKind::Poisson;
    alpha_arrival.rate_per_min = kAlphaRatePerMin * multiplier;
    spec.tenants.push_back(
        makeTenant("alpha", vid, alpha_arrival, admission, 0.50, 5.0));

    ArrivalSpec bravo_arrival;
    bravo_arrival.kind = ArrivalKind::Bursty;
    bravo_arrival.rate_per_min = kBravoOnRatePerMin * multiplier;
    bravo_arrival.on_mean = SimTime::seconds(10);
    bravo_arrival.off_mean = SimTime::seconds(10);
    spec.tenants.push_back(
        makeTenant("bravo", fp, bravo_arrival, admission, 0.35, 10.0));

    ArrivalSpec charlie_arrival;
    charlie_arrival.kind = ArrivalKind::DiurnalRamp;
    charlie_arrival.rate_per_min = kCharliePeakPerMin * multiplier;
    charlie_arrival.base_rate_per_min = 0.2 * kCharliePeakPerMin * multiplier;
    charlie_arrival.period = SimTime::seconds(60);
    spec.tenants.push_back(
        makeTenant("charlie", wc, charlie_arrival, admission, 0.25, 5.0));

    LoadDriver driver(system, std::move(spec), cfg.seed);
    Autoscaler scaler(system);
    driver.start();
    if (cfg.autoscale)
        scaler.start();
    system.run();

    SweepPoint point;
    point.multiplier = multiplier;
    point.admission = admission;
    point.scale_ups = scaler.stats().scale_up_total;
    const double horizon_s = cfg.horizon.secondsF();
    Percentiles aggregate;
    for (const char* tenant : {"alpha", "bravo", "charlie"}) {
        const TenantAdmissionStats& st = system.admissionStats(tenant);
        TenantPoint tp;
        tp.tenant = tenant;
        tp.offered = st.offered;
        tp.admitted = st.admitted;
        tp.shed = st.shed;
        tp.completed = st.completed;
        tp.timeouts = st.timeouts;
        tp.shed_rate =
            st.offered > 0
                ? static_cast<double>(st.shed) /
                      static_cast<double>(st.offered)
                : 0.0;
        const Percentiles& e2e = system.metrics().tenantE2e(tenant);
        if (e2e.count() > 0) {
            tp.p50_ms = e2e.p50();
            tp.p99_ms = e2e.p99();
        }
        size_t good = 0;
        for (const double sample : e2e.samples()) {
            aggregate.add(sample);
            if (sample <= cfg.slo_ms)
                ++good;
        }
        tp.goodput_per_s = static_cast<double>(good) / horizon_s;
        point.offered_per_s +=
            static_cast<double>(st.offered) / horizon_s;
        point.goodput_per_s += tp.goodput_per_s;
        point.tenants.push_back(std::move(tp));
    }
    if (aggregate.count() > 0)
        point.p99_ms = aggregate.p99();
    return point;
}

SweepResult
runSaturationSweep(const SaturationConfig& cfg)
{
    std::vector<std::function<SweepPoint()>> jobs;
    for (const double m : cfg.multipliers) {
        for (const bool admission : {false, true}) {
            jobs.push_back(
                [m, admission, &cfg] { return runScenario(m, admission, cfg); });
        }
    }
    const unsigned threads =
        cfg.threads > 0 ? cfg.threads : bench::campaignThreads();
    SweepResult result;
    result.points = bench::runCampaign<SweepPoint>(jobs, threads);

    // Knee of the admission-off curve: the last multiplier whose goodput
    // gain still tracked at least half of the offered-load gain.
    const SweepPoint* prev = nullptr;
    for (const SweepPoint& p : result.points) {
        if (p.admission)
            continue;
        if (!prev) {
            result.knee_multiplier = p.multiplier;
            prev = &p;
            continue;
        }
        const double d_offered = p.offered_per_s - prev->offered_per_s;
        const double d_goodput = p.goodput_per_s - prev->goodput_per_s;
        if (d_offered > 0.0 && d_goodput >= 0.5 * d_offered)
            result.knee_multiplier = p.multiplier;
        else
            break;
        prev = &p;
    }
    return result;
}

std::string
sweepJson(const SweepResult& result, const SaturationConfig& cfg)
{
    std::string out;
    out += "{\n";
    out += strFormat("  \"bench\": \"load_saturation\",\n");
    out += strFormat("  \"horizon_s\": %.3f,\n", cfg.horizon.secondsF());
    out += strFormat("  \"slo_ms\": %.1f,\n", cfg.slo_ms);
    out += strFormat("  \"seed\": %llu,\n",
                     static_cast<unsigned long long>(cfg.seed));
    out += strFormat("  \"autoscale\": %s,\n",
                     cfg.autoscale ? "true" : "false");
    out += strFormat("  \"knee_multiplier\": %.3f,\n",
                     result.knee_multiplier);
    out += "  \"points\": [\n";
    for (size_t i = 0; i < result.points.size(); ++i) {
        const SweepPoint& p = result.points[i];
        out += "    {\n";
        out += strFormat("      \"multiplier\": %.3f,\n", p.multiplier);
        out += strFormat("      \"admission\": %s,\n",
                         p.admission ? "true" : "false");
        out += strFormat("      \"offered_per_s\": %.4f,\n",
                         p.offered_per_s);
        out += strFormat("      \"goodput_per_s\": %.4f,\n",
                         p.goodput_per_s);
        out += strFormat("      \"p99_ms\": %.3f,\n", p.p99_ms);
        out += strFormat("      \"scale_ups\": %llu,\n",
                         static_cast<unsigned long long>(p.scale_ups));
        out += "      \"tenants\": [\n";
        for (size_t t = 0; t < p.tenants.size(); ++t) {
            const TenantPoint& tp = p.tenants[t];
            out += "        {";
            out += strFormat("\"tenant\": \"%s\", ", tp.tenant.c_str());
            out += strFormat("\"offered\": %llu, ",
                             static_cast<unsigned long long>(tp.offered));
            out += strFormat("\"admitted\": %llu, ",
                             static_cast<unsigned long long>(tp.admitted));
            out += strFormat("\"shed\": %llu, ",
                             static_cast<unsigned long long>(tp.shed));
            out += strFormat("\"completed\": %llu, ",
                             static_cast<unsigned long long>(tp.completed));
            out += strFormat("\"timeouts\": %llu, ",
                             static_cast<unsigned long long>(tp.timeouts));
            out += strFormat("\"shed_rate\": %.4f, ", tp.shed_rate);
            out += strFormat("\"goodput_per_s\": %.4f, ",
                             tp.goodput_per_s);
            out += strFormat("\"p50_ms\": %.3f, ", tp.p50_ms);
            out += strFormat("\"p99_ms\": %.3f", tp.p99_ms);
            out += t + 1 < p.tenants.size() ? "},\n" : "}\n";
        }
        out += "      ]\n";
        out += i + 1 < result.points.size() ? "    },\n" : "    }\n";
    }
    out += "  ]\n";
    out += "}\n";
    return out;
}

}  // namespace faasflow::load
