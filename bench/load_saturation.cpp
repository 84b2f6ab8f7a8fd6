/**
 * @file
 * Multi-tenant open-loop saturation sweep (the load subsystem's
 * headline experiment).
 *
 * Three tenants — Poisson over Vid, bursty on/off over FP, a diurnal
 * ramp over WC — drive one FaaSFlow deployment open-loop while the
 * offered-load multiplier ramps until well past the knee, once with
 * admission control off and once with fixed per-tenant token buckets.
 * The autoscaler steers the warm pools in both variants.
 *
 * Expected shape: goodput tracks offered load up to the knee and
 * flattens after it; past the knee the no-admission baseline's p99
 * diverges (every queue grows for the whole horizon) while admission
 * keeps admitted-work p99 near its pre-knee value by shedding the
 * excess at the front door.
 *
 * The full sweepJson text is folded into the section digest, so the
 * byte-identity guarantee across runs and campaign-thread counts is
 * part of the golden check.
 */
#include <cstdio>

#include "harness.h"
#include "load/saturation.h"
#include "sections.h"

namespace faasflow::bench {

void
runLoadSaturation(const RunOptions& opts, Report& report)
{
    load::SaturationConfig cfg;
    cfg.threads = opts.campaignWidth();
    if (opts.smoke) {
        cfg.multipliers = {0.5, 2.0};
        cfg.horizon = SimTime::seconds(5);
    }
    const load::SweepResult result = load::runSaturationSweep(cfg);

    std::printf("%-6s %-10s %10s %10s %12s %10s\n", "mult",
                "admission", "offered/s", "goodput/s", "p99 ms",
                "shed");
    for (const load::SweepPoint& p : result.points) {
        uint64_t shed = 0;
        for (const load::TenantPoint& t : p.tenants)
            shed += t.shed;
        std::printf("%-6.2f %-10s %10.2f %10.2f %12.1f %10llu\n",
                    p.multiplier, p.admission ? "on" : "off",
                    p.offered_per_s, p.goodput_per_s, p.p99_ms,
                    static_cast<unsigned long long>(shed));

        const std::string prefix = strFormat(
            "m%.2f_%s_", p.multiplier, p.admission ? "on" : "off");
        report.pin(prefix + "goodput_per_s", p.goodput_per_s);
        report.pin(prefix + "p99_ms", p.p99_ms);
        report.pin(prefix + "shed", static_cast<double>(shed));
    }
    std::printf("knee multiplier (admission off): %.2f\n",
                result.knee_multiplier);
    report.pin("knee_multiplier", result.knee_multiplier);

    // The serialized sweep is the determinism artifact: folding
    // the whole text makes any byte-level drift across runs or
    // thread counts a digest mismatch.
    report.digest(load::sweepJson(result, cfg));
}

}  // namespace faasflow::bench
