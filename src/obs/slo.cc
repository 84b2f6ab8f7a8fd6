#include "obs/slo.h"

#include <algorithm>

#include "common/string_util.h"

namespace faasflow::obs {

namespace {
constexpr int kWindowBuckets = 8;
}  // namespace

void
SloMonitor::setSpec(std::string_view tenant, const SloSpec& spec)
{
    TenantState& state = tenants_[std::string(tenant)];
    state.spec = spec;
    state.short_window = RollingWindow(spec.short_window, kWindowBuckets);
    state.long_window = RollingWindow(spec.long_window, kWindowBuckets);
}

const SloSpec*
SloMonitor::spec(std::string_view tenant) const
{
    const auto it = tenants_.find(std::string(tenant));
    return it == tenants_.end() ? nullptr : &it->second.spec;
}

double
SloMonitor::burnRate(const RollingWindow& window, SimTime now,
                     double miss_budget)
{
    const RollingWindow::Bucket totals = window.totals(now);
    if (totals.count == 0 || miss_budget <= 0.0)
        return 0.0;  // empty window / zero-traffic tenant: nothing burns
    const double miss_rate = static_cast<double>(totals.value_sum) /
                             static_cast<double>(totals.count);
    return miss_rate / miss_budget;
}

void
SloMonitor::evaluate(const std::string& tenant, TenantState& state,
                     SimTime now)
{
    const double short_burn =
        burnRate(state.short_window, now, state.spec.miss_budget);
    const double long_burn =
        burnRate(state.long_window, now, state.spec.miss_budget);

    if (!state.alerting) {
        if (short_burn >= state.spec.fire_burn &&
            long_burn >= state.spec.fire_burn) {
            state.alerting = true;
            ++state.alerts_fired;
            ++alerts_fired_;
            if (trace_) {
                state.alert_span = trace_->openSpan(
                    "slo_alert", strFormat("slo_alert:%s", tenant.c_str()),
                    static_cast<int>(TraceTrack::Client), now, 0,
                    strFormat("burn short=%.2f long=%.2f budget=%.4f",
                              short_burn, long_burn,
                              state.spec.miss_budget));
            }
        }
    } else if (short_burn < state.spec.clear_burn &&
               long_burn < state.spec.clear_burn) {
        state.alerting = false;
        if (trace_ && state.alert_span != 0) {
            trace_->closeSpan(state.alert_span, now,
                              strFormat("cleared short=%.2f long=%.2f",
                                        short_burn, long_burn));
            state.alert_span = 0;
        }
    }
}

void
SloMonitor::recordCompletion(std::string_view tenant, SimTime now,
                             SimTime e2e, bool forced_miss)
{
    const auto it = tenants_.find(std::string(tenant));
    if (it == tenants_.end())
        return;  // un-SLO'd tenant: nothing to monitor
    TenantState& state = it->second;
    const bool missed = forced_miss || e2e > state.spec.deadline;
    ++state.total;
    if (missed)
        ++state.missed;
    state.short_window.record(now, missed ? 1 : 0, 1);
    state.long_window.record(now, missed ? 1 : 0, 1);
    evaluate(it->first, state, now);
}

void
SloMonitor::finish(SimTime now)
{
    for (auto& [tenant, state] : tenants_) {
        if (state.alerting && trace_ && state.alert_span != 0) {
            trace_->closeSpan(state.alert_span, now, "open at finish");
            state.alert_span = 0;
        }
    }
}

std::vector<SloMonitor::TenantStatus>
SloMonitor::snapshot(SimTime now) const
{
    std::vector<TenantStatus> out;
    out.reserve(tenants_.size());
    for (const auto& [tenant, state] : tenants_) {
        TenantStatus s;
        s.tenant = tenant;
        s.spec = state.spec;
        s.total = state.total;
        s.missed = state.missed;
        s.short_burn = burnRate(state.short_window, now,
                                state.spec.miss_budget);
        s.long_burn = burnRate(state.long_window, now,
                               state.spec.miss_budget);
        s.alerting = state.alerting;
        s.alerts_fired = state.alerts_fired;
        out.push_back(std::move(s));
    }
    return out;
}

json::Value
SloMonitor::toJson(SimTime now) const
{
    json::Value out = json::Value::array();
    for (const TenantStatus& s : snapshot(now)) {
        json::Value t = json::Value::object();
        t.set("tenant", json::Value(s.tenant));
        t.set("deadline_us", json::Value(s.spec.deadline.micros()));
        t.set("target_p99_us", json::Value(s.spec.target_p99.micros()));
        t.set("miss_budget", json::Value(s.spec.miss_budget));
        t.set("total", json::Value(static_cast<int64_t>(s.total)));
        t.set("missed", json::Value(static_cast<int64_t>(s.missed)));
        t.set("short_burn", json::Value(s.short_burn));
        t.set("long_burn", json::Value(s.long_burn));
        t.set("alerting", json::Value(s.alerting));
        t.set("alerts_fired",
              json::Value(static_cast<int64_t>(s.alerts_fired)));
        out.asArray().push_back(std::move(t));
    }
    return out;
}

std::string
SloMonitor::toPrometheusText(SimTime now) const
{
    std::string out;
    out += "# TYPE faasflow_slo_burn_rate gauge\n";
    for (const TenantStatus& s : snapshot(now)) {
        out += strFormat("faasflow_slo_burn_rate{tenant=\"%s\","
                         "window=\"short\"} %.10g\n",
                         s.tenant.c_str(), s.short_burn);
        out += strFormat("faasflow_slo_burn_rate{tenant=\"%s\","
                         "window=\"long\"} %.10g\n",
                         s.tenant.c_str(), s.long_burn);
    }
    out += "# TYPE faasflow_slo_missed_total gauge\n";
    for (const TenantStatus& s : snapshot(now)) {
        out += strFormat("faasflow_slo_missed_total{tenant=\"%s\"} %llu\n",
                         s.tenant.c_str(),
                         static_cast<unsigned long long>(s.missed));
    }
    out += "# TYPE faasflow_slo_alerting gauge\n";
    for (const TenantStatus& s : snapshot(now)) {
        out += strFormat("faasflow_slo_alerting{tenant=\"%s\"} %d\n",
                         s.tenant.c_str(), s.alerting ? 1 : 0);
    }
    out += "# TYPE faasflow_slo_alerts_fired_total gauge\n";
    for (const TenantStatus& s : snapshot(now)) {
        out += strFormat("faasflow_slo_alerts_fired_total{tenant=\"%s\"} "
                         "%llu\n",
                         s.tenant.c_str(),
                         static_cast<unsigned long long>(s.alerts_fired));
    }
    return out;
}

uint64_t
SloMonitor::alertsActive() const
{
    uint64_t n = 0;
    for (const auto& [tenant, state] : tenants_) {
        if (state.alerting)
            ++n;
    }
    return n;
}

}  // namespace faasflow::obs
