/**
 * @file
 * Explicit registration of every production benchmark section. New
 * bench translation units add their register function here (and to the
 * declaration list in registry.h) — there is deliberately no
 * static-initializer self-registration, so the linker can never
 * silently drop a section and tests can build registries of fakes.
 */
#include "registry.h"

namespace faasflow::bench {

void
registerAllSections(Registry& registry)
{
    registerAblationModes(registry);
    registerColdstartPolicies(registry);
    registerDurabilityFrontier(registry);
    registerFig04MasterSpOverhead(registry);
    registerFig05DataMovement(registry);
    registerFig11SchedOverhead(registry);
    registerFig12BandwidthSweep(registry);
    registerFig13TailLatency(registry);
    registerFig14Colocation(registry);
    registerFig15Distribution(registry);
    registerFig16SchedulerScalability(registry);
    registerGeneratedDags(registry);
    registerLoadSaturation(registry);
    registerPerfHotpaths(registry);
    registerSec57ComponentOverhead(registry);
    registerTable2VendorQuotas(registry);
    registerTable4DataLatency(registry);
}

}  // namespace faasflow::bench
