/**
 * @file
 * Self-test of the traced run's policy wrapper: on a short trace,
 * for every revoke::allPolicies() entry and every revocation backend,
 * a replay with perfbench::TimingPolicy installed must produce the
 * same modelled statistics as one without it, and must have recorded
 * revocation spans. Exits non-zero on any difference.
 * perfbench/run.py --self-test runs it.
 */

#include <cstdio>
#include <memory>
#include <string>

#include "fingerprint.hh"
#include "timing.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth.hh"

using namespace cherivoke;

namespace {

/** Replay @p trace under @p policy and @p backend; wrap the policy
 *  when @p tracer is set. @return the modelled fingerprint */
std::string
replay(const workload::Trace &trace, revoke::PolicyKind policy,
       revoke::BackendKind backend, perfbench::Tracer *tracer)
{
    mem::AddressSpace space(512 * KiB, 512 * KiB);
    alloc::CherivokeConfig acfg;
    acfg.quarantineFraction = 0.10;
    acfg.minQuarantineBytes = 16 * KiB;
    acfg.dl.initialHeapBytes = 256 * KiB;
    acfg.dl.growthChunkBytes = 128 * KiB;
    alloc::CherivokeAllocator allocator(space, acfg);
    revoke::EngineConfig ecfg;
    ecfg.policy = policy;
    ecfg.backend = backend;
    ecfg.pagesPerSlice = 8; // several slices per sliced epoch
    // Compact often enough that the short trace reaches an object-ID
    // epoch.
    ecfg.backendConfig.idCompactRetired = 256;
    revoke::RevocationEngine engine(allocator, space, ecfg);
    if (tracer) {
        engine.setDomainPolicyObject(
            0, std::make_unique<perfbench::TimingPolicy>(
                   revoke::makePolicy(policy), *tracer));
    }
    workload::TraceDriver driver(space, allocator, &engine);
    perfbench::Fingerprint fp;
    fp.driver("run", driver.run(trace));
    fp.backend("backend", engine.domainBackendStats(0));
    fp.u("residentPages", space.memory().residentPages());
    return fp.text();
}

} // namespace

int
main()
{
    workload::SynthConfig scfg;
    scfg.scale = 1.0 / 256;
    scfg.durationSec = 0.3;
    scfg.seed = 7;
    const workload::Trace trace =
        workload::synthesize(workload::profileFor("xalancbmk"), scfg);

    const revoke::BackendKind backends[] = {revoke::BackendKind::Sweep,
                                            revoke::BackendKind::Color,
                                            revoke::BackendKind::ObjectId};
    int failures = 0;
    for (revoke::PolicyKind policy : revoke::allPolicies()) {
        for (revoke::BackendKind backend : backends) {
            perfbench::Tracer tracer;
            const std::string bare = replay(trace, policy, backend, nullptr);
            const std::string wrapped =
                replay(trace, policy, backend, &tracer);
            const bool same = bare == wrapped;
            const bool spanned =
                tracer.calls(perfbench::Layer::Revoke) > 0 &&
                !tracer.pausesNs.empty();
            const bool ok = same && spanned;
            std::printf("%s wrapper %-14s x %-5s: %s%s\n",
                        ok ? "PASS" : "FAIL", revoke::policyName(policy),
                        revoke::backendName(backend),
                        same ? "transparent" : "statistics differ",
                        spanned ? "" : ", no revocation spans recorded");
            failures += !ok;
        }
    }
    return failures == 0 ? 0 : 1;
}
