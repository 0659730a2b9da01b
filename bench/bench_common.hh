/**
 * @file
 * Shared helpers for the benchmark harness: the table 1 system
 * banner, default experiment settings used across figures, the host
 * clock, the multi-tenant slice profile, the BENCH_*.json writer,
 * and the main() wrapper that turns fatal() into exit status 1.
 */

#ifndef CHERIVOKE_BENCH_BENCH_COMMON_HH
#define CHERIVOKE_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats/json.hh"
#include "support/env.hh"
#include "support/logging.hh"
#include "support/units.hh"
#include "sim/experiment.hh"
#include "tenant/trace_codec.hh"

namespace cherivoke {
namespace bench {

/**
 * Run a bench's body and return its exit status. A fatal() (a bad
 * CHERIVOKE_* value, an unwritable artifact) becomes a plain error:
 * stdout is flushed so the tables printed so far survive, what() goes
 * to stderr, and the bench exits 1 instead of aborting. Every bench's
 * main() goes through here.
 */
template <typename Body>
int
runBench(Body &&body)
{
    try {
        return body();
    } catch (const FatalError &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}

/** Print the table 1 system banner every bench leads with. */
inline void
printSystems(const char *title)
{
    std::printf("==============================================\n");
    std::printf("%s\n", title);
    std::printf("==============================================\n");
    std::printf("Systems (paper table 1):\n");
    std::printf("  x86-64 : 2.9 GHz OoO, AVX2, 8 MiB LLC, "
                "DDR4 19405 MiB/s read\n");
    std::printf("  CHERI  : 100 MHz FPGA, in-order, 256 KiB LLC, "
                "DDR2\n\n");
}

/** Host wall-clock seconds on a monotonic clock. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * The consolidated-service profile for N tenants (tenant_scale's rows,
 * alloc_hotpath's tenant phase): each tenant is a 1/N slice of a
 * constant aggregate (live bytes and free traffic), so sweep period
 * and total work are comparable across rows. FIFO object lifetimes
 * (temporalFragmentation 0) keep synthesis linear-time at millions
 * of live objects.
 */
inline workload::BenchmarkProfile
sliceProfile(unsigned tenants, uint64_t agg_allocs)
{
    /** Mean allocation size the profile implies (table 2 identity). */
    constexpr double kMeanAllocBytes = 128.0;
    /** Aggregate free traffic, split evenly across tenants. */
    constexpr double kAggFreeRateMiBps = 64.0;
    workload::BenchmarkProfile p;
    p.name = "tenant_slice";
    p.pagesWithPointers = 0.35;
    p.linePointerDensity = 0.06;
    p.temporalFragmentation = 0;
    // Ramp target: agg_allocs allocations of ~125 B expected size,
    // plus margin so the allocation *count* target is certainly met.
    const double agg_heap_bytes =
        static_cast<double>(agg_allocs) * kMeanAllocBytes * 1.10;
    p.liveHeapMiB = agg_heap_bytes / MiB / tenants;
    p.freeRateMiBps = kAggFreeRateMiBps / tenants;
    p.freesPerSec =
        kAggFreeRateMiBps * MiB / kMeanAllocBytes / tenants;
    p.appDramMiBps = 2000.0 / tenants; //!< per-tenant app traffic
    return p;
}

/**
 * Per-tenant statistics fingerprint: everything a tenant's replay
 * produces (including its mutator fingerprint), minus its identity
 * and host wall-clock. Two tenants replaying the same trace under
 * the same config — a fresh slot and a reused one, a fault survivor
 * and its control run — must match byte for byte.
 */
inline std::string
tenantFingerprint(const tenant::TenantResult &t)
{
    std::string out;
    char buf[256];
    auto add = [&](const char *key, double v) {
        std::snprintf(buf, sizeof(buf), "%s=%.17g\n", key, v);
        out += buf;
    };
    auto addU = [&](const char *key, uint64_t v) {
        std::snprintf(buf, sizeof(buf), "%s=%llu\n", key,
                      static_cast<unsigned long long>(v));
        out += buf;
    };
    addU("ops_applied", t.opsApplied);
    addU("ops_total", t.opsTotal);
    addU("allocs", t.run.allocCalls);
    addU("frees", t.run.freeCalls);
    addU("freed_bytes", t.run.freedBytes);
    addU("ptr_stores", t.run.ptrStores);
    addU("peak_live_bytes", t.run.peakLiveBytes);
    addU("peak_live_allocs", t.run.peakLiveAllocs);
    addU("peak_quarantine", t.run.peakQuarantineBytes);
    addU("peak_footprint", t.run.peakFootprintBytes);
    addU("epochs", t.run.revoker.epochs);
    addU("slices", t.run.revoker.slices);
    addU("paint_ops", t.run.revoker.paint.total());
    addU("pages_swept", t.run.revoker.sweep.pagesSwept);
    addU("lines_swept", t.run.revoker.sweep.linesSwept);
    addU("caps_examined", t.run.revoker.sweep.capsExamined);
    addU("caps_revoked", t.run.revoker.sweep.capsRevoked);
    addU("internal_frees", t.run.revoker.internalFrees);
    addU("bytes_released", t.run.revoker.bytesReleased);
    addU("mutator_fp", t.mutator.fingerprint());
    add("virtual_sec", t.run.virtualSeconds);
    add("page_density", t.run.pageDensity);
    add("line_density", t.run.lineDensity);
    return out;
}

/** Round every tenant trace through the binary codec: record once,
 *  replay exactly. */
inline std::vector<workload::Trace>
codecRoundTrip(const std::vector<workload::Trace> &traces)
{
    std::vector<workload::Trace> out;
    out.reserve(traces.size());
    for (const workload::Trace &t : traces)
        out.push_back(tenant::decodeTrace(tenant::encodeTrace(t)));
    return out;
}

/**
 * Default experiment configuration used by the figure benches.
 *
 * Every figure driver honours the engine overrides, so the whole
 * suite can be reproduced under any engine configuration:
 *   CHERIVOKE_POLICY       = stw | stop-the-world | incremental |
 *                            concurrent | adaptive
 *   CHERIVOKE_THREADS      = sweep worker count (default 1)
 *   CHERIVOKE_PAINT_SHARDS = concurrent painter threads (default 1)
 *   CHERIVOKE_BACKEND      = revocation backend: sweep | color |
 *                            objid (how freed memory becomes safe
 *                            to reuse; default sweep)
 *   CHERIVOKE_BG_SWEEPER   = 1 runs a true background sweeper
 *                            thread per engine racing the mutators
 *                            (modelled statistics stay
 *                            bit-identical; default 0)
 *
 * The remaining knobs size individual benches (see their headers):
 * CHERIVOKE_ALLOC_LIVE, _TENANT_AGG_ALLOCS, _MUTATOR_OPS,
 * _MSGPASS_ENTRIES and _FAULT_SUPERVISION_ONLY. Everything else a
 * figure varies — tenants, backend tuning, fault plans — is set in
 * code through sim::ExperimentConfig.
 *
 * Parsing is strict (support/env.hh): a set-but-malformed value such
 * as CHERIVOKE_THREADS=abc fails the run with a clear error instead
 * of silently running the default configuration. Every query lands
 * in the env-knob registry; printKnobs() dumps the effective set.
 */
inline sim::ExperimentConfig
defaultConfig()
{
    sim::ExperimentConfig cfg;
    cfg.quarantineFraction = 0.25;
    cfg.kernel = revoke::SweepKernel::Vector;
    cfg.scale = 1.0 / 128;
    cfg.durationSec = 0.4;
    cfg.seed = 42;
    const std::string policy =
        envStr("CHERIVOKE_POLICY", revoke::policyName(cfg.policy));
    if (!revoke::parsePolicy(policy, cfg.policy))
        fatal("CHERIVOKE_POLICY: unknown policy '%s'",
              policy.c_str());
    cfg.threads = static_cast<unsigned>(
        envI64("CHERIVOKE_THREADS", cfg.threads));
    cfg.paintShards = static_cast<unsigned>(
        envI64("CHERIVOKE_PAINT_SHARDS", cfg.paintShards));
    const std::string backend = envStr(
        "CHERIVOKE_BACKEND", revoke::backendName(cfg.backend));
    if (!revoke::parseBackend(backend, cfg.backend))
        fatal("CHERIVOKE_BACKEND: unknown backend '%s' (expected "
              "sweep, color, or objid)",
              backend.c_str());
    cfg.bgSweeper = envI64("CHERIVOKE_BG_SWEEPER", 0, 0) != 0;
    return cfg;
}

/**
 * Reject misspelled or retired CHERIVOKE_* variables (a typo'd knob
 * is never queried, so strict per-knob parsing alone cannot catch
 * it), then print the effective knob set — every CHERIVOKE_*
 * variable this process has queried, with the value it actually ran
 * under — to stderr, so figure data on stdout stays byte-stable
 * across default and configured runs. Each bench calls this once,
 * after its configuration is fully parsed and before it runs.
 */
inline void
printKnobs()
{
    validateEnvironment();
    announceEnvKnobs();
}

} // namespace bench
} // namespace cherivoke

#endif // CHERIVOKE_BENCH_BENCH_COMMON_HH
