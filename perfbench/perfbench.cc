/**
 * @file
 * The host-time benchmark program. Runs one named workload through the
 * simulator's public API, repeating set-up + timed phase until the
 * requested seconds have elapsed, and prints one JSON object with the
 * raw per-repetition measurements and the modelled fingerprint.
 * perfbench/run.py builds this binary, aggregates the repetitions,
 * checks the fingerprint against the recorded reference and prints
 * the metrics; see perfbench/README.md.
 *
 *     perfbench --workload NAME --seed N --seconds S --trace 0|1
 *               [--reps N] [--serial-twin]
 *
 * With --trace 1 the repetitions alternate untraced and traced, so
 * one process reports the tracing overhead and proves the traced
 * fingerprint equal to the untraced one.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "fingerprint.hh"
#include "sim/machine.hh"
#include "tenant/tenant_manager.hh"
#include "tenant/trace_codec.hh"
#include "timing.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth.hh"

using namespace cherivoke;
using perfbench::Layer;
using perfbench::Span;
using perfbench::Tracer;

namespace {

/** Everything one repetition measured. */
struct Rep
{
    bool traced = false;
    /** Set-up ran in full (synthesis and codec, not only the
     *  construction over inputs a previous repetition made). */
    bool fullSetup = false;
    double setupSec = 0;
    double timedSec = 0;
    double cpuSec = 0;
    uint64_t opsAttempted = 0;
    uint64_t opsApplied = 0;
    std::string modelFp;
    std::string hostFp;
    /** Per-layer counters read from the result structs. */
    std::vector<std::pair<std::string, double>> counters;
    std::unique_ptr<Tracer> tracer;

    void count(const char *name, double v) { counters.emplace_back(name, v); }
};

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
seconds(perfbench::Clock::time_point start)
{
    return 1e-9 * static_cast<double>(perfbench::nanosSince(start));
}

/** The synthesised (and, for tenants, codec round-tripped) traces a
 *  repetition replays; kept so later repetitions can reuse them. */
struct Inputs
{
    std::vector<workload::Trace> traces;
    uint64_t codecBytes = 0;
};

/** The allocator tuning of every experiment process (mirrors
 *  sim/experiment.cc): the mapped heap tracks the scaled working
 *  set. */
alloc::CherivokeConfig
allocConfig(double quarantine_fraction)
{
    alloc::CherivokeConfig acfg;
    acfg.quarantineFraction = quarantine_fraction;
    acfg.minQuarantineBytes = 64 * KiB;
    acfg.dl.initialHeapBytes = 1 * MiB;
    acfg.dl.growthChunkBytes = 512 * KiB;
    return acfg;
}

/** Synthesis settings (mirrors sim/experiment.cc): the virtual
 *  duration covers at least three sweep periods. */
workload::SynthConfig
synthConfig(const workload::BenchmarkProfile &profile, double scale,
            double duration, double quarantine_fraction, uint64_t seed)
{
    workload::SynthConfig cfg;
    cfg.scale = scale;
    cfg.durationSec = duration;
    if (profile.allocationIntensive()) {
        const double live = std::max<double>(
            profile.liveHeapMiB * MiB * scale,
            static_cast<double>(cfg.minLiveBytes));
        const double rate = profile.freeRateMiBps * MiB * scale;
        const double period = quarantine_fraction * live / rate;
        cfg.durationSec =
            std::max(duration, std::min(60.0, 3.0 * period));
    }
    cfg.seed = seed;
    return cfg;
}

revoke::EngineConfig
serialEngine(revoke::PolicyKind policy)
{
    revoke::EngineConfig ecfg;
    ecfg.sweep.kernel = revoke::SweepKernel::Vector;
    ecfg.sweep.usePteCapDirty = true;
    ecfg.sweep.useCloadTags = false;
    ecfg.policy = policy;
    return ecfg;
}

/** bench/tenant_scale's consolidated-service slice profile: each of
 *  @p tenants is a 1/N slice of @p agg_allocs live allocations with
 *  FIFO lifetimes. */
workload::BenchmarkProfile
sliceProfile(unsigned tenants, uint64_t agg_allocs)
{
    constexpr double kMeanAllocBytes = 128.0;
    constexpr double kAggFreeRateMiBps = 64.0;
    workload::BenchmarkProfile p;
    p.name = "tenant_slice";
    p.pagesWithPointers = 0.35;
    p.linePointerDensity = 0.06;
    p.temporalFragmentation = 0;
    p.liveHeapMiB = static_cast<double>(agg_allocs) * kMeanAllocBytes *
                    1.10 / MiB / tenants;
    p.freeRateMiBps = kAggFreeRateMiBps / tenants;
    p.freesPerSec = kAggFreeRateMiBps * MiB / kMeanAllocBytes / tenants;
    p.appDramMiBps = 2000.0 / tenants;
    return p;
}

// ---------------------------------------------------------------
// spec_sweep: the single-process pipeline, xalancbmk then omnetpp.
// ---------------------------------------------------------------

constexpr double kSpecScale = 1.0 / 16;
constexpr double kSpecQuarantine = 0.10;
constexpr double kSpecDuration = 1.0;

/** Untraced runs synthesise fresh inputs every this many
 *  repetitions. */
constexpr size_t kSetupEvery = 3;

const char *const kSpecProfiles[] = {"xalancbmk", "omnetpp"};

/** One single-process replay host (space, allocator, engine, cache
 *  model) over a trace it does not own. */
struct Pipeline
{
    explicit Pipeline(const workload::Trace &trace)
        : space(512 * KiB, 512 * KiB),
          allocator(space, allocConfig(kSpecQuarantine)),
          engine(allocator, space,
                 serialEngine(revoke::PolicyKind::StopTheWorld)),
          hierarchy(sim::MachineProfile::x86().hierarchyConfig()),
          replayer(space, allocator, &engine, trace)
    {}

    mem::AddressSpace space;
    alloc::CherivokeAllocator allocator;
    revoke::RevocationEngine engine;
    cache::Hierarchy hierarchy;
    workload::TraceReplayer replayer;
};

Inputs
specInputs(uint64_t seed, Tracer *tr)
{
    Inputs in;
    for (const char *name : kSpecProfiles) {
        const workload::BenchmarkProfile &profile =
            workload::profileFor(name);
        Span s(tr, Layer::Synth);
        in.traces.push_back(workload::synthesize(
            profile, synthConfig(profile, kSpecScale, kSpecDuration,
                                 kSpecQuarantine, seed)));
    }
    return in;
}

void
runSpecSweep(const Inputs &in, Rep &rep)
{
    Tracer *tr = rep.tracer.get();
    const auto t0 = perfbench::Clock::now();
    std::vector<std::unique_ptr<Pipeline>> pipes;
    for (const workload::Trace &trace : in.traces) {
        Span s(tr, Layer::Build);
        pipes.push_back(std::make_unique<Pipeline>(trace));
        if (tr) {
            pipes.back()->engine.setDomainPolicyObject(
                0, std::make_unique<perfbench::TimingPolicy>(
                       revoke::makePolicy(revoke::PolicyKind::StopTheWorld),
                       *tr));
        }
    }
    rep.setupSec += seconds(t0);

    const double cpu0 = cpuSeconds();
    const auto t1 = perfbench::Clock::now();
    std::vector<workload::DriverResult> results;
    for (auto &p : pipes) {
        while (!p->replayer.done()) {
            Span s(tr, Layer::Replay);
            p->replayer.step(&p->hierarchy);
        }
        Span s(tr, Layer::Finish);
        results.push_back(p->replayer.finish(&p->hierarchy));
    }
    rep.timedSec = seconds(t1);
    rep.cpuSec = cpuSeconds() - cpu0;

    perfbench::Fingerprint fp;
    uint64_t mallocs = 0, frees = 0, epochs = 0, slices = 0, pages = 0,
             caps = 0, offcore = 0, dram = 0, resident = 0;
    double peak_live = 0, peak_q = 0, peak_fp = 0;
    for (size_t i = 0; i < pipes.size(); ++i) {
        Pipeline &p = *pipes[i];
        const workload::DriverResult &r = results[i];
        const std::string name = kSpecProfiles[i];
        fp.driver(name, r);
        fp.backend(name + ".backend", p.engine.domainBackendStats(0));
        fp.u(name + ".offCoreLines", p.hierarchy.offCoreLines());
        fp.u(name + ".dramReadBytes", p.hierarchy.dram().readBytes());
        fp.u(name + ".dramWriteBytes", p.hierarchy.dram().writeBytes());
        fp.u(name + ".residentPages", p.space.memory().residentPages());
        rep.opsAttempted += p.replayer.opsTotal();
        rep.opsApplied += p.replayer.opsApplied();
        mallocs += r.allocCalls;
        frees += r.freeCalls;
        epochs += r.revoker.epochs;
        slices += r.revoker.slices;
        pages += r.revoker.sweep.pagesSwept;
        caps += r.revoker.sweep.capsRevoked;
        offcore += p.hierarchy.offCoreLines();
        dram += p.hierarchy.dram().totalBytes();
        resident = std::max<uint64_t>(resident,
                                      p.space.memory().residentPages());
        // The two replays run one after the other: peaks are maxima.
        peak_live = std::max<double>(peak_live, r.peakLiveBytes);
        peak_q = std::max<double>(peak_q, r.peakQuarantineBytes);
        peak_fp = std::max<double>(peak_fp, r.peakFootprintBytes);
    }
    rep.modelFp = fp.text();
    rep.count("alloc.mallocs", mallocs);
    rep.count("alloc.frees", frees);
    rep.count("alloc.peak_live_mib", peak_live / MiB);
    rep.count("alloc.peak_quarantine_mib", peak_q / MiB);
    rep.count("alloc.peak_footprint_mib", peak_fp / MiB);
    rep.count("mem.resident_pages", resident);
    rep.count("revoke.epochs", epochs);
    rep.count("revoke.slices", slices);
    rep.count("revoke.pages_swept", pages);
    rep.count("revoke.caps_revoked", caps);
    rep.count("cache.offcore_lines", offcore);
    rep.count("cache.dram_mib", static_cast<double>(dram) / MiB);
}

// ---------------------------------------------------------------
// tenant_mutator and threaded_revoke: TenantManager workloads.
// ---------------------------------------------------------------

struct TenantWorkload
{
    workload::BenchmarkProfile profile;
    unsigned tenants = 1;
    double scale = 1.0;
    double duration = 1.0;
    double quarantine = 0.25;
    tenant::TenantManagerConfig manager;
    std::vector<revoke::BackendKind> backends; //!< cycled; empty = default
};

TenantWorkload
tenantMutator()
{
    TenantWorkload w;
    w.tenants = 8;
    w.profile = sliceProfile(w.tenants, 500'000);
    w.scale = 1.0;
    w.duration = 1.0;
    w.quarantine = 0.25;
    w.manager.engine = serialEngine(revoke::PolicyKind::Adaptive);
    w.backends = {revoke::BackendKind::Sweep, revoke::BackendKind::Color,
                  revoke::BackendKind::ObjectId};
    return w;
}

/** threaded_revoke; @p serial selects its serial twin (1 sweep
 *  thread, 1 paint shard, no background sweeper, 1 mutator thread),
 *  whose modelled statistics must be identical. */
TenantWorkload
threadedRevoke(bool serial)
{
    TenantWorkload w;
    w.tenants = 2;
    w.profile = workload::profileFor("xalancbmk");
    w.scale = 1.0 / 16;
    w.duration = 1.0;
    w.quarantine = 0.10;
    w.manager.engine = serialEngine(revoke::PolicyKind::Concurrent);
    if (!serial) {
        w.manager.engine.sweep.threads = 2;
        w.manager.engine.paintShards = 2;
        w.manager.engine.backgroundSweeper = true;
        w.manager.mutator.threads = 2;
    }
    return w;
}

Inputs
tenantInputs(const TenantWorkload &w, uint64_t seed, Tracer *tr)
{
    Inputs in;
    for (unsigned i = 0; i < w.tenants; ++i) {
        Span s(tr, Layer::Synth);
        in.traces.push_back(workload::synthesize(
            w.profile, synthConfig(w.profile, w.scale, w.duration,
                                   w.quarantine,
                                   seed + 0x9e3779b9ULL * i)));
    }
    // Record and replay through the binary codec, as a consolidated
    // host loading its tenants' traces would.
    Span s(tr, Layer::Codec);
    for (workload::Trace &t : in.traces) {
        const std::vector<uint8_t> image = tenant::encodeTrace(t);
        in.codecBytes += image.size();
        t = tenant::decodeTrace(image);
    }
    return in;
}

void
runTenants(const TenantWorkload &w, const Inputs &in, Rep &rep)
{
    Tracer *tr = rep.tracer.get();
    // The manager takes its traces by value; the copy is not set-up
    // work, so it happens outside the timed construction.
    std::vector<workload::Trace> traces = in.traces;
    const auto t0 = perfbench::Clock::now();
    std::unique_ptr<tenant::TenantManager> manager;
    {
        Span s(tr, Layer::Build);
        manager = std::make_unique<tenant::TenantManager>(w.manager);
        for (unsigned i = 0; i < w.tenants; ++i) {
            tenant::TenantConfig tcfg;
            tcfg.name = w.profile.name + "#" + std::to_string(i);
            tcfg.alloc = allocConfig(w.quarantine);
            tcfg.globalsBytes = 512 * KiB;
            tcfg.stackBytes = 512 * KiB;
            // Every tenant gets its own policy object, traced or not,
            // so the wrapped run has the same policy instances.
            tcfg.policy = w.manager.engine.policy;
            if (!w.backends.empty())
                tcfg.backend = w.backends[i % w.backends.size()];
            const size_t slot =
                manager->addTenant(tcfg, std::move(traces[i]));
            if (tr) {
                manager->engine().setDomainPolicyObject(
                    slot, std::make_unique<perfbench::TimingPolicy>(
                              revoke::makePolicy(*tcfg.policy), *tr));
            }
        }
    }
    rep.setupSec += seconds(t0);

    const double cpu0 = cpuSeconds();
    const auto t1 = perfbench::Clock::now();
    tenant::MultiTenantResult m;
    {
        Span s(tr, Layer::Run);
        m = manager->run();
    }
    rep.timedSec = seconds(t1);
    rep.cpuSec = cpuSeconds() - cpu0;

    std::vector<revoke::BackendStats> backends;
    revoke::BackendStats agg{};
    double race_sec = 0;
    for (const tenant::TenantResult &t : m.tenants) {
        rep.opsAttempted += t.opsTotal;
        rep.opsApplied += t.opsApplied;
        race_sec += t.mutator.wallSec;
        const revoke::BackendStats &b =
            manager->engine().domainBackendStats(t.index);
        backends.push_back(b);
        agg.idChecks += b.idChecks;
        agg.idCompactions += b.idCompactions;
        agg.recycleScans += b.recycleScans;
        agg.metadataBytes += b.metadataBytes;
    }
    perfbench::Fingerprint model;
    model.multiTenantModel(m, backends);
    model.u("residentPages", manager->memory().residentPages());
    rep.modelFp = model.text();
    perfbench::Fingerprint host;
    host.multiTenantHost(m);
    rep.hostFp = host.text();

    rep.count("tenant.codec_mib", static_cast<double>(in.codecBytes) / MiB);
    rep.count("tenant.race_s", race_sec);
    rep.count("tenant.remote_frees", m.mutatorRemoteFrees);
    rep.count("tenant.batches", m.mutatorBatches);
    rep.count("alloc.mallocs", m.allocCalls);
    rep.count("alloc.frees", m.freeCalls);
    rep.count("alloc.peak_live_mib",
              static_cast<double>(m.peakAggLiveBytes) / MiB);
    rep.count("alloc.peak_quarantine_mib",
              static_cast<double>(m.peakAggQuarantineBytes) / MiB);
    rep.count("alloc.peak_footprint_mib",
              static_cast<double>(m.peakAggFootprintBytes) / MiB);
    rep.count("mem.resident_pages", manager->memory().residentPages());
    rep.count("revoke.epochs", m.engine.epochs);
    rep.count("revoke.slices", m.engine.slices);
    rep.count("revoke.pages_swept", m.engine.sweep.pagesSwept);
    rep.count("revoke.caps_revoked", m.engine.sweep.capsRevoked);
    rep.count("revoke.bg_dispatches", m.sweeperDispatches);
    rep.count("revoke.bg_completions", m.sweeperCompletions);
    rep.count("revoke.bg_stalls", m.sweeperStalls);
    rep.count("revoke.bg_reassigns", m.sweeperReassigns);
    rep.count("revoke.backend.id_checks", agg.idChecks);
    rep.count("revoke.backend.id_compactions", agg.idCompactions);
    rep.count("revoke.backend.color_recycle_scans", agg.recycleScans);
    rep.count("revoke.backend.metadata_mib",
              static_cast<double>(agg.metadataBytes) / MiB);
}

// ---------------------------------------------------------------
// Output
// ---------------------------------------------------------------

/** JSON string literal of @p s (fingerprints hold '\n' only). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '\n')
            out += "\\n";
        else if (c == '"' || c == '\\')
            out += std::string("\\") + c;
        else
            out += c;
    }
    return out + "\"";
}

void
printLayers(const Tracer &t)
{
    static const std::pair<Layer, const char *> kNames[] = {
        {Layer::Synth, "synth"},     {Layer::Codec, "codec"},
        {Layer::Build, "build"},     {Layer::Replay, "replay"},
        {Layer::Finish, "finish"},   {Layer::Run, "run"},
        {Layer::Revoke, "revoke"},   {Layer::Paint, "paint"},
        {Layer::Sweep, "sweep"},     {Layer::Release, "release"},
    };
    std::printf(", \"spans\": {");
    const char *sep = "";
    for (const auto &[layer, name] : kNames) {
        std::printf("%s\"%s\": {\"total_s\": %.9f, \"self_s\": %.9f, "
                    "\"calls\": %llu}",
                    sep, name, t.totalSec(layer), t.selfSec(layer),
                    static_cast<unsigned long long>(t.calls(layer)));
        sep = ", ";
    }
    std::printf("}, \"stw_pages_swept\": %llu, \"pauses_ms\": [",
                static_cast<unsigned long long>(t.stwPagesSwept));
    for (size_t i = 0; i < t.pausesNs.size(); ++i)
        std::printf("%s%.6f", i ? ", " : "", 1e-6 * t.pausesNs[i]);
    std::printf("]");
}

void
printRep(const Rep &r, bool first)
{
    std::printf("%s\n  {\"traced\": %s, \"setup_s\": %.9f, "
                "\"timed_s\": %.9f, \"cpu_s\": %.6f, "
                "\"full_setup\": %s, "
                "\"ops_attempted\": %llu, \"ops_applied\": %llu, "
                "\"model_fp\": %s, \"host_fp\": %s, \"counters\": {",
                first ? "" : ",", r.traced ? "true" : "false",
                r.setupSec, r.timedSec, r.cpuSec,
                r.fullSetup ? "true" : "false",
                static_cast<unsigned long long>(r.opsAttempted),
                static_cast<unsigned long long>(r.opsApplied),
                quoted(r.modelFp).c_str(), quoted(r.hostFp).c_str());
    for (size_t i = 0; i < r.counters.size(); ++i)
        std::printf("%s\"%s\": %.17g", i ? ", " : "",
                    r.counters[i].first.c_str(), r.counters[i].second);
    std::printf("}");
    if (r.tracer)
        printLayers(*r.tracer);
    std::printf("}");
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "spec_sweep|tenant_mutator|threaded_revoke --seed N "
                 "--seconds S --trace 0|1 [--reps N] [--serial-twin]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    uint64_t seed = 0;
    double budget = 0;
    bool trace = false;
    bool serial_twin = false;
    unsigned fixed_reps = 0;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--serial-twin") {
            serial_twin = true;
        } else if (!has_value) {
            usage(("missing value for " + arg).c_str());
        } else if (arg == "--workload") {
            name = argv[++i];
        } else if (arg == "--seed") {
            seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            budget = std::atof(argv[++i]);
            have_seconds = true;
        } else if (arg == "--trace") {
            trace = std::string(argv[++i]) == "1";
        } else if (arg == "--reps") {
            fixed_reps = static_cast<unsigned>(std::atoi(argv[++i]));
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (name != "spec_sweep" && name != "tenant_mutator" &&
        name != "threaded_revoke")
        usage(("unknown workload '" + name + "'").c_str());
    if (!have_seed || !have_seconds)
        usage("--seed and --seconds are required");
    if (serial_twin && name != "threaded_revoke")
        usage("--serial-twin applies to threaded_revoke only");

    // Repetition 0 warms the process up (run.py leaves it out of the
    // medians). Enough repetitions follow for a median even when the
    // budget is short; a traced run needs untraced/traced pairs.
    const unsigned min_reps = fixed_reps ? fixed_reps : (trace ? 5 : 4);
    const TenantWorkload tenants = name == "tenant_mutator"
                                       ? tenantMutator()
                                       : threadedRevoke(serial_twin);
    std::vector<Rep> reps;
    Inputs inputs;
    // The memory high-water over the first min_reps repetitions: a
    // fixed amount of work, so a slower host (fewer repetitions in
    // the budget) does not move it.
    long peak_rss_kib = 0;
    const auto start = perfbench::Clock::now();
    double last_rep_sec = 0;
    try {
        // Start another repetition only if it should end within the
        // budget.
        while (reps.size() < min_reps ||
               (!fixed_reps && seconds(start) + last_rep_sec <= budget)) {
            const auto rep_start = perfbench::Clock::now();
            Rep rep;
            rep.traced = trace && reps.size() % 2 == 1;
            if (rep.traced)
                rep.tracer = std::make_unique<Tracer>();
            // Untraced runs synthesise afresh on every kSetupEvery-th
            // repetition and replay the same inputs in between, so
            // more timed phases fit in the budget; a traced run sets
            // up in full every time, so both halves pay the same.
            rep.fullSetup = trace || reps.size() % kSetupEvery == 0;
            if (rep.fullSetup) {
                inputs = Inputs{}; // never hold two input sets at once
                const auto t0 = perfbench::Clock::now();
                inputs = name == "spec_sweep"
                             ? specInputs(seed, rep.tracer.get())
                             : tenantInputs(tenants, seed,
                                            rep.tracer.get());
                rep.setupSec = seconds(t0);
            }
            if (name == "spec_sweep")
                runSpecSweep(inputs, rep);
            else
                runTenants(tenants, inputs, rep);
            reps.push_back(std::move(rep));
            // Hand the repetition's freed heap back to the kernel, so
            // the high-water below tracks live memory rather than how
            // the allocator's free lists happened to fragment.
            malloc_trim(0);
            last_rep_sec = seconds(rep_start);
            if (reps.size() == min_reps) {
                rusage ru{};
                getrusage(RUSAGE_SELF, &ru);
                peak_rss_kib = ru.ru_maxrss;
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", name.c_str(),
                     e.what());
        return 1;
    }

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, "
                "\"serial_twin\": %s, \"compiler\": %s, "
                "\"cxx_flags\": %s, \"build_type\": %s, "
                "\"ndebug\": %s, \"peak_rss_kib\": %ld, \"reps\": [",
                name.c_str(), static_cast<unsigned long long>(seed),
                serial_twin ? "true" : "false",
                quoted(PERFBENCH_COMPILER).c_str(),
                quoted(PERFBENCH_CXX_FLAGS).c_str(),
                quoted(PERFBENCH_BUILD_TYPE).c_str(),
#ifdef NDEBUG
                "true",
#else
                "false",
#endif
                peak_rss_kib);
    for (size_t i = 0; i < reps.size(); ++i)
        printRep(reps[i], i == 0);
    std::printf("\n]}\n");
    return 0;
}
