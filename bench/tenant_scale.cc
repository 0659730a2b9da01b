/**
 * @file
 * Multi-tenant consolidation scaling bench: sweep throughput and
 * traffic overhead versus tenant count, at a constant aggregate of
 * 1M+ live allocations (PICASSO-scale) split across N co-resident
 * tenants sharing one TaggedMemory and one RevocationEngine.
 *
 * The aggregate workload is held constant across rows — per-tenant
 * heap and free rate are 1/N of the aggregate — so the tenant-count
 * axis isolates *consolidation density*: same total live data, same
 * total free traffic, more isolated quarantines and more (smaller)
 * per-region sweeps.
 *
 * Gates (any failure exits non-zero):
 *  - scale: the max-tenant row must sustain >= the configured
 *    aggregate live allocations (default 1M across 8 tenants);
 *  - determinism: the max-tenant row is replayed twice from the
 *    *same binary-codec round-tripped traces*; every reported
 *    statistic must be bit-identical;
 *  - single-tenant equivalence: a 1-tenant manager run must
 *    reproduce the classic single-process TraceDriver pipeline's
 *    revocation statistics bit-identically.
 *
 * The tenant_churn phase exercises mid-run arrival/departure: churn
 * cycles spawn a short-lived tenant from tenant 0's trace, retire it
 * (epoch drain, PTE unmap, bulk page release), and spawn the next
 * cycle into the freed slot. Its gates:
 *  - every cycle after the first reuses the retired slot;
 *  - every cycle's per-tenant statistics are bit-identical to the
 *    first (fresh-slot) cycle — slot reuse resurrects nothing;
 *  - the whole churn run replays bit-identically from the same
 *    codec-round-tripped traces (v2 lifecycle records included).
 *
 * The mixed-policy phase runs a concurrent tenant next to a
 * stop-the-world tenant on the one shared engine, gates on replay
 * determinism, and reports the per-tenant sweep overheads
 * separately.
 *
 * Results go to stdout and BENCH_tenant.json (trajectory tracking;
 * CI uploads every BENCH_*.json as one artifact).
 *
 * Environment (strict parsing; see bench_common.hh for the shared
 * engine knobs which all apply here too; the churn and mixed-policy
 * phases pin the policy — they are correctness gates, not
 * configuration axes):
 *   CHERIVOKE_TENANT_AGG_ALLOCS = aggregate live-allocation target
 *                                 (default 1000000)
 * The tenant counts (powers of two up to kTenantMax = 8) and the
 * churn phase's kChurnCycles = 4 cycles are fixed in code.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "stats/table.hh"

using namespace cherivoke;
using bench::codecRoundTrip;
using bench::tenantFingerprint;

namespace {

/** Largest tenant count (the last scaling row). */
constexpr unsigned kTenantMax = 8;
/** Spawn→retire cycles in the churn phase (>= 2, so slot reuse is
 *  always exercised). */
constexpr unsigned kChurnCycles = 4;

sim::ExperimentConfig
rowConfig(unsigned tenants)
{
    sim::ExperimentConfig cfg = bench::defaultConfig();
    // The tenant count IS this bench's x-axis; the heap targets come
    // from bench::sliceProfile.
    cfg.tenants = tenants;
    cfg.scale = 1.0; //!< real allocation counts, no scaling
    cfg.durationSec = 2.0;
    return cfg;
}

struct Row
{
    unsigned tenants = 0;
    sim::MultiTenantBenchResult bench;
    double wallSec = 0;
};

/**
 * Render every statistic the row reports into one string; rows are
 * "bit-identical" when these strings match byte for byte. Doubles
 * print with %.17g, which round-trips IEEE doubles exactly.
 */
std::string
statsFingerprint(const sim::MultiTenantBenchResult &r)
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
    const tenant::MultiTenantResult &m = r.run;
    addU("ops", m.totalOps);
    addU("allocs", m.allocCalls);
    addU("frees", m.freeCalls);
    addU("freed_bytes", m.freedBytes);
    addU("ptr_stores", m.ptrStores);
    addU("peak_agg_live_allocs", m.peakAggLiveAllocs);
    addU("peak_agg_live_bytes", m.peakAggLiveBytes);
    addU("peak_agg_quarantine", m.peakAggQuarantineBytes);
    addU("peak_agg_footprint", m.peakAggFootprintBytes);
    addU("epochs", m.engine.epochs);
    addU("slices", m.engine.slices);
    addU("paint_ops", m.engine.paint.total());
    addU("pages_swept", m.engine.sweep.pagesSwept);
    addU("pages_skipped", m.engine.sweep.pagesSkippedPte);
    addU("lines_swept", m.engine.sweep.linesSwept);
    addU("caps_examined", m.engine.sweep.capsExamined);
    addU("caps_revoked", m.engine.sweep.capsRevoked);
    addU("internal_frees", m.engine.internalFrees);
    addU("bytes_released", m.engine.bytesReleased);
    add("virtual_sec", m.virtualSeconds);
    add("sweep_overhead", r.sweepOverhead);
    add("shadow_overhead", r.shadowOverhead);
    add("traffic_pct", r.trafficOverheadPct);
    add("scan_rate", r.achievedScanRate);
    addU("spawns", m.spawns);
    addU("retires", m.retires);
    addU("slots_reused", m.slotsReused);
    for (const tenant::LifecycleEvent &ev : m.lifecycle) {
        // wallSec deliberately excluded: host time, not model state.
        addU("ev_kind", ev.kind == tenant::LifecycleEvent::Kind::Spawn
                            ? 0 : 1);
        addU("ev_id", ev.tenantId);
        addU("ev_slot", ev.slot);
        addU("ev_step", ev.step);
        addU("ev_reused", ev.reusedSlot ? 1 : 0);
        addU("ev_pages_released", ev.pagesReleased);
    }
    for (const tenant::TenantResult &t : m.tenants) {
        addU("t_id", t.tenantId);
        addU("t_slot", t.index);
        addU("t_ops_applied", t.opsApplied);
        addU("t_epochs", t.run.revoker.epochs);
        addU("t_caps_revoked", t.run.revoker.sweep.capsRevoked);
        addU("t_peak_live_allocs", t.run.peakLiveAllocs);
        add("t_virtual_sec", t.run.virtualSeconds);
        add("t_page_density", t.run.pageDensity);
        add("t_line_density", t.run.lineDensity);
    }
    return out;
}

} // namespace

static int
benchMain()
{
    const uint64_t agg_allocs = static_cast<uint64_t>(
        envI64("CHERIVOKE_TENANT_AGG_ALLOCS", 1000000));

    bench::printSystems("Multi-tenant consolidation scaling "
                        "(bench/tenant_scale)");
    (void)bench::defaultConfig();
    bench::printKnobs();
    std::printf("aggregate live-allocation target: %llu across up "
                "to %u tenants\n\n",
                static_cast<unsigned long long>(agg_allocs),
                kTenantMax);

    std::vector<unsigned> counts;
    for (unsigned n = 1; n <= kTenantMax; n *= 2)
        counts.push_back(n);

    bool ok = true;
    std::vector<Row> rows;
    std::string det_fingerprint_a, det_fingerprint_b;

    for (unsigned n : counts) {
        const workload::BenchmarkProfile profile =
            bench::sliceProfile(n, agg_allocs);
        const sim::ExperimentConfig cfg = rowConfig(n);

        // Record once through the binary codec, then replay — the
        // deterministic-replay interchange path, not a side channel.
        const std::vector<workload::Trace> traces = codecRoundTrip(
            sim::synthesizeTenantTraces(profile, cfg));

        Row row;
        row.tenants = n;
        const double t0 = bench::now();
        row.bench = sim::runMultiTenantBenchmark(
            profile, cfg, sim::MachineProfile::x86(), &traces);
        row.wallSec = bench::now() - t0;

        if (n == counts.back()) {
            // Determinism gate: identical traces, fresh manager —
            // every statistic must come out bit-identical.
            det_fingerprint_a = statsFingerprint(row.bench);
            const sim::MultiTenantBenchResult again =
                sim::runMultiTenantBenchmark(
                    profile, cfg, sim::MachineProfile::x86(),
                    &traces);
            det_fingerprint_b = statsFingerprint(again);
            if (det_fingerprint_a != det_fingerprint_b) {
                std::printf("FAILED: max-tenant replay diverged "
                            "between two runs of the same traces\n");
                ok = false;
            }
            if (row.bench.run.peakAggLiveAllocs < agg_allocs) {
                std::printf(
                    "FAILED: peak aggregate live allocations %llu "
                    "below the %llu target\n",
                    static_cast<unsigned long long>(
                        row.bench.run.peakAggLiveAllocs),
                    static_cast<unsigned long long>(agg_allocs));
                ok = false;
            }
            // Background-sweeper parity gate: the same traces with
            // a true sweeper thread racing the mutators must
            // reproduce every modelled statistic bit for bit.
            sim::ExperimentConfig bg_cfg = cfg;
            bg_cfg.bgSweeper = true;
            const sim::MultiTenantBenchResult bg_run =
                sim::runMultiTenantBenchmark(
                    profile, bg_cfg, sim::MachineProfile::x86(),
                    &traces);
            if (statsFingerprint(bg_run) != det_fingerprint_a) {
                std::printf("FAILED: background-sweeper run "
                            "diverged from the mutator-assist "
                            "run over the same traces\n");
                ok = false;
            }
        }
        rows.push_back(std::move(row));
    }

    // Single-tenant equivalence gate: the classic single-process
    // pipeline (runBenchmark -> TraceDriver) must match the 1-tenant
    // manager run statistic for statistic.
    bool single_match = true;
    {
        const workload::BenchmarkProfile profile =
            bench::sliceProfile(1, agg_allocs);
        const sim::ExperimentConfig cfg = rowConfig(1);
        const sim::BenchResult classic =
            sim::runBenchmark(profile, cfg);
        const workload::DriverResult &a = classic.run;
        const workload::DriverResult &b = rows[0].bench.run
                                              .tenants[0].run;
        single_match =
            a.revoker == b.revoker &&
            a.allocCalls == b.allocCalls &&
            a.freeCalls == b.freeCalls &&
            a.freedBytes == b.freedBytes &&
            a.ptrStores == b.ptrStores &&
            a.peakLiveBytes == b.peakLiveBytes &&
            a.peakQuarantineBytes == b.peakQuarantineBytes &&
            a.peakFootprintBytes == b.peakFootprintBytes &&
            a.pageDensity == b.pageDensity &&
            a.lineDensity == b.lineDensity &&
            a.virtualSeconds == b.virtualSeconds;
        if (!single_match) {
            std::printf("FAILED: 1-tenant manager run diverged from "
                        "the single-process TraceDriver pipeline\n");
            ok = false;
        }
    }

    // ---- tenant_churn phase -------------------------------------
    // Mid-run arrival/departure at a reduced aggregate: kChurnCycles
    // cycles of spawn -> run -> retire, driven by lifecycle ops
    // recorded in tenant 0's (codec-round-tripped) trace. Per-tenant
    // scope plus a pinned stop-the-world policy make each churn
    // tenant's statistics are a pure function of its trace: the fresh-slot
    // cycle and every reused-slot cycle must match bit for bit.
    sim::MultiTenantBenchResult churn_bench;
    bool churn_reuse_ok = true, churn_identical = true,
         churn_complete = true, churn_deterministic = true;
    {
        const workload::BenchmarkProfile profile =
            bench::sliceProfile(2, std::max<uint64_t>(agg_allocs / 4, 20000));
        sim::ExperimentConfig cfg = rowConfig(2);
        cfg.tenantChurn = kChurnCycles;
        cfg.policy = revoke::PolicyKind::StopTheWorld;
        cfg.durationSec = 1.0;

        const std::vector<workload::Trace> traces = codecRoundTrip(
            sim::synthesizeTenantTraces(profile, cfg));
        churn_bench = sim::runMultiTenantBenchmark(
            profile, cfg, sim::MachineProfile::x86(), &traces);
        const tenant::MultiTenantResult &m = churn_bench.run;

        // Gate: every cycle after the first landed in the slot the
        // previous cycle freed.
        size_t churn_slot = SIZE_MAX;
        for (const tenant::LifecycleEvent &ev : m.lifecycle) {
            if (ev.tenantId < sim::kChurnTenantIdBase ||
                ev.kind != tenant::LifecycleEvent::Kind::Spawn)
                continue;
            if (churn_slot == SIZE_MAX) {
                churn_slot = ev.slot; // fresh slot, first cycle
                churn_reuse_ok &= !ev.reusedSlot;
            } else {
                churn_reuse_ok &=
                    ev.reusedSlot && ev.slot == churn_slot;
            }
        }
        churn_reuse_ok &= m.retires == kChurnCycles &&
                          m.slotsReused == kChurnCycles - 1;
        if (!churn_reuse_ok) {
            std::printf("FAILED: churn spawn did not reuse the "
                        "retired slot\n");
            ok = false;
        }

        // Gate: every cycle ran its whole trace and produced stats
        // bit-identical to the fresh-slot first cycle.
        std::string first_fp;
        for (const tenant::TenantResult &t : m.tenants) {
            if (t.tenantId < sim::kChurnTenantIdBase)
                continue;
            churn_complete &= t.opsApplied == t.opsTotal;
            const std::string fp = tenantFingerprint(t);
            if (first_fp.empty()) {
                first_fp = fp;
            } else if (fp != first_fp) {
                churn_identical = false;
            }
        }
        if (!churn_complete) {
            std::printf("FAILED: a churn tenant was retired before "
                        "finishing its trace (cycle windows too "
                        "tight)\n");
            ok = false;
        }
        if (first_fp.empty() || !churn_identical) {
            std::printf("FAILED: reused-slot churn cycle diverged "
                        "from the fresh-slot cycle\n");
            ok = false;
            churn_identical = false;
        }

        // Gate: the whole churn run replays bit-identically.
        const sim::MultiTenantBenchResult again =
            sim::runMultiTenantBenchmark(
                profile, cfg, sim::MachineProfile::x86(), &traces);
        churn_deterministic =
            statsFingerprint(churn_bench) == statsFingerprint(again);
        if (!churn_deterministic) {
            std::printf("FAILED: churn replay diverged between two "
                        "runs of the same traces\n");
            ok = false;
        }

        std::printf("churn phase: %u cycles, %llu retires, %llu "
                    "slot reuses, reuse %s fresh-slot stats\n\n",
                    kChurnCycles,
                    static_cast<unsigned long long>(m.retires),
                    static_cast<unsigned long long>(m.slotsReused),
                    churn_identical ? "matches" : "DIVERGED from");
    }

    // ---- mixed-policy phase -------------------------------------
    // One concurrent tenant next to one stop-the-world tenant on the
    // same engine (epoch-owner-wins arbitration), gated on replay
    // determinism; per-tenant sweep overheads are reported
    // separately in the JSON.
    sim::MultiTenantBenchResult mixed_bench;
    bool mixed_deterministic = true;
    const char *mixed_policies[2] = {"concurrent", "stop-the-world"};
    {
        const workload::BenchmarkProfile profile =
            bench::sliceProfile(2, std::max<uint64_t>(agg_allocs / 4, 20000));
        sim::ExperimentConfig cfg = rowConfig(2);
        cfg.tenantPolicies = {revoke::PolicyKind::Concurrent,
                              revoke::PolicyKind::StopTheWorld};
        cfg.pagesPerSlice = 16; // several slices per concurrent epoch
        cfg.durationSec = 1.0;

        const std::vector<workload::Trace> traces = codecRoundTrip(
            sim::synthesizeTenantTraces(profile, cfg));
        mixed_bench = sim::runMultiTenantBenchmark(
            profile, cfg, sim::MachineProfile::x86(), &traces);
        const sim::MultiTenantBenchResult again =
            sim::runMultiTenantBenchmark(
                profile, cfg, sim::MachineProfile::x86(), &traces);
        mixed_deterministic =
            statsFingerprint(mixed_bench) == statsFingerprint(again);
        if (!mixed_deterministic) {
            std::printf("FAILED: mixed-policy replay diverged "
                        "between two runs of the same traces\n");
            ok = false;
        }
        // The concurrent tenant must actually have run sliced
        // epochs next to the stop-the-world one.
        const tenant::MultiTenantResult &m = mixed_bench.run;
        if (m.tenants.size() == 2 &&
            (m.tenants[0].run.revoker.epochs == 0 ||
             m.tenants[1].run.revoker.epochs == 0 ||
             m.tenants[0].run.revoker.slices <=
                 m.tenants[0].run.revoker.epochs)) {
            std::printf("FAILED: mixed-policy phase did not "
                        "exercise both policies (t0 epochs %llu "
                        "slices %llu, t1 epochs %llu)\n",
                        static_cast<unsigned long long>(
                            m.tenants[0].run.revoker.epochs),
                        static_cast<unsigned long long>(
                            m.tenants[0].run.revoker.slices),
                        static_cast<unsigned long long>(
                            m.tenants[1].run.revoker.epochs));
            ok = false;
        }
        std::printf("mixed-policy phase: concurrent + stop-the-world "
                    "on one engine, per-tenant sweep overhead %.2f%% "
                    "/ %.2f%%\n\n",
                    mixed_bench.tenantSweepOverhead.size() > 0
                        ? mixed_bench.tenantSweepOverhead[0] * 100
                        : 0.0,
                    mixed_bench.tenantSweepOverhead.size() > 1
                        ? mixed_bench.tenantSweepOverhead[1] * 100
                        : 0.0);
    }

    // ---- Report -------------------------------------------------
    stats::TextTable table({"tenants", "ops", "peak live allocs",
                            "epochs", "Mpages swept", "sweep ovh %",
                            "traffic %", "wall s", "ops/s"});
    for (const Row &r : rows) {
        const tenant::MultiTenantResult &m = r.bench.run;
        table.addRow(
            {std::to_string(r.tenants),
             std::to_string(m.totalOps),
             std::to_string(m.peakAggLiveAllocs),
             std::to_string(m.engine.epochs),
             stats::TextTable::num(
                 static_cast<double>(m.engine.sweep.pagesSwept) /
                     1e6, 3),
             stats::TextTable::num(r.bench.sweepOverhead * 100, 2),
             stats::TextTable::num(r.bench.trafficOverheadPct, 2),
             stats::TextTable::num(r.wallSec, 2),
             stats::TextTable::num(
                 static_cast<double>(m.totalOps) / r.wallSec, 0)});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("per-tenant epoch spread (max row): mean %.1f "
                "min %.0f max %.0f\n",
                rows.back().bench.run.tenantEpochs.mean(),
                rows.back().bench.run.tenantEpochs.min(),
                rows.back().bench.run.tenantEpochs.max());

    // ---- BENCH_tenant.json --------------------------------------
    using Layout = stats::JsonWriter::Layout;
    stats::JsonWriter json("BENCH_tenant.json");
    json.field("bench", "tenant_scale").field("agg_alloc_target", agg_allocs)
        .beginArray("rows", Layout::Block);
    for (const Row &r : rows) {
        const tenant::MultiTenantResult &m = r.bench.run;
        json.beginObject(Layout::Inline)
            .field("tenants", r.tenants).field("ops", m.totalOps)
            .field("peak_live_allocs", m.peakAggLiveAllocs)
            .field("peak_live_bytes", m.peakAggLiveBytes)
            .field("epochs", m.engine.epochs)
            .field("pages_swept", m.engine.sweep.pagesSwept)
            .field("caps_revoked", m.engine.sweep.capsRevoked)
            .field("sweep_overhead", r.bench.sweepOverhead)
            .field("shadow_overhead", r.bench.shadowOverhead)
            .field("traffic_pct", r.bench.trafficOverheadPct)
            .field("scan_rate", r.bench.achievedScanRate)
            .field("wall_sec", r.wallSec)
            .field("ops_per_sec", static_cast<double>(m.totalOps) / r.wallSec)
            .field("mutator_ops_per_sec", r.bench.mutatorOpsPerSec)
            .end();
    }
    json.end();
    // Arrival/departure overhead rows from the churn phase: one row
    // per lifecycle transition, wall_sec being the host cost of the
    // spawn (region + allocator setup) or retire (epoch drain + PTE
    // unmap + bulk page release).
    json.beginObject("churn", Layout::Block).field("cycles", kChurnCycles)
        .field("spawns", churn_bench.run.spawns)
        .field("retires", churn_bench.run.retires)
        .field("slots_reused", churn_bench.run.slotsReused)
        .field("reuse_bit_identical", churn_identical)
        .field("deterministic", churn_deterministic)
        .beginArray("events", Layout::Block);
    for (const tenant::LifecycleEvent &ev : churn_bench.run.lifecycle) {
        const bool spawn = ev.kind == tenant::LifecycleEvent::Kind::Spawn;
        json.beginObject(Layout::Inline)
            .field("event", spawn ? "spawn" : "retire")
            .field("tenant_id", ev.tenantId).field("slot", ev.slot)
            .field("step", ev.step).field("reused_slot", ev.reusedSlot)
            .field("pages_released", ev.pagesReleased)
            .field("wall_sec", ev.wallSec).end();
    }
    json.end().end();
    // Mixed-policy phase: per-tenant sweep overhead, reported
    // separately per policy.
    json.beginObject("mixed_policy", Layout::Block)
        .field("deterministic", mixed_deterministic)
        .beginArray("tenants", Layout::Block);
    for (size_t i = 0; i < mixed_bench.run.tenants.size() && i < 2;
         ++i) {
        const revoke::EngineTotals &rs =
            mixed_bench.run.tenants[i].run.revoker;
        json.beginObject(Layout::Inline)
            .field("policy", mixed_policies[i])
            .field("epochs", rs.epochs).field("slices", rs.slices)
            .field("caps_revoked", rs.sweep.capsRevoked)
            .field("sweep_overhead",
                   i < mixed_bench.tenantSweepOverhead.size()
                       ? mixed_bench.tenantSweepOverhead[i] : 0.0)
            .end();
    }
    json.end().end()
        .field("deterministic", det_fingerprint_a == det_fingerprint_b)
        .field("single_tenant_match", single_match).field("ok", ok)
        .close();
    std::printf("wrote BENCH_tenant.json\n");

    if (ok) {
        std::printf("OK: deterministic replay, %llu+ aggregate live "
                    "allocations, single-tenant parity\n",
                    static_cast<unsigned long long>(agg_allocs));
    } else {
        std::printf("FAILED: see gates above\n");
    }
    return ok ? 0 : 1;
}

int
main()
{
    return bench::runBench(benchMain);
}
