/**
 * @file
 * Head-to-head comparison of the three revocation backends — sweep
 * (CHERIvoke quarantine + sweeping), color (PICASSO-style colored
 * capabilities), objid (CHERI-D-style inline object IDs) — on the
 * same workload matrix, machine model, and engine policy surface.
 *
 * Four phases:
 *  1. overhead/traffic curves: every SPEC profile under every
 *     backend, normalised runtime and backend-mechanics counters;
 *  2. color exhaustion: a deliberately tiny color pool, gating that
 *     pool-empty stalls and forced cohort sharing actually occur;
 *  3. object-ID compaction: a low compaction threshold, gating that
 *     table-compaction epochs actually run;
 *  4. cross-backend parity: backend-independent mutator statistics
 *     must agree across the three backends on the same seeded trace.
 *
 * The whole deterministic section runs twice in-process and must be
 * byte-identical across the passes; wall-clock readings live outside
 * it. Emits BENCH_backend.json (deterministic fields + wall_sec),
 * uploaded by the Release CI leg and diffed by the bench-regression
 * step. Exit code reflects the gates.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace cherivoke;

namespace {

constexpr revoke::BackendKind kBackends[] = {
    revoke::BackendKind::Sweep,
    revoke::BackendKind::Color,
    revoke::BackendKind::ObjectId,
};
constexpr size_t kNumBackends =
    sizeof(kBackends) / sizeof(kBackends[0]);

/** One profile × backend run. wallSec is the only field outside the
 *  deterministic section. */
struct Cell
{
    sim::BenchResult r;
    double wallSec = 0;
};

struct Row
{
    std::string benchmark;
    Cell cells[kNumBackends];
};

/** Everything one deterministic pass produces. */
struct Pass
{
    std::vector<Row> rows;
    Cell exhaustion; //!< color backend, 2-color pool
    Cell compaction; //!< objid backend, low compaction threshold
    bool parityOk = true;
    std::string parityDetail;
    /** Byte-exact rendering of every deterministic statistic; two
     *  passes match iff these strings match. */
    std::string fingerprint;
};

Cell
runCell(const workload::BenchmarkProfile &profile,
        const sim::ExperimentConfig &cfg)
{
    Cell cell;
    const double t0 = bench::now();
    cell.r = sim::runBenchmark(profile, cfg);
    cell.wallSec = bench::now() - t0;
    return cell;
}

/** Append one cell's deterministic statistics to the pass
 *  fingerprint. %.17g round-trips IEEE doubles exactly. */
void
addFingerprint(std::string &out, const std::string &benchmark,
               revoke::BackendKind kind, const sim::BenchResult &r)
{
    char buf[640];
    const workload::DriverResult &m = r.run;
    const revoke::BackendStats &b = r.backendStats;
    std::snprintf(
        buf, sizeof(buf),
        "%s/%s allocs=%llu frees=%llu freed=%llu stores=%llu "
        "peak_allocs=%llu peak_bytes=%llu vsec=%.17g "
        "epochs=%llu pages=%llu revoked=%llu "
        "time=%.17g sweep=%.17g traffic=%.17g "
        "ca=%llu cr=%llu cy=%llu rs=%llu st=%llu fs=%llu "
        "ia=%llu ir=%llu ic=%llu cp=%llu ce=%llu mb=%llu\n",
        benchmark.c_str(), revoke::backendName(kind),
        static_cast<unsigned long long>(m.allocCalls),
        static_cast<unsigned long long>(m.freeCalls),
        static_cast<unsigned long long>(m.freedBytes),
        static_cast<unsigned long long>(m.ptrStores),
        static_cast<unsigned long long>(m.peakLiveAllocs),
        static_cast<unsigned long long>(m.peakLiveBytes),
        m.virtualSeconds,
        static_cast<unsigned long long>(m.revoker.epochs),
        static_cast<unsigned long long>(m.revoker.sweep.pagesSwept),
        static_cast<unsigned long long>(m.revoker.sweep.capsRevoked),
        r.normalizedTime, r.sweepOverhead, r.trafficOverheadPct,
        static_cast<unsigned long long>(b.colorAssigns),
        static_cast<unsigned long long>(b.colorsRetired),
        static_cast<unsigned long long>(b.colorsRecycled),
        static_cast<unsigned long long>(b.recycleScans),
        static_cast<unsigned long long>(b.colorExhaustionStalls),
        static_cast<unsigned long long>(b.colorForcedShares),
        static_cast<unsigned long long>(b.idsAssigned),
        static_cast<unsigned long long>(b.idsRetired),
        static_cast<unsigned long long>(b.idChecks),
        static_cast<unsigned long long>(b.idCompactions),
        static_cast<unsigned long long>(b.idTableEntriesCompacted),
        static_cast<unsigned long long>(b.metadataBytes));
    out += buf;
}

/** Within @p tolerance relatively (handles the release-timing noise
 *  dlmalloc chunk splitting puts on byte totals). */
bool
bytesClose(uint64_t a, uint64_t b, double tolerance)
{
    const double hi = static_cast<double>(a > b ? a : b);
    const double lo = static_cast<double>(a > b ? b : a);
    return hi == 0 || (hi - lo) / hi <= tolerance;
}

/**
 * Cross-backend parity for one row: the mutator-side statistics a
 * backend cannot legitimately change must agree across all three.
 * Counters are exact; byte totals get 1% slack because release
 * timing changes dlmalloc chunk splitting (and thus usable sizes).
 */
bool
checkParity(const Row &row, std::string &detail)
{
    const workload::DriverResult &s = row.cells[0].r.run;
    bool ok = true;
    char buf[256];
    for (size_t i = 1; i < kNumBackends; ++i) {
        const workload::DriverResult &m = row.cells[i].r.run;
        const bool exact = m.allocCalls == s.allocCalls &&
                           m.freeCalls == s.freeCalls &&
                           m.ptrStores == s.ptrStores &&
                           m.peakLiveAllocs == s.peakLiveAllocs &&
                           m.virtualSeconds == s.virtualSeconds;
        const bool close =
            bytesClose(m.freedBytes, s.freedBytes, 0.01) &&
            bytesClose(m.peakLiveBytes, s.peakLiveBytes, 0.01);
        if (!exact || !close) {
            ok = false;
            std::snprintf(buf, sizeof(buf),
                          "  parity broken: %s %s vs sweep "
                          "(exact=%d close=%d)\n",
                          row.benchmark.c_str(),
                          revoke::backendName(kBackends[i]),
                          exact ? 1 : 0, close ? 1 : 0);
            detail += buf;
        }
    }
    return ok;
}

Pass
runPass(const sim::ExperimentConfig &base)
{
    Pass pass;
    for (const auto &profile : workload::specProfiles()) {
        Row row;
        row.benchmark = profile.name;
        for (size_t i = 0; i < kNumBackends; ++i) {
            sim::ExperimentConfig cfg = base;
            cfg.backend = kBackends[i];
            row.cells[i] = runCell(profile, cfg);
            addFingerprint(pass.fingerprint, row.benchmark,
                           kBackends[i], row.cells[i].r);
        }
        pass.parityOk &= checkParity(row, pass.parityDetail);
        pass.rows.push_back(std::move(row));
    }

    // Color exhaustion: a 2-color pool with short cohorts must run
    // out mid-run and fall back to forced cohort sharing.
    const workload::BenchmarkProfile stress =
        workload::profileFor("xalancbmk");
    {
        sim::ExperimentConfig cfg = base;
        cfg.backend = revoke::BackendKind::Color;
        cfg.backendConfig.colors = 2;
        cfg.backendConfig.allocsPerColor = 64;
        pass.exhaustion = runCell(stress, cfg);
        addFingerprint(pass.fingerprint, "exhaustion",
                       cfg.backend, pass.exhaustion.r);
    }

    // Object-ID compaction: a low retired-ID threshold must trigger
    // table-compaction epochs.
    {
        sim::ExperimentConfig cfg = base;
        cfg.backend = revoke::BackendKind::ObjectId;
        cfg.backendConfig.idCompactRetired = 512;
        pass.compaction = runCell(stress, cfg);
        addFingerprint(pass.fingerprint, "compaction",
                       cfg.backend, pass.compaction.r);
    }
    return pass;
}

void
writeJson(const Pass &pass, bool deterministic, bool ok)
{
    using Layout = stats::JsonWriter::Layout;
    stats::JsonWriter json("BENCH_backend.json");
    // One cell's members; the caller opens and ends its object.
    auto cellFields = [&](const Cell &cell, revoke::BackendKind kind) {
        const workload::DriverResult &m = cell.r.run;
        const revoke::BackendStats &b = cell.r.backendStats;
        json.field("backend", revoke::backendName(kind))
            .field("allocs", m.allocCalls).field("frees", m.freeCalls)
            .field("ptr_stores", m.ptrStores)
            .field("peak_live_allocs", m.peakLiveAllocs)
            .field("epochs", m.revoker.epochs)
            .field("pages_swept", m.revoker.sweep.pagesSwept)
            .field("caps_revoked", m.revoker.sweep.capsRevoked)
            .field("normalized_time", cell.r.normalizedTime)
            .field("sweep_overhead", cell.r.sweepOverhead)
            .field("traffic_pct", cell.r.trafficOverheadPct)
            .field("color_assigns", b.colorAssigns)
            .field("colors_recycled", b.colorsRecycled)
            .field("recycle_scans", b.recycleScans)
            .field("exhaustion_stalls", b.colorExhaustionStalls)
            .field("forced_shares", b.colorForcedShares)
            .field("ids_assigned", b.idsAssigned)
            .field("id_checks", b.idChecks)
            .field("id_compactions", b.idCompactions)
            .field("entries_compacted", b.idTableEntriesCompacted)
            .field("metadata_bytes", b.metadataBytes)
            .field("wall_sec", cell.wallSec);
    };

    json.field("bench", "backend_compare")
        .beginArray("rows", Layout::Block);
    for (const Row &row : pass.rows) {
        json.beginObject(Layout::Inline)
            .field("benchmark", row.benchmark)
            .beginArray("backends", Layout::Block);
        for (size_t k = 0; k < kNumBackends; ++k) {
            json.beginObject(Layout::Inline);
            cellFields(row.cells[k], kBackends[k]);
            json.end();
        }
        json.end().end();
    }
    json.end().beginObject("exhaustion", Layout::Inline);
    cellFields(pass.exhaustion, revoke::BackendKind::Color);
    json.end().beginObject("compaction", Layout::Inline);
    cellFields(pass.compaction, revoke::BackendKind::ObjectId);
    json.end().field("parity", pass.parityOk)
        .field("deterministic", deterministic).field("ok", ok).close();
    std::printf("wrote BENCH_backend.json\n");
}

} // namespace

static int
benchMain()
{
    bench::printSystems("Backend comparison: sweep vs colored "
                        "capabilities vs inline object IDs");

    const sim::ExperimentConfig base = bench::defaultConfig();
    bench::printKnobs();

    // Two full passes; every deterministic statistic must match
    // byte for byte (the acceptance gate for the whole subsystem).
    const Pass pass = runPass(base);
    const Pass again = runPass(base);
    const bool deterministic = pass.fingerprint == again.fingerprint;

    stats::TextTable time_table(
        {"benchmark", "sweep", "color", "objid"});
    std::vector<double> cols[kNumBackends];
    for (const Row &row : pass.rows) {
        std::vector<std::string> cells = {row.benchmark};
        for (size_t k = 0; k < kNumBackends; ++k) {
            cells.push_back(stats::TextTable::num(
                row.cells[k].r.normalizedTime, 3));
            cols[k].push_back(row.cells[k].r.normalizedTime);
        }
        time_table.addRow(cells);
    }
    time_table.addRow(
        {"geomean", stats::TextTable::num(stats::geomean(cols[0]), 3),
         stats::TextTable::num(stats::geomean(cols[1]), 3),
         stats::TextTable::num(stats::geomean(cols[2]), 3)});
    std::printf("Normalised runtime (1.0 = no revocation):\n%s\n",
                time_table.render().c_str());

    stats::TextTable mech_table({"benchmark", "col recycled",
                                 "recycle scans", "forced shares",
                                 "ids retired", "id checks",
                                 "compactions"});
    for (const Row &row : pass.rows) {
        const revoke::BackendStats &c = row.cells[1].r.backendStats;
        const revoke::BackendStats &o = row.cells[2].r.backendStats;
        mech_table.addRow({row.benchmark,
                           std::to_string(c.colorsRecycled),
                           std::to_string(c.recycleScans),
                           std::to_string(c.colorForcedShares),
                           std::to_string(o.idsRetired),
                           std::to_string(o.idChecks),
                           std::to_string(o.idCompactions)});
    }
    std::printf("Backend mechanics (color / objid cells):\n%s\n",
                mech_table.render().c_str());

    // ---- gates --------------------------------------------------
    const revoke::BackendStats &ex =
        pass.exhaustion.r.backendStats;
    const bool exhaustion_ok =
        ex.colorExhaustionStalls > 0 && ex.colorForcedShares > 0;
    std::printf("color exhaustion (2-color pool): stalls %llu, "
                "forced shares %llu, recycled %llu  [%s]\n",
                static_cast<unsigned long long>(
                    ex.colorExhaustionStalls),
                static_cast<unsigned long long>(ex.colorForcedShares),
                static_cast<unsigned long long>(ex.colorsRecycled),
                exhaustion_ok ? "ok" : "FAILED");

    const revoke::BackendStats &cp =
        pass.compaction.r.backendStats;
    const bool compaction_ok =
        cp.idCompactions > 0 && cp.idTableEntriesCompacted > 0;
    std::printf("objid compaction (threshold 512): compactions "
                "%llu, entries compacted %llu  [%s]\n",
                static_cast<unsigned long long>(cp.idCompactions),
                static_cast<unsigned long long>(
                    cp.idTableEntriesCompacted),
                compaction_ok ? "ok" : "FAILED");

    std::printf("cross-backend parity: %s\n",
                pass.parityOk ? "ok" : "FAILED");
    if (!pass.parityOk)
        std::printf("%s", pass.parityDetail.c_str());
    std::printf("deterministic across two passes: %s\n",
                deterministic ? "ok" : "FAILED");

    const bool ok = exhaustion_ok && compaction_ok &&
                    pass.parityOk && deterministic;
    writeJson(pass, deterministic, ok);
    std::printf(ok ? "OK: all backend gates passed\n"
                   : "FAILED: see gates above\n");
    return ok ? 0 : 1;
}

int
main()
{
    return bench::runBench(benchMain);
}
