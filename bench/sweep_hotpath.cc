/**
 * @file
 * Sweep/paint hot-path throughput bench: how fast does the
 * *simulator itself* run, independent of the modelled cycle counts?
 *
 * Measures, on one deterministic pointered heap image:
 *  - paint throughput (granules painted per second), serial vs
 *    concurrent sharded painting (shards in {1, 2, 4, 8});
 *  - sweep throughput (pages swept per second), serial vs threaded
 *    (threads in {1, 2, 4, 8}) — steady-state scans after a warmup
 *    pass performs the revocations, isolating the page-directory and
 *    word-level tag-scan speed.
 *
 * Every configuration is checked against the serial reference: paint
 * must produce byte-identical shadow contents and identical
 * PaintStats, sweeps identical SweepStats; any divergence fails the
 * bench. Results are emitted both as a table and machine-readable
 * into BENCH_sweep.json so the perf trajectory is tracked PR over
 * PR.
 *
 * The image size (kImageAllocs) and the minimum measure window per
 * configuration (kWindowSec) are fixed in code; the bench reads no
 * CHERIVOKE_* knob.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "alloc/cherivoke_alloc.hh"
#include "bench_common.hh"
#include "revoke/sweeper.hh"
#include "stats/table.hh"
#include "support/rng.hh"

using namespace cherivoke;

namespace {

/** Image size in allocations. */
constexpr uint64_t kImageAllocs = 80000;
/** Minimum measure window per configuration, in seconds. */
constexpr double kWindowSec = 0.2;

/** Snapshot of the heap's whole shadow span. */
std::vector<uint8_t>
shadowBytes(mem::AddressSpace &space)
{
    uint64_t lo = UINT64_MAX, hi = 0;
    for (const mem::Segment &seg : space.heapSegments()) {
        lo = std::min(lo, seg.base);
        hi = std::max(hi, seg.end());
    }
    if (lo >= hi)
        return {};
    const uint64_t s_lo = mem::shadowAddrOf(lo);
    const uint64_t s_hi = mem::shadowAddrOf(hi) + 1;
    std::vector<uint8_t> bytes(s_hi - s_lo);
    space.memory().peekBytes(s_lo, bytes.data(), bytes.size());
    return bytes;
}

bool
paintEqual(const alloc::PaintStats &a, const alloc::PaintStats &b)
{
    return a.bitOps == b.bitOps && a.byteOps == b.byteOps &&
           a.wordOps == b.wordOps && a.dwordOps == b.dwordOps;
}

struct PaintRow
{
    unsigned shards = 0; //!< 0 = serial (unsharded) reference
    double secPerIter = 0;
    double granulesPerSec = 0;
    bool equal = true;
};

struct SweepRow
{
    unsigned threads = 0;
    double secPerIter = 0;
    double pagesPerSec = 0;
    bool equal = true;
};

} // namespace

static int
benchMain()
{
    bench::printKnobs();

    std::printf("==============================================\n");
    std::printf("Sweep/paint hot-path throughput "
                "(%llu allocations)\n",
                static_cast<unsigned long long>(kImageAllocs));
    std::printf("==============================================\n");

    // One deterministic pointered image; every configuration reuses
    // it, so all measurements and equality checks see equal work.
    mem::AddressSpace space;
    alloc::CherivokeAllocator heap(space, alloc::CherivokeConfig{});
    Rng rng(1234);
    std::vector<cap::Capability> live;
    live.reserve(kImageAllocs);
    for (uint64_t i = 0; i < kImageAllocs; ++i) {
        const cap::Capability c =
            heap.malloc(rng.nextLogUniform(32, 2048));
        space.memory().writeCap(
            mem::kGlobalsBase + (i % 200000) * kGranuleBytes, c);
        if (!live.empty() && rng.nextBool(0.4)) {
            const cap::Capability &other =
                live[rng.nextBounded(live.size())];
            space.memory().storeCap(other, other.base(), c);
        }
        live.push_back(c);
    }
    for (size_t i = 0; i < live.size(); i += 4)
        heap.free(live[i]);

    const std::vector<alloc::QuarantineRun> runs =
        heap.quarantine().runs();
    uint64_t painted_granules = 0;
    for (const alloc::QuarantineRun &run : runs)
        painted_granules += (run.size - alloc::kChunkHeader) /
                            kGranuleBytes;
    alloc::ShadowMap &shadow = heap.shadowMap();
    auto clearAll = [&] {
        for (const alloc::QuarantineRun &run : runs)
            shadow.clear(run.addr + alloc::kChunkHeader,
                         run.size - alloc::kChunkHeader);
    };

    // ---- Paint: serial reference, then concurrent shards --------
    bool all_equal = true;
    std::vector<PaintRow> paint_rows;
    alloc::PaintStats ref_stats;
    std::vector<uint8_t> ref_bytes;
    for (const unsigned shards : {0u, 1u, 2u, 4u, 8u}) {
        const auto sharded =
            shards ? heap.quarantine().shardedRuns(shards)
                   : std::vector<alloc::QuarantineShard>{};
        auto paintOnce = [&] {
            alloc::PaintStats st;
            if (shards == 0) {
                for (const alloc::QuarantineRun &run : runs)
                    st += shadow.paint(run.addr + alloc::kChunkHeader,
                                       run.size - alloc::kChunkHeader);
            } else {
                st = alloc::paintShardsConcurrent(shadow, sharded);
            }
            return st;
        };

        // Correctness first: identical shadow bytes + PaintStats.
        const alloc::PaintStats stats = paintOnce();
        PaintRow row;
        row.shards = shards;
        if (shards == 0) {
            ref_stats = stats;
            ref_bytes = shadowBytes(space);
        } else {
            row.equal = paintEqual(stats, ref_stats) &&
                        shadowBytes(space) == ref_bytes;
        }
        all_equal = all_equal && row.equal;
        clearAll();

        // Then throughput: repeat paint/clear, timing the paints.
        double painting = 0;
        uint64_t iters = 0;
        const double begin = bench::now();
        while (bench::now() - begin < kWindowSec || iters < 3) {
            const double t0 = bench::now();
            paintOnce();
            painting += bench::now() - t0;
            ++iters;
            clearAll();
        }
        row.secPerIter = painting / static_cast<double>(iters);
        row.granulesPerSec =
            static_cast<double>(painted_granules) / row.secPerIter;
        paint_rows.push_back(row);
    }

    // ---- Sweep: serial vs threaded steady-state scans -----------
    heap.prepareSweep();
    std::vector<SweepRow> sweep_rows;
    revoke::SweepStats ref_sweep;
    {
        // Warmup: the first sweep performs the revocations (and
        // cleans pages that were already tag-free), the second
        // cleans the pages the revocations emptied. After that the
        // image is steady state — measured sweeps mutate nothing, so
        // every thread count scans identical tag and PTE state.
        revoke::Sweeper warm;
        warm.sweep(space, shadow);
        warm.sweep(space, shadow);
    }
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        revoke::SweepOptions opts;
        opts.threads = threads;
        revoke::Sweeper sweeper(opts);
        const revoke::SweepStats stats = sweeper.sweep(space, shadow);
        SweepRow row;
        row.threads = threads;
        if (threads == 1) {
            ref_sweep = stats;
        } else {
            row.equal = stats == ref_sweep;
        }
        all_equal = all_equal && row.equal;

        double sweeping = 0;
        uint64_t iters = 0, pages = 0;
        const double begin = bench::now();
        while (bench::now() - begin < kWindowSec || iters < 3) {
            const double t0 = bench::now();
            const revoke::SweepStats s = sweeper.sweep(space, shadow);
            sweeping += bench::now() - t0;
            pages += s.pagesSwept;
            ++iters;
        }
        row.secPerIter = sweeping / static_cast<double>(iters);
        row.pagesPerSec = static_cast<double>(pages) / sweeping;
        sweep_rows.push_back(row);
    }
    heap.finishSweep();

    // ---- Report -------------------------------------------------
    stats::TextTable paint_table(
        {"paint", "ms/iter", "Mgranules/s", "equal"});
    for (const PaintRow &r : paint_rows) {
        paint_table.addRow(
            {r.shards ? std::to_string(r.shards) + " shards"
                      : "serial",
             stats::TextTable::num(r.secPerIter * 1e3, 3),
             stats::TextTable::num(r.granulesPerSec / 1e6, 2),
             r.equal ? "yes" : "NO"});
    }
    std::printf("%s\n", paint_table.render().c_str());

    stats::TextTable sweep_table(
        {"sweep", "ms/iter", "Mpages/s", "equal"});
    for (const SweepRow &r : sweep_rows) {
        sweep_table.addRow(
            {std::to_string(r.threads) + " thread" +
                 (r.threads > 1 ? "s" : ""),
             stats::TextTable::num(r.secPerIter * 1e3, 3),
             stats::TextTable::num(r.pagesPerSec / 1e6, 3),
             r.equal ? "yes" : "NO"});
    }
    std::printf("%s\n", sweep_table.render().c_str());

    const double paint_serial = paint_rows[0].secPerIter;
    double paint_4 = 0, sweep_1 = 0, sweep_4 = 0;
    for (const PaintRow &r : paint_rows)
        if (r.shards == 4)
            paint_4 = r.secPerIter;
    for (const SweepRow &r : sweep_rows) {
        if (r.threads == 1)
            sweep_1 = r.secPerIter;
        if (r.threads == 4)
            sweep_4 = r.secPerIter;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("paint speedup (4 shards vs serial): %.2fx\n",
                paint_serial / paint_4);
    std::printf("sweep speedup (4 threads vs 1):     %.2fx\n",
                sweep_1 / sweep_4);
    std::printf("hardware concurrency: %u%s\n", hw,
                hw < 2 ? " (threaded configs cannot beat serial "
                         "wall-clock on this host)"
                       : "");

    // ---- BENCH_sweep.json ---------------------------------------
    using Layout = stats::JsonWriter::Layout;
    stats::JsonWriter json("BENCH_sweep.json");
    json.field("bench", "sweep_hotpath").field("allocations", kImageAllocs)
        .field("painted_granules", painted_granules)
        .field("swept_pages_per_iter", ref_sweep.pagesSwept);
    json.beginArray("paint", Layout::Block);
    for (const PaintRow &r : paint_rows)
        json.beginObject(Layout::Inline)
            .field("shards", r.shards).field("sec_per_iter", r.secPerIter)
            .field("granules_per_sec", r.granulesPerSec)
            .field("equal", r.equal).end();
    json.end().beginArray("sweep", Layout::Block);
    for (const SweepRow &r : sweep_rows)
        json.beginObject(Layout::Inline)
            .field("threads", r.threads).field("sec_per_iter", r.secPerIter)
            .field("pages_per_sec", r.pagesPerSec).field("equal", r.equal)
            .end();
    json.end().field("hw_concurrency", hw)
        .field("paint_speedup_4shards", paint_serial / paint_4)
        .field("sweep_speedup_4threads", sweep_1 / sweep_4)
        .field("ok", all_equal).close();
    std::printf("wrote BENCH_sweep.json\n");

    // Gate parallel health wherever the host can show it: with
    // >= 4 hardware threads the bench fails only when 4-shard paint
    // or 4-thread sweep is more than 25% slower than serial. It does
    // not require a speedup — the 25% margin absorbs shared-runner
    // noise while a catastrophic threading regression still fails
    // the job. The speedups themselves are reported as data (and in
    // BENCH_sweep.json) rather than gated.
    bool perf_ok = true;
    if (hw >= 4) {
        if (paint_4 > paint_serial * 1.25) {
            std::printf("FAILED: 4-shard paint (%f ms) regressed "
                        ">25%% past serial (%f ms) on a %u-thread "
                        "host\n",
                        paint_4 * 1e3, paint_serial * 1e3, hw);
            perf_ok = false;
        }
        if (sweep_4 > sweep_1 * 1.25) {
            std::printf("FAILED: 4-thread sweep (%f ms) regressed "
                        ">25%% past serial (%f ms) on a %u-thread "
                        "host\n",
                        sweep_4 * 1e3, sweep_1 * 1e3, hw);
            perf_ok = false;
        }
    }

    std::printf(all_equal
                    ? "OK: all shard/thread configurations match "
                      "the serial reference exactly\n"
                    : "FAILED: a configuration diverged from the "
                      "serial reference\n");
    return all_equal && perf_ok ? 0 : 1;
}

int
main()
{
    return bench::runBench(benchMain);
}
