/**
 * @file
 * Tests for the pluggable revocation backends: capability color
 * packing, chunk ID tags, the per-backend epoch mechanics (color
 * exhaustion + recycling, object-ID table compaction), and
 * cross-backend parity — one seeded workload replayed under all
 * three backends must agree on every backend-independent statistic.
 */

#include <gtest/gtest.h>

#include "alloc/chunk.hh"
#include "revoke/backends/color_backend.hh"
#include "revoke/backends/objid_backend.hh"
#include "revoke/backends/sweep_backend.hh"
#include "sim/experiment.hh"

namespace cherivoke {
namespace revoke {
namespace {

using alloc::CherivokeAllocator;
using alloc::CherivokeConfig;
using cap::Capability;

// ---------------------------------------------------------------
// Metadata encodings
// ---------------------------------------------------------------

TEST(BackendMeta, ColorSurvivesPackUnpack)
{
    mem::AddressSpace space;
    const Capability root = space.rootCap();
    for (unsigned color = 0; color < cap::kMaxColors; ++color) {
        const Capability c = root.setAddress(0x10000)
                                 .setBounds(256)
                                 .withColor(static_cast<uint8_t>(color));
        EXPECT_EQ(c.color(), color);
        const Capability back =
            Capability::unpack(c.packLow(), c.packHigh(), c.tag());
        EXPECT_EQ(back.color(), color);
        EXPECT_EQ(back, c);
    }
}

TEST(BackendMeta, ColorZeroPacksToPreColorBitPattern)
{
    // The uncolored encoding must be exactly the pre-color one: the
    // sweep backend's bit-identity guarantee rests on it.
    mem::AddressSpace space;
    const Capability c =
        space.rootCap().setAddress(0x4000).setBounds(64);
    EXPECT_EQ(c.color(), 0u);
    const Capability colored = c.withColor(5);
    EXPECT_NE(colored.packHigh(), c.packHigh());
    EXPECT_EQ(colored.withColor(0).packHigh(), c.packHigh());
}

TEST(BackendMeta, ColorPropagatesThroughDerivation)
{
    mem::AddressSpace space;
    const Capability c = space.rootCap()
                             .setAddress(0x8000)
                             .setBounds(128)
                             .withColor(11);
    EXPECT_EQ(c.setAddress(0x8010).color(), 11u);
    EXPECT_EQ(c.setBounds(64).color(), 11u);
}

TEST(BackendMeta, ChunkIdTagRoundTripsBesideSizeAndFlags)
{
    mem::TaggedMemory memory;
    const uint64_t addr = mem::kHeapBase;
    alloc::ChunkView chunk(memory, addr);
    chunk.setHeader(0x2000, alloc::kCinuse | alloc::kPinuse);
    chunk.setIdTag(0xABCDEF);
    EXPECT_EQ(chunk.idTag(), 0xABCDEFu);
    EXPECT_EQ(chunk.size(), 0x2000u);
    EXPECT_TRUE(chunk.cinuse());
    // Flag updates must not clobber the tag, and vice versa.
    chunk.setFlags(alloc::kCinuse | alloc::kQuarantine);
    EXPECT_EQ(chunk.idTag(), 0xABCDEFu);
    chunk.setIdTag(0x17);
    EXPECT_TRUE(chunk.quarantined());
    EXPECT_EQ(chunk.size(), 0x2000u);
    EXPECT_EQ(chunk.idTag(), 0x17u);
}

TEST(BackendMeta, NamesParseAndRoundTrip)
{
    for (const BackendKind kind :
         {BackendKind::Sweep, BackendKind::Color,
          BackendKind::ObjectId}) {
        BackendKind parsed;
        ASSERT_TRUE(parseBackend(backendName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    BackendKind parsed;
    EXPECT_TRUE(parseBackend("object-id", parsed));
    EXPECT_EQ(parsed, BackendKind::ObjectId);
    EXPECT_FALSE(parseBackend("laser", parsed));
}

// ---------------------------------------------------------------
// Backend mechanics on a live engine
// ---------------------------------------------------------------

CherivokeConfig
tinyHeap()
{
    CherivokeConfig cfg;
    cfg.minQuarantineBytes = 256 * KiB; // stay below pressure
    return cfg;
}

EngineConfig
backendEngine(BackendKind kind, const BackendConfig &backend_cfg)
{
    EngineConfig cfg;
    cfg.backend = kind;
    cfg.backendConfig = backend_cfg;
    return cfg;
}

TEST(ColorBackend, AllocationsCarryPoolColors)
{
    BackendConfig bcfg;
    bcfg.colors = 4;
    bcfg.allocsPerColor = 2;
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyHeap());
    RevocationEngine engine(heap, space,
                            backendEngine(BackendKind::Color, bcfg));
    auto *backend = dynamic_cast<revoke::ColorBackend *>(
        &engine.domainBackend(0));
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->poolColors(), 4u);

    const Capability a = heap.malloc(64);
    const Capability b = heap.malloc(64);
    const Capability c = heap.malloc(64);
    EXPECT_EQ(a.color(), 1u); // FIFO hands colors out in order
    EXPECT_EQ(b.color(), 1u); // shares until the cohort seals
    EXPECT_EQ(c.color(), 2u);
    EXPECT_EQ(engine.domainBackendStats(0).colorAssigns, 3u);
}

TEST(ColorBackend, ExhaustionForcesCohortSharing)
{
    BackendConfig bcfg;
    bcfg.colors = 2;
    bcfg.allocsPerColor = 1;
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyHeap());
    RevocationEngine engine(heap, space,
                            backendEngine(BackendKind::Color, bcfg));

    // Two allocations seal both colors; the third finds the pool
    // empty with nothing retired and must share deterministically.
    const Capability a = heap.malloc(64);
    const Capability b = heap.malloc(64);
    const Capability c = heap.malloc(64);
    EXPECT_EQ(a.color(), 1u);
    EXPECT_EQ(b.color(), 2u);
    EXPECT_EQ(c.color(), 1u); // lowest live color
    const BackendStats &stats = engine.domainBackendStats(0);
    EXPECT_GE(stats.colorExhaustionStalls, 1u);
    EXPECT_GE(stats.colorForcedShares, 1u);
}

TEST(ColorBackend, RetiredColorsRecycleWithGenerationBump)
{
    BackendConfig bcfg;
    bcfg.colors = 2;
    bcfg.allocsPerColor = 1;
    bcfg.recycleFraction = 0.5; // one retired color triggers a scan
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyHeap());
    RevocationEngine engine(heap, space,
                            backendEngine(BackendKind::Color, bcfg));
    auto *backend = dynamic_cast<revoke::ColorBackend *>(
        &engine.domainBackend(0));
    ASSERT_NE(backend, nullptr);

    const Capability a = heap.malloc(64);
    ASSERT_EQ(a.color(), 1u);
    ASSERT_EQ(backend->generation(1), 0u);
    heap.free(a); // cohort fully dead: color 1 retires
    EXPECT_EQ(backend->retiredColors(), 1u);
    EXPECT_TRUE(engine.quarantinePressure());

    engine.maybeRevoke();
    const BackendStats &stats = engine.domainBackendStats(0);
    EXPECT_EQ(stats.colorsRetired, 1u);
    EXPECT_EQ(stats.colorsRecycled, 1u);
    EXPECT_EQ(stats.recycleScans, 1u);
    EXPECT_GT(stats.metadataBytes, 0u);
    EXPECT_EQ(backend->retiredColors(), 0u);
    EXPECT_EQ(backend->generation(1), 1u);
    // The recycled color rejoins the FIFO behind the untouched one.
    const Capability b = heap.malloc(64);
    EXPECT_EQ(b.color(), 2u);
    const Capability c = heap.malloc(64);
    EXPECT_EQ(c.color(), 1u); // generation-1 reissue
}

TEST(ColorBackend, RecyclingScanRevokesDanglers)
{
    BackendConfig bcfg;
    bcfg.colors = 2;
    bcfg.allocsPerColor = 1;
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyHeap());
    RevocationEngine engine(heap, space,
                            backendEngine(BackendKind::Color, bcfg));

    const Capability a = heap.malloc(64);
    space.memory().writeCap(mem::kGlobalsBase, a);
    heap.free(a);
    engine.maybeRevoke();
    // The recycling scan is a full sweep: the dangling root died.
    EXPECT_FALSE(space.memory().readCap(mem::kGlobalsBase).tag());
}

TEST(ColorBackend, ColorRetiresWhenCohortsLastCapabilityFrees)
{
    BackendConfig bcfg;
    bcfg.colors = 4;
    bcfg.allocsPerColor = 3;
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyHeap());
    RevocationEngine engine(heap, space,
                            backendEngine(BackendKind::Color, bcfg));
    auto *backend = dynamic_cast<revoke::ColorBackend *>(
        &engine.domainBackend(0));
    ASSERT_NE(backend, nullptr);

    // Three allocations seal color 1; the fourth opens color 2.
    const Capability a = heap.malloc(64);
    const Capability b = heap.malloc(96);
    const Capability c = heap.malloc(128);
    const Capability d = heap.malloc(64);
    ASSERT_EQ(c.color(), 1u);
    ASSERT_EQ(d.color(), 2u);

    // The color comes back with the freed capability: freeing all
    // but the last member of the cohort retires nothing.
    heap.free(b);
    heap.free(a);
    EXPECT_EQ(backend->retiredColors(), 0u);
    heap.free(c);
    EXPECT_EQ(backend->retiredColors(), 1u);
    EXPECT_EQ(engine.domainBackendStats(0).colorsRetired, 1u);
    // An open (unsealed) cohort never retires, even when empty.
    heap.free(d);
    EXPECT_EQ(backend->retiredColors(), 1u);
}

TEST(ColorBackend, UncoloredFreeLeavesColorTableUntouched)
{
    BackendConfig bcfg;
    bcfg.colors = 4;
    bcfg.allocsPerColor = 2;
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyHeap());
    // Allocated before any backend observes the heap: color 0.
    const Capability plain = heap.malloc(64);
    ASSERT_EQ(plain.color(), 0u);
    RevocationEngine engine(heap, space,
                            backendEngine(BackendKind::Color, bcfg));
    auto *backend = dynamic_cast<revoke::ColorBackend *>(
        &engine.domainBackend(0));
    ASSERT_NE(backend, nullptr);

    const Capability x = heap.malloc(64);
    const Capability y = heap.malloc(64);
    ASSERT_EQ(x.color(), 1u);
    ASSERT_EQ(y.color(), 1u); // color 1 sealed with two live

    heap.free(plain);
    EXPECT_EQ(backend->retiredColors(), 0u);
    EXPECT_EQ(backend->freeColors(), 3u);
    EXPECT_EQ(backend->generation(1), 0u);
    // Color 1's live count was not decremented by the uncolored
    // free: it still takes both of its own frees to retire.
    heap.free(x);
    EXPECT_EQ(backend->retiredColors(), 0u);
    heap.free(y);
    EXPECT_EQ(backend->retiredColors(), 1u);
    // The uncolored chunk still quarantines like any other free.
    EXPECT_GT(heap.quarantinedBytes(), 0u);
}

TEST(ObjectIdBackend, FreesReleaseImmediatelyAndCompact)
{
    BackendConfig bcfg;
    bcfg.idCompactRetired = 4;
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyHeap());
    RevocationEngine engine(
        heap, space, backendEngine(BackendKind::ObjectId, bcfg));
    auto *backend = dynamic_cast<revoke::ObjectIdBackend *>(
        &engine.domainBackend(0));
    ASSERT_NE(backend, nullptr);

    std::vector<Capability> caps;
    for (int i = 0; i < 6; ++i)
        caps.push_back(heap.malloc(64));
    EXPECT_EQ(backend->liveIds(), 6u);
    // IDs are stamped inline in the chunk header.
    EXPECT_EQ(alloc::ChunkView(
                  space.memory(),
                  alloc::DlAllocator::chunkOf(caps[0].base()))
                  .idTag(),
              1u);

    for (int i = 0; i < 3; ++i)
        heap.free(caps[i]);
    // O(1) retirement: nothing quarantines, memory reuses now.
    EXPECT_EQ(heap.quarantinedBytes(), 0u);
    EXPECT_EQ(backend->retiredIds(), 3u);
    EXPECT_FALSE(engine.quarantinePressure());

    heap.free(caps[3]); // 4 retired >= threshold
    EXPECT_TRUE(engine.quarantinePressure());
    engine.maybeRevoke();
    const BackendStats &stats = engine.domainBackendStats(0);
    EXPECT_EQ(stats.idCompactions, 1u);
    EXPECT_EQ(stats.idTableEntriesCompacted, 4u);
    EXPECT_EQ(backend->retiredIds(), 0u);
    EXPECT_EQ(backend->liveIds(), 2u);
    EXPECT_GT(stats.metadataBytes, 0u);
}

TEST(ObjectIdBackend, LiveIdsTrackAllocFreeAndCompaction)
{
    BackendConfig bcfg;
    bcfg.idCompactRetired = 3;
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyHeap());
    RevocationEngine engine(
        heap, space, backendEngine(BackendKind::ObjectId, bcfg));
    auto *backend = dynamic_cast<revoke::ObjectIdBackend *>(
        &engine.domainBackend(0));
    ASSERT_NE(backend, nullptr);

    std::vector<Capability> caps;
    for (int i = 0; i < 5; ++i)
        caps.push_back(heap.malloc(48));
    EXPECT_EQ(backend->liveIds(), 5u);
    heap.free(caps[1]);
    heap.free(caps[3]);
    EXPECT_EQ(backend->liveIds(), 3u);
    // Released memory is reused at once and mints a fresh ID.
    caps.push_back(heap.malloc(48));
    EXPECT_EQ(backend->liveIds(), 4u);
    EXPECT_EQ(backend->nextId(), 7u);
    heap.free(caps[0]);
    EXPECT_EQ(backend->liveIds(), 3u);
    EXPECT_EQ(backend->retiredIds(), 3u);

    // Compaction reads live + retired entries and writes back the
    // live ones; it never changes the live count.
    const uint64_t before = engine.domainBackendStats(0).metadataBytes;
    ASSERT_TRUE(engine.quarantinePressure());
    engine.maybeRevoke();
    const BackendStats &stats = engine.domainBackendStats(0);
    EXPECT_EQ(stats.idCompactions, 1u);
    EXPECT_EQ(stats.metadataBytes - before,
              (3u + 3u) * bcfg.tableEntryBytes +
                  3u * bcfg.tableEntryBytes);
    EXPECT_EQ(backend->liveIds(), 3u);
    EXPECT_EQ(backend->retiredIds(), 0u);

    heap.free(caps[2]);
    heap.free(caps[4]);
    heap.free(caps[5]);
    EXPECT_EQ(backend->liveIds(), 0u);
    EXPECT_EQ(stats.idsRetired, 6u);
}

TEST(ObjectIdBackend, PointerUseBillsIdChecks)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyHeap());
    RevocationEngine engine(heap, space,
                            backendEngine(BackendKind::ObjectId, {}));
    engine.notePointerUse(3);
    engine.notePointerUse();
    const BackendStats &stats = engine.domainBackendStats(0);
    EXPECT_EQ(stats.idChecks, 4u);
    EXPECT_EQ(stats.metadataBytes, 4u * 8u);
}

TEST(SweepBackend, PointerUseIsFree)
{
    mem::AddressSpace space;
    CherivokeAllocator heap(space, tinyHeap());
    RevocationEngine engine(heap, space, EngineConfig{});
    engine.notePointerUse(100);
    EXPECT_EQ(engine.domainBackendStats(0), BackendStats{});
}

// ---------------------------------------------------------------
// Cross-backend parity on the full pipeline
// ---------------------------------------------------------------

sim::ExperimentConfig
parityConfig(BackendKind kind)
{
    sim::ExperimentConfig cfg;
    cfg.scale = 1.0 / 256;
    cfg.durationSec = 0.3;
    cfg.seed = 7;
    cfg.backend = kind;
    return cfg;
}

/** The statistics no backend may perturb: what the mutator did.
 *  Byte totals (freedBytes, peakLiveBytes) are deliberately absent —
 *  release timing changes dlmalloc chunk splitting, so usable sizes
 *  differ across backends by design; they are compared with a
 *  tolerance instead. */
struct MutatorFingerprint
{
    uint64_t allocCalls, freeCalls, ptrStores;
    uint64_t peakLiveAllocs;
    double virtualSeconds;

    bool operator==(const MutatorFingerprint &o) const = default;

    static MutatorFingerprint
    of(const workload::DriverResult &r)
    {
        return {r.allocCalls, r.freeCalls, r.ptrStores,
                r.peakLiveAllocs, r.virtualSeconds};
    }
};

/** Byte totals agree within fractional @p tolerance. */
void
expectBytesClose(const workload::DriverResult &a,
                 const workload::DriverResult &b,
                 double tolerance = 0.01)
{
    EXPECT_NEAR(static_cast<double>(a.freedBytes),
                static_cast<double>(b.freedBytes),
                tolerance * static_cast<double>(b.freedBytes));
    EXPECT_NEAR(static_cast<double>(a.peakLiveBytes),
                static_cast<double>(b.peakLiveBytes),
                tolerance * static_cast<double>(b.peakLiveBytes));
}

TEST(BackendParity, SeededTraceAgreesAcrossBackends)
{
    const auto &profile = workload::profileFor("xalancbmk");
    const sim::BenchResult sweep =
        sim::runBenchmark(profile, parityConfig(BackendKind::Sweep));
    const sim::BenchResult color =
        sim::runBenchmark(profile, parityConfig(BackendKind::Color));
    const sim::BenchResult objid = sim::runBenchmark(
        profile, parityConfig(BackendKind::ObjectId));

    const MutatorFingerprint want =
        MutatorFingerprint::of(sweep.run);
    EXPECT_GT(want.allocCalls, 0u);
    EXPECT_GT(want.freeCalls, 0u);
    EXPECT_EQ(MutatorFingerprint::of(color.run), want);
    EXPECT_EQ(MutatorFingerprint::of(objid.run), want);
    expectBytesClose(color.run, sweep.run);
    expectBytesClose(objid.run, sweep.run);

    // And the backend-specific costs land where they should.
    EXPECT_EQ(sweep.backendStats, BackendStats{});
    EXPECT_GT(color.backendStats.colorAssigns, 0u);
    EXPECT_EQ(color.backendStats.idChecks, 0u);
    EXPECT_GT(objid.backendStats.idChecks, 0u);
    EXPECT_EQ(objid.backendStats.colorAssigns, 0u);
    EXPECT_EQ(objid.run.revoker.sweep.pagesSwept, 0u);
}

TEST(BackendParity, RunsAreDeterministicPerBackend)
{
    const auto &profile = workload::profileFor("omnetpp");
    for (const BackendKind kind :
         {BackendKind::Sweep, BackendKind::Color,
          BackendKind::ObjectId}) {
        const sim::BenchResult a =
            sim::runBenchmark(profile, parityConfig(kind));
        const sim::BenchResult b =
            sim::runBenchmark(profile, parityConfig(kind));
        EXPECT_EQ(MutatorFingerprint::of(a.run),
                  MutatorFingerprint::of(b.run))
            << backendName(kind);
        EXPECT_EQ(a.backendStats, b.backendStats)
            << backendName(kind);
        EXPECT_EQ(a.run.revoker.epochs, b.run.revoker.epochs)
            << backendName(kind);
    }
}

TEST(BackendParity, MixedTenantBackendsShareOneEngine)
{
    const auto &profile = workload::profileFor("omnetpp");
    sim::ExperimentConfig cfg = parityConfig(BackendKind::Sweep);
    cfg.tenants = 3;
    cfg.tenantBackends = {BackendKind::Sweep, BackendKind::Color,
                          BackendKind::ObjectId};
    const std::vector<workload::Trace> traces =
        sim::synthesizeTenantTraces(profile, cfg);

    const sim::MultiTenantBenchResult mixed =
        sim::runMultiTenantBenchmark(profile, cfg,
                                     sim::MachineProfile::x86(),
                                     &traces);
    ASSERT_EQ(mixed.run.tenants.size(), 3u);

    // Per-tenant mutator statistics must match a homogeneous
    // all-sweep run of the very same traces: the backend mix only
    // moves revocation costs, never what the tenants computed.
    sim::ExperimentConfig all_sweep = cfg;
    all_sweep.tenantBackends.clear();
    const sim::MultiTenantBenchResult uniform =
        sim::runMultiTenantBenchmark(profile, all_sweep,
                                     sim::MachineProfile::x86(),
                                     &traces);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(
            MutatorFingerprint::of(mixed.run.tenants[i].run),
            MutatorFingerprint::of(uniform.run.tenants[i].run))
            << "tenant " << i;
        expectBytesClose(mixed.run.tenants[i].run,
                         uniform.run.tenants[i].run);
    }
}

} // namespace
} // namespace revoke
} // namespace cherivoke
