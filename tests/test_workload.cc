/**
 * @file
 * Tests for the workload substrate: profile data integrity, trace
 * serialisation, the synthesiser's convergence to table 2 targets,
 * and the driver's measurements.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "support/logging.hh"
#include "workload/driver.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth.hh"
#include "workload/trace.hh"

namespace cherivoke {
namespace workload {
namespace {

TEST(Profiles, AllSeventeenPresent)
{
    EXPECT_EQ(specProfiles().size(), 17u);
    EXPECT_EQ(figure5Profiles().size(), 16u);
    EXPECT_NO_THROW(profileFor("ffmpeg"));
    EXPECT_THROW(profileFor("gcc"), FatalError);
}

TEST(Profiles, Table2ValuesVerbatim)
{
    // Spot-check table 2 rows against the paper.
    const auto &xalan = profileFor("xalancbmk");
    EXPECT_DOUBLE_EQ(xalan.pagesWithPointers, 0.86);
    EXPECT_DOUBLE_EQ(xalan.freeRateMiBps, 371.0);
    EXPECT_DOUBLE_EQ(xalan.freesPerSec, 811000.0);
    const auto &omnetpp = profileFor("omnetpp");
    EXPECT_DOUBLE_EQ(omnetpp.pagesWithPointers, 0.95);
    EXPECT_DOUBLE_EQ(omnetpp.freeRateMiBps, 175.0);
    const auto &bzip2 = profileFor("bzip2");
    EXPECT_DOUBLE_EQ(bzip2.freeRateMiBps, 0.0);
    EXPECT_FALSE(bzip2.allocationIntensive());
    const auto &ffmpeg = profileFor("ffmpeg");
    EXPECT_DOUBLE_EQ(ffmpeg.freeRateMiBps, 1268.0);
}

TEST(Profiles, MeanAllocSizeImpliedByTable2)
{
    // dealII: 40 MiB/s over 498k frees/s ~ 84 bytes.
    EXPECT_NEAR(profileFor("dealII").meanAllocBytes(), 84.2, 1.0);
    // omnetpp: 175 MiB/s over 1027k frees/s ~ 179 bytes.
    EXPECT_NEAR(profileFor("omnetpp").meanAllocBytes(), 178.7, 1.0);
    // ffmpeg: 1268 MiB/s over 44k frees/s ~ 30 KiB.
    EXPECT_NEAR(profileFor("ffmpeg").meanAllocBytes(), 30217.0,
                100.0);
}

TEST(Trace, SaveLoadRoundTrip)
{
    Trace trace;
    TraceOp a;
    a.kind = OpKind::Malloc;
    a.id = 1;
    a.size = 128;
    a.dt = 0.25;
    trace.ops.push_back(a);
    TraceOp b;
    b.kind = OpKind::StorePtr;
    b.src = 1;
    b.dst = 1;
    b.offset = 32;
    trace.ops.push_back(b);
    TraceOp c;
    c.kind = OpKind::Free;
    c.id = 1;
    c.dt = 0.5;
    trace.ops.push_back(c);

    std::stringstream ss;
    trace.save(ss);
    const Trace loaded = Trace::load(ss);
    ASSERT_EQ(loaded.ops.size(), 3u);
    EXPECT_EQ(loaded.ops[0].kind, OpKind::Malloc);
    EXPECT_EQ(loaded.ops[0].size, 128u);
    EXPECT_EQ(loaded.ops[1].kind, OpKind::StorePtr);
    EXPECT_EQ(loaded.ops[1].offset, 32u);
    EXPECT_NEAR(loaded.virtualSeconds(), 0.75, 1e-9);
}

TEST(Trace, LoadRejectsGarbage)
{
    std::stringstream ss("frobnicate 1 2 3 4 5 0.1\n");
    EXPECT_THROW(Trace::load(ss), FatalError);
}

TEST(Synth, EmptyForDurationZero)
{
    SynthConfig cfg;
    cfg.durationSec = 0.0;
    const Trace t = synthesize(profileFor("dealII"), cfg);
    // Only the ramp (dt = 0) is present.
    EXPECT_NEAR(t.virtualSeconds(), 0.0, 1e-9);
}

TEST(Synth, QuietBenchmarkStillAdvancesTime)
{
    SynthConfig cfg;
    cfg.durationSec = 1.0;
    const Trace t = synthesize(profileFor("bzip2"), cfg);
    EXPECT_NEAR(t.virtualSeconds(), 1.0, 1e-6);
    for (const auto &op : t.ops)
        EXPECT_NE(op.kind, OpKind::Free);
}

class SynthDriverTest : public ::testing::Test
{
  protected:
    DriverResult
    runProfile(const std::string &name, double duration = 0.5,
               double scale = 1.0 / 64)
    {
        SynthConfig cfg;
        cfg.scale = scale;
        cfg.durationSec = duration;
        cfg.seed = 7;
        const Trace trace = synthesize(profileFor(name), cfg);

        // A second run replaces the previous one: tear it down
        // engine first, since the engine detaches from its allocator
        // on destruction.
        revoker.reset();
        allocator.reset();
        space = std::make_unique<mem::AddressSpace>();
        alloc::CherivokeConfig acfg;
        acfg.minQuarantineBytes = 64 * KiB;
        allocator = std::make_unique<alloc::CherivokeAllocator>(
            *space, acfg);
        revoker = std::make_unique<revoke::RevocationEngine>(*allocator,
                                                    *space);
        TraceDriver driver(*space, *allocator, revoker.get());
        return driver.run(trace);
    }

    std::unique_ptr<mem::AddressSpace> space;
    std::unique_ptr<alloc::CherivokeAllocator> allocator;
    std::unique_ptr<revoke::RevocationEngine> revoker;
};

TEST_F(SynthDriverTest, FreeRateConvergesToScaledTarget)
{
    const auto &p = profileFor("dealII");
    const double scale = 1.0 / 64;
    const DriverResult r = runProfile("dealII", 0.5, scale);
    const double target = p.freeRateMiBps * scale;
    EXPECT_GT(r.measuredFreeRateMiBps, 0.5 * target);
    EXPECT_LT(r.measuredFreeRateMiBps, 2.5 * target);
    const double frees_target = p.freesPerSec * scale;
    EXPECT_GT(r.measuredFreesPerSec, 0.5 * frees_target);
    EXPECT_LT(r.measuredFreesPerSec, 2.0 * frees_target);
}

TEST_F(SynthDriverTest, PageDensityTracksTable2)
{
    const DriverResult r = runProfile("omnetpp");
    // omnetpp: 95% of pages hold pointers.
    EXPECT_GT(r.pageDensity, 0.55);
    const DriverResult r2 = runProfile("hmmer");
    // hmmer: 4%.
    EXPECT_LT(r2.pageDensity, 0.30);
    EXPECT_GT(r.pageDensity, r2.pageDensity);
}

TEST_F(SynthDriverTest, LineDensityBelowPageDensity)
{
    const DriverResult r = runProfile("xalancbmk");
    EXPECT_GT(r.pageDensity, 0.0);
    EXPECT_LT(r.lineDensity, r.pageDensity)
        << "line granularity is strictly finer";
}

TEST_F(SynthDriverTest, SweepsHappenForAllocIntensiveWorkloads)
{
    const DriverResult r = runProfile("xalancbmk");
    EXPECT_GT(r.revoker.epochs, 0u);
    EXPECT_GT(r.revoker.sweep.capsRevoked, 0u);
    EXPECT_GT(r.revoker.internalFrees, 0u);
    // Aggregation: internal frees fewer than program frees.
    EXPECT_LT(r.revoker.internalFrees, r.freeCalls);
}

TEST_F(SynthDriverTest, NoSweepsForQuietWorkloads)
{
    const DriverResult r = runProfile("bzip2");
    EXPECT_EQ(r.revoker.epochs, 0u);
    EXPECT_EQ(r.freeCalls, 0u);
}

TEST_F(SynthDriverTest, QuarantineBoundedByFraction)
{
    const DriverResult r = runProfile("omnetpp");
    // Peak quarantine should stay in the vicinity of 25% of live
    // (one allocation can overshoot slightly).
    EXPECT_LT(r.peakQuarantineBytes,
              static_cast<uint64_t>(0.6 * r.peakLiveBytes));
    EXPECT_GT(r.peakQuarantineBytes, 0u);
}

TEST_F(SynthDriverTest, HeapStaysValidUnderWorkload)
{
    runProfile("dealII", 0.3);
    EXPECT_NO_THROW(allocator->dl().validateHeap());
}

// ---------------------------------------------------------------
// TraceReplayer's live-object table
// ---------------------------------------------------------------

/** Replays a hand-written trace with no revocation engine. */
class ReplayTableTest : public ::testing::Test
{
  protected:
    TraceReplayer &
    replay(const std::vector<TraceOp> &ops)
    {
        trace.ops = ops;
        replayer = std::make_unique<TraceReplayer>(space, allocator,
                                                   nullptr, trace);
        while (!replayer->done())
            replayer->step();
        return *replayer;
    }

    cap::Capability
    rootSlot(uint64_t slot) const
    {
        return space.memory().readCap(space.globals().base +
                                      slot * kCapBytes);
    }

    mem::AddressSpace space;
    alloc::CherivokeAllocator allocator{space};
    Trace trace;
    std::unique_ptr<TraceReplayer> replayer;
};

TEST_F(ReplayTableTest, DuplicateLiveMallocKeepsFirstCapability)
{
    TraceReplayer &r = replay({
        {.kind = OpKind::Malloc, .id = 1, .size = 64},
        {.kind = OpKind::RootPtr, .src = 1, .offset = 0},
        {.kind = OpKind::Malloc, .id = 1, .size = 64},
        {.kind = OpKind::RootPtr, .src = 1, .offset = 1},
    });
    const cap::Capability first = rootSlot(0);
    ASSERT_TRUE(first.tag());
    EXPECT_EQ(rootSlot(1), first);
    EXPECT_EQ(r.partial().allocCalls, 2u);
    EXPECT_EQ(r.liveObjects(), 1u);
    EXPECT_EQ(r.partial().peakLiveAllocs, 1u);
    // The second allocation leaked: both chunks are still live.
    EXPECT_GE(allocator.liveBytes(), 2 * 64u);
}

TEST_F(ReplayTableTest, OpsOnDeadOrUnknownIdsAreSkipped)
{
    TraceReplayer &r = replay({
        {.kind = OpKind::Malloc, .id = 1, .size = 64},
        {.kind = OpKind::Malloc, .id = 2, .size = 64},
        {.kind = OpKind::Free, .id = 1},
        // dead: no double free reaches the heap
        {.kind = OpKind::Free, .id = 1},
        // unknown, beyond the table
        {.kind = OpKind::Free, .id = 9},
        {.kind = OpKind::StorePtr, .src = 2, .dst = 1}, // dead dst
        {.kind = OpKind::StorePtr, .src = 1, .dst = 2}, // dead src
        {.kind = OpKind::StorePtr, .src = 40, .dst = 2}, // unknown
        {.kind = OpKind::StoreData, .dst = 1},          // dead dst
        {.kind = OpKind::RootPtr, .src = 1, .offset = 0}, // dead
        {.kind = OpKind::RootPtr, .src = 77, .offset = 1}, // unknown
    });
    EXPECT_EQ(r.partial().freeCalls, 1u);
    EXPECT_EQ(r.partial().ptrStores, 0u);
    EXPECT_EQ(r.liveObjects(), 1u);
    EXPECT_EQ(r.partial().peakLiveAllocs, 2u);
    EXPECT_FALSE(rootSlot(0).tag());
    EXPECT_FALSE(rootSlot(1).tag());
}

TEST_F(ReplayTableTest, IdZeroIsAnOrdinaryId)
{
    TraceReplayer &r = replay({
        {.kind = OpKind::Malloc, .id = 0, .size = 64},
        {.kind = OpKind::StorePtr, .src = 0, .dst = 0, .offset = 16},
        {.kind = OpKind::RootPtr, .src = 0, .offset = 2},
        {.kind = OpKind::Free, .id = 0},
    });
    EXPECT_EQ(r.partial().allocCalls, 1u);
    EXPECT_EQ(r.partial().ptrStores, 1u);
    EXPECT_EQ(r.partial().freeCalls, 1u);
    EXPECT_EQ(r.liveObjects(), 0u);
    EXPECT_TRUE(rootSlot(2).tag());
}

TEST_F(ReplayTableTest, SparseIdsAreRejected)
{
    // The table is sized from the largest Malloc id: up to
    // 4 * ops + 4096 is accepted, anything beyond fails closed.
    trace.ops = {{.kind = OpKind::Malloc, .id = 4 * 1 + 4096}};
    EXPECT_NO_THROW(TraceReplayer(space, allocator, nullptr, trace));
    trace.ops = {{.kind = OpKind::Malloc, .id = 4 * 1 + 4097}};
    EXPECT_THROW(TraceReplayer(space, allocator, nullptr, trace),
                 FatalError);
    trace.ops = {{.kind = OpKind::Malloc, .id = 1},
                 {.kind = OpKind::Malloc, .id = uint64_t{1} << 40}};
    EXPECT_THROW(TraceReplayer(space, allocator, nullptr, trace),
                 FatalError);
}

} // namespace
} // namespace workload
} // namespace cherivoke
