/**
 * @file
 * Unit tests for the cache model, DRAM accounting, the hierarchical
 * tag controller, and the full hierarchy including the CLoadTags
 * path (paper §3.4.1, figure 4).
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "cache/cache.hh"
#include "cache/dram.hh"
#include "cache/hierarchy.hh"
#include "cache/tag_controller.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace cache {
namespace {

CacheGeometry
tinyCache(uint64_t size = 1 * KiB, unsigned ways = 2)
{
    return CacheGeometry{"tiny", size, ways, kLineBytes};
}

TEST(Cache, GeometryArithmetic)
{
    const CacheGeometry g{"l1", 32 * KiB, 8, 64};
    EXPECT_EQ(g.numSets(), 64u);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache(CacheGeometry{"bad", 1000, 3, 64}), PanicError);
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, MisalignedAccessPanics)
{
    Cache c(tinyCache());
    EXPECT_THROW(c.access(0x1004, false), PanicError);
}

TEST(Cache, LruEviction)
{
    // 2-way: fill a set with two lines, touch the first, insert a
    // third conflicting line; the second must be the victim.
    Cache c(tinyCache(1 * KiB, 2)); // 8 sets
    const uint64_t set_stride = 8 * kLineBytes;
    const uint64_t a = 0x0, b = a + set_stride, d = a + 2 * set_stride;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);       // refresh a
    const LineAccess r = c.access(d, false);
    EXPECT_TRUE(r.evictedValid);
    EXPECT_EQ(r.victimLine, b);
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(tinyCache(1 * KiB, 2));
    const uint64_t set_stride = 8 * kLineBytes;
    c.access(0x0, true); // dirty
    c.access(set_stride, false);
    const LineAccess r = c.access(2 * set_stride, false);
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache c(tinyCache(1 * KiB, 2));
    const uint64_t set_stride = 8 * kLineBytes;
    c.access(0x0, false);
    c.access(0x0, true); // hit, dirties the line
    c.access(set_stride, false);
    const LineAccess r = c.access(2 * set_stride, false);
    EXPECT_TRUE(r.evictedDirty);
}

TEST(Cache, InvalidateReportsDirtiness)
{
    Cache c(tinyCache());
    c.access(0x40, true);
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.invalidate(0x40)) << "second invalidate is a no-op";
}

TEST(Cache, ResetClearsStateAndCounters)
{
    Cache c(tinyCache());
    c.access(0x40, false);
    c.reset();
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_FALSE(c.probe(0x40));
}

/**
 * Reference model for the differential test: the per-way LRU-clock
 * cache that the flat recency-ordered Cache replaced. Each way keeps
 * a valid bit, a dirty bit and a unique use stamp; a miss fills the
 * first invalid way or evicts the smallest stamp.
 */
class LruClockCache
{
  public:
    explicit LruClockCache(const CacheGeometry &geom)
        : geom_(geom), sets_(geom.numSets(), std::vector<Way>(geom.ways))
    {}

    LineAccess
    access(uint64_t line_addr, bool write)
    {
        auto &set = sets_[setIndex(line_addr)];
        const uint64_t tag = tagOf(line_addr);
        LineAccess result;
        for (auto &way : set) {
            if (way.valid && way.tag == tag) {
                way.lru = ++lruClock_;
                way.dirty |= write;
                ++hits_;
                result.hit = true;
                return result;
            }
        }
        ++misses_;
        Way *victim = &set[0];
        for (auto &way : set) {
            if (!way.valid) {
                victim = &way;
                break;
            }
            if (way.lru < victim->lru)
                victim = &way;
        }
        if (victim->valid) {
            result.evictedValid = true;
            result.victimLine =
                (victim->tag * geom_.numSets() + setIndex(line_addr)) *
                geom_.lineBytes;
            if (victim->dirty) {
                result.evictedDirty = true;
                ++writebacks_;
            }
        }
        victim->valid = true;
        victim->tag = tag;
        victim->dirty = write;
        victim->lru = ++lruClock_;
        return result;
    }

    bool
    probe(uint64_t line_addr) const
    {
        for (const auto &way : sets_[setIndex(line_addr)]) {
            if (way.valid && way.tag == tagOf(line_addr))
                return true;
        }
        return false;
    }

    bool
    invalidate(uint64_t line_addr)
    {
        for (auto &way : sets_[setIndex(line_addr)]) {
            if (way.valid && way.tag == tagOf(line_addr)) {
                const bool was_dirty = way.dirty;
                way.valid = false;
                way.dirty = false;
                return was_dirty;
            }
        }
        return false;
    }

    void
    reset()
    {
        for (auto &set : sets_) {
            for (auto &way : set)
                way = Way{};
        }
        lruClock_ = 0;
        hits_ = misses_ = writebacks_ = 0;
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t writebacks() const { return writebacks_; }

    uint64_t
    validLines() const
    {
        uint64_t n = 0;
        for (const auto &set : sets_) {
            for (const auto &way : set)
                n += way.valid ? 1 : 0;
        }
        return n;
    }

  private:
    struct Way
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lru = 0;
    };

    uint64_t
    setIndex(uint64_t line_addr) const
    {
        return (line_addr / geom_.lineBytes) & (geom_.numSets() - 1);
    }

    uint64_t
    tagOf(uint64_t line_addr) const
    {
        return line_addr / geom_.lineBytes / geom_.numSets();
    }

    CacheGeometry geom_;
    std::vector<std::vector<Way>> sets_;
    uint64_t lruClock_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t writebacks_ = 0;
};

/**
 * Drive Cache and the LRU-clock reference with one seeded stream of
 * reads, writes, probes, invalidations and rare resets, and require
 * identical results and counters after every operation. Addresses
 * come from a pool of about three times the cache's capacity, plus
 * lines with high tag bits set, so sets fill, hit, evict and refill.
 */
void
expectMatchesLruClock(const CacheGeometry &geom, uint64_t seed)
{
    constexpr int kOps = 100000;
    Cache flat(geom);
    LruClockCache ref(geom);
    std::mt19937_64 rng(seed);
    const uint64_t capacity_lines = geom.sizeBytes / geom.lineBytes;
    std::uniform_int_distribution<uint64_t> line_pick(
        0, 3 * capacity_lines - 1);
    std::uniform_int_distribution<int> op_pick(0, 999);

    for (int i = 0; i < kOps; ++i) {
        uint64_t line = line_pick(rng) * geom.lineBytes;
        if ((rng() & 15) == 0)
            line |= uint64_t{1} << (40 + rng() % 23);
        const int op = op_pick(rng);
        SCOPED_TRACE(::testing::Message()
                     << geom.name << " op " << i << " kind " << op
                     << " line 0x" << std::hex << line);
        if (op < 700) {
            const bool write = op >= 400;
            const LineAccess a = flat.access(line, write);
            const LineAccess b = ref.access(line, write);
            ASSERT_EQ(a.hit, b.hit);
            ASSERT_EQ(a.evictedValid, b.evictedValid);
            ASSERT_EQ(a.evictedDirty, b.evictedDirty);
            ASSERT_EQ(a.victimLine, b.victimLine);
        } else if (op < 850) {
            ASSERT_EQ(flat.probe(line), ref.probe(line));
        } else if (op < 999) {
            ASSERT_EQ(flat.invalidate(line), ref.invalidate(line));
        } else {
            flat.reset();
            ref.reset();
        }
        ASSERT_EQ(flat.hits(), ref.hits());
        ASSERT_EQ(flat.misses(), ref.misses());
        ASSERT_EQ(flat.writebacks(), ref.writebacks());
        ASSERT_EQ(flat.validLines(), ref.validLines());
    }
    // The stream must have exercised every path it compares.
    EXPECT_GT(flat.hits(), 0u);
    EXPECT_GT(flat.writebacks(), 0u);
}

TEST(CacheDifferential, MatchesLruClockModelAcrossAssociativities)
{
    uint64_t seed = 11;
    for (const unsigned ways : {1u, 2u, 4u, 8u, 16u}) {
        const CacheGeometry g{"ways" + std::to_string(ways),
                              16 * ways * kLineBytes, ways, kLineBytes};
        expectMatchesLruClock(g, seed++);
    }
}

TEST(CacheDifferential, MatchesLruClockModelForOtherLineSizes)
{
    expectMatchesLruClock(CacheGeometry{"line32", 2 * KiB, 4, 32}, 21);
    expectMatchesLruClock(CacheGeometry{"line128", 4 * KiB, 8, 128}, 22);
    // One set: fully associative, every line competes for the same ways.
    expectMatchesLruClock(CacheGeometry{"oneset", 8 * 64, 8, 64}, 23);
}

TEST(Dram, TrafficAccumulates)
{
    Dram d;
    d.read(64);
    d.read(64);
    d.write(128);
    EXPECT_EQ(d.readBytes(), 128u);
    EXPECT_EQ(d.writeBytes(), 128u);
    EXPECT_EQ(d.totalBytes(), 256u);
    EXPECT_EQ(d.readAccesses(), 2u);
}

TEST(Dram, StreamTimeMatchesBandwidth)
{
    DramConfig cfg;
    cfg.readBandwidth = 1024.0 * 1024 * 1024; // 1 GiB/s
    cfg.writeBandwidth = 512.0 * 1024 * 1024;
    Dram d(cfg);
    d.read(1024 * 1024 * 1024);
    EXPECT_NEAR(d.streamTimeSeconds(), 1.0, 1e-9);
    d.write(512 * 1024 * 1024);
    EXPECT_NEAR(d.streamTimeSeconds(), 2.0, 1e-9);
}

TEST(TagController, CoverageConstants)
{
    // One leaf line covers 64B * 8 bits/byte granules of 16B = 8 KiB.
    EXPECT_EQ(kLeafLineCoverage, 8 * KiB);
    EXPECT_EQ(kRootLineCoverage, 4 * MiB);
}

TEST(TagController, RootShortCircuitAvoidsLeafFetch)
{
    Dram dram;
    TagController tc(CacheGeometry{"tc", 4 * KiB, 4, 64}, dram);
    // Tag-free region: first lookup reads only the root line.
    const TagLookup t = tc.lookup(0x100000, false);
    EXPECT_TRUE(t.rootShortCircuit);
    EXPECT_EQ(t.dramLineReads, 1u);
    // Second lookup in the same 4 MiB root region: fully cached.
    const TagLookup t2 = tc.lookup(0x110000, false);
    EXPECT_TRUE(t2.rootShortCircuit);
    EXPECT_EQ(t2.dramLineReads, 0u);
    EXPECT_EQ(tc.rootShortCircuits(), 2u);
}

TEST(TagController, TaggedRegionFetchesLeafOncePer8KiB)
{
    Dram dram;
    TagController tc(CacheGeometry{"tc", 4 * KiB, 4, 64}, dram);
    const TagLookup t = tc.lookup(0x200000, true);
    EXPECT_FALSE(t.rootShortCircuit);
    EXPECT_EQ(t.dramLineReads, 2u) << "root + leaf";
    // Next line in the same 8 KiB: both levels cached.
    const TagLookup t2 = tc.lookup(0x200040, true);
    EXPECT_EQ(t2.dramLineReads, 0u);
    EXPECT_TRUE(t2.tagCacheHit);
    // A different 8 KiB region under the same root: leaf fetch only.
    const TagLookup t3 = tc.lookup(0x202000, true);
    EXPECT_EQ(t3.dramLineReads, 1u);
}

TEST(Hierarchy, L1HitAfterFill)
{
    Hierarchy h;
    const AccessOutcome first = h.access(0x1000, 8, false);
    EXPECT_EQ(first.level, HitLevel::Dram);
    EXPECT_TRUE(first.offCore);
    const AccessOutcome second = h.access(0x1008, 8, false);
    EXPECT_EQ(second.level, HitLevel::L1);
    EXPECT_FALSE(second.offCore);
}

TEST(Hierarchy, MultiLineAccessTouchesEachLine)
{
    Hierarchy h;
    h.access(0x1000, 256, false); // 4 lines
    EXPECT_EQ(h.dram().readBytes(), 256u);
    EXPECT_EQ(h.l1().misses(), 4u);
}

TEST(Hierarchy, StraddlingAccessTouchesBothLines)
{
    Hierarchy h;
    h.access(0x103c, 8, false); // straddles 0x1000 and 0x1040 lines
    EXPECT_EQ(h.l1().misses(), 2u);
}

TEST(Hierarchy, DirtyL1VictimWritesBackToL2NotDram)
{
    HierarchyConfig cfg;
    cfg.l1 = CacheGeometry{"l1", 1 * KiB, 2, 64}; // 8 sets
    Hierarchy h(cfg);
    const uint64_t stride = 8 * kLineBytes;
    h.access(0x0, 8, true);
    h.access(stride, 8, false);
    h.access(2 * stride, 8, false); // evicts dirty 0x0 into L2
    EXPECT_EQ(h.dram().writeBytes(), 0u)
        << "writeback should be absorbed by L2";
    EXPECT_EQ(h.l2().writebacks(), 0u);
    // 0x0 now hits in L2.
    const AccessOutcome back = h.access(0x0, 8, false);
    EXPECT_EQ(back.level, HitLevel::L2);
}

TEST(Hierarchy, CloadTagsAnsweredByDataCacheWhenPresent)
{
    Hierarchy h;
    h.access(0x4000, 8, false); // fills all levels
    h.dram().reset();
    const AccessOutcome t = h.cloadTags(0x4000, true);
    EXPECT_EQ(t.level, HitLevel::L1);
    EXPECT_EQ(t.dramBytes, 0u);
    EXPECT_FALSE(t.offCore);
}

TEST(Hierarchy, CloadTagsStreamingDoesNotPolluteDataCaches)
{
    Hierarchy h;
    const AccessOutcome t = h.cloadTags(0x8000, true);
    EXPECT_TRUE(t.offCore);
    EXPECT_FALSE(h.l1().probe(0x8000));
    EXPECT_FALSE(h.l2().probe(0x8000));
    // Data was never fetched: DRAM traffic is tag lines only (<=128B),
    // far less than a 64B data line per 8 KiB swept.
    EXPECT_LE(t.dramBytes, 2 * kLineBytes);
}

TEST(Hierarchy, CloadTagsSecondLineInRegionIsTagCacheHit)
{
    Hierarchy h;
    (void)h.cloadTags(0x8000, true);
    const AccessOutcome t2 = h.cloadTags(0x8040, true);
    EXPECT_EQ(t2.level, HitLevel::TagCache);
    EXPECT_EQ(t2.dramBytes, 0u);
}

TEST(Hierarchy, OffCoreLinesCountsL2BoundaryCrossings)
{
    Hierarchy h;
    h.access(0x1000, 8, false); // cold miss: 1 crossing
    h.access(0x1000, 8, false); // L1 hit: none
    EXPECT_EQ(h.offCoreLines(), 1u);
}

TEST(Hierarchy, NoLlcProfileGoesStraightToDram)
{
    HierarchyConfig cfg;
    cfg.llc.reset(); // CHERI FPGA profile has no L3
    Hierarchy h(cfg);
    const AccessOutcome a = h.access(0x2000, 8, false);
    EXPECT_EQ(a.level, HitLevel::Dram);
    EXPECT_EQ(h.llc(), nullptr);
}

TEST(Hierarchy, ResetClearsEverything)
{
    Hierarchy h;
    h.access(0x1000, 64, true);
    h.cloadTags(0x9000, true);
    h.reset();
    EXPECT_EQ(h.dram().totalBytes(), 0u);
    EXPECT_EQ(h.offCoreLines(), 0u);
    EXPECT_EQ(h.l1().validLines(), 0u);
}

} // namespace
} // namespace cache
} // namespace cherivoke
