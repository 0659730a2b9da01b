/**
 * @file
 * Unit tests for the page table and PTE CapDirty semantics (§3.4.2).
 */

#include <gtest/gtest.h>

#include "mem/page_table.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace mem {
namespace {

TEST(PageTable, MapAndLookup)
{
    PageTable pt;
    pt.map(0x10000, 4 * kPageBytes, ProtRead | ProtWrite);
    EXPECT_TRUE(pt.isMapped(0x10000));
    EXPECT_TRUE(pt.isMapped(0x10000 + 4 * kPageBytes - 1));
    EXPECT_FALSE(pt.isMapped(0x10000 + 4 * kPageBytes));
    EXPECT_FALSE(pt.isMapped(0xffff));
    EXPECT_EQ(pt.pageCount(), 4u);
}

TEST(PageTable, UnmapRemovesEntries)
{
    PageTable pt;
    pt.map(0x10000, 4 * kPageBytes, ProtRead);
    pt.unmap(0x10000 + kPageBytes, 2 * kPageBytes);
    EXPECT_TRUE(pt.isMapped(0x10000));
    EXPECT_FALSE(pt.isMapped(0x10000 + kPageBytes));
    EXPECT_FALSE(pt.isMapped(0x10000 + 2 * kPageBytes));
    EXPECT_TRUE(pt.isMapped(0x10000 + 3 * kPageBytes));
}

TEST(PageTable, MisalignedMapPanics)
{
    PageTable pt;
    EXPECT_THROW(pt.map(0x10008, kPageBytes, ProtRead), PanicError);
    EXPECT_THROW(pt.map(0x10000, 100, ProtRead), PanicError);
}

TEST(PageTable, CapDirtyTrapOnlyOnFirstTransition)
{
    PageTable pt;
    pt.map(0x20000, kPageBytes, ProtRead | ProtWrite);
    EXPECT_FALSE(pt.lookup(0x20000)->capDirty);
    EXPECT_TRUE(pt.setCapDirty(0x20100)) << "first set is a trap";
    EXPECT_FALSE(pt.setCapDirty(0x20200)) << "second set is silent";
    EXPECT_TRUE(pt.lookup(0x20000)->capDirty);
}

TEST(PageTable, ClearCapDirtyResets)
{
    PageTable pt;
    pt.map(0x20000, kPageBytes, ProtRead | ProtWrite);
    pt.setCapDirty(0x20000);
    pt.clearCapDirty(0x20000);
    EXPECT_FALSE(pt.lookup(0x20000)->capDirty);
    EXPECT_TRUE(pt.setCapDirty(0x20000)) << "trap fires again";
}

TEST(PageTable, CapDirtyPagesSortedAndFiltered)
{
    PageTable pt;
    pt.map(0x30000, 8 * kPageBytes, ProtRead | ProtWrite);
    pt.setCapDirty(0x30000 + 5 * kPageBytes);
    pt.setCapDirty(0x30000 + 1 * kPageBytes);
    const auto pages = pt.capDirtyPages();
    ASSERT_EQ(pages.size(), 2u);
    EXPECT_EQ(pages[0], 0x30000 + 1 * kPageBytes);
    EXPECT_EQ(pages[1], 0x30000 + 5 * kPageBytes);
    EXPECT_EQ(pt.capDirtyCount(), 2u);
}

TEST(PageTable, MappedPagesEnumeration)
{
    PageTable pt;
    pt.map(0x40000, 2 * kPageBytes, ProtRead);
    pt.map(0x80000, kPageBytes, ProtRead);
    const auto pages = pt.mappedPages();
    ASSERT_EQ(pages.size(), 3u);
    EXPECT_EQ(pages[0], 0x40000u);
    EXPECT_EQ(pages[2], 0x80000u);
}

TEST(PageTable, CapStoreInhibitFlagPreserved)
{
    PageTable pt;
    pt.map(0x50000, kPageBytes, ProtRead | ProtWrite,
           /*cap_store_inhibit=*/true);
    EXPECT_TRUE(pt.lookup(0x50000)->capStoreInhibit);
}

TEST(PageTable, RemapUpdatesProtection)
{
    PageTable pt;
    pt.map(0x60000, kPageBytes, ProtRead);
    pt.map(0x60000, kPageBytes, ProtRead | ProtWrite);
    EXPECT_EQ(pt.lookup(0x60000)->prot, ProtRead | ProtWrite);
}

TEST(PageTable, MapUnmapRemapPageCount)
{
    PageTable pt;
    pt.map(0x100000, 4 * kPageBytes, ProtRead | ProtWrite);
    EXPECT_EQ(pt.pageCount(), 4u);
    // Re-mapping mapped pages updates them in place.
    pt.map(0x100000 + kPageBytes, 2 * kPageBytes, ProtRead);
    EXPECT_EQ(pt.pageCount(), 4u);
    pt.setCapDirty(0x100000 + 3 * kPageBytes);
    pt.map(0x100000 + 3 * kPageBytes, kPageBytes, ProtRead);
    EXPECT_TRUE(pt.lookup(0x100000 + 3 * kPageBytes)->capDirty)
        << "remap keeps CapDirty";
    pt.unmap(0x100000 + 3 * kPageBytes, kPageBytes);
    EXPECT_EQ(pt.pageCount(), 3u);
    // Unmapping an unmapped page (or one in a never-touched leaf)
    // is a no-op.
    pt.unmap(0x100000 + 3 * kPageBytes, kPageBytes);
    pt.unmap(uint64_t{5} << 30, kPageBytes);
    EXPECT_EQ(pt.pageCount(), 3u);
    // A page mapped again after unmap starts clean.
    pt.map(0x100000 + 3 * kPageBytes, kPageBytes, ProtRead);
    EXPECT_EQ(pt.pageCount(), 4u);
    EXPECT_FALSE(pt.lookup(0x100000 + 3 * kPageBytes)->capDirty);
    EXPECT_FALSE(pt.lookup(0x100000 + 3 * kPageBytes)->capStoreInhibit);
}

TEST(PageTable, LookupBeyondVirtualAddressWidthIsNull)
{
    PageTable pt;
    const uint64_t top = uint64_t{1} << PageTable::kVaBits;
    pt.map(top - kPageBytes, kPageBytes, ProtRead);
    EXPECT_TRUE(pt.isMapped(top - 1));
    EXPECT_EQ(pt.lookup(top), nullptr);
    EXPECT_EQ(pt.lookup(~uint64_t{0}), nullptr);
    EXPECT_THROW(pt.map(top, kPageBytes, ProtRead), FatalError);
}

TEST(PageTable, EnumerationInAddressOrderAcrossLeaves)
{
    PageTable pt;
    const uint64_t leaf_span = uint64_t{PageTable::kLeafEntries}
                               << kPageShift;
    // Mapped high leaf first, then pages straddling a leaf boundary.
    const uint64_t high = 7 * leaf_span + 5 * kPageBytes;
    pt.map(high, kPageBytes, ProtRead | ProtWrite);
    const uint64_t edge = leaf_span - 2 * kPageBytes;
    pt.map(edge, 4 * kPageBytes, ProtRead | ProtWrite);
    pt.setCapDirty(high);
    pt.setCapDirty(edge + 3 * kPageBytes);
    pt.setCapDirty(edge);

    const std::vector<uint64_t> mapped = pt.mappedPages();
    const std::vector<uint64_t> want_mapped = {
        edge, edge + kPageBytes, leaf_span, leaf_span + kPageBytes,
        high};
    EXPECT_EQ(mapped, want_mapped);
    const std::vector<uint64_t> dirty = pt.capDirtyPages();
    const std::vector<uint64_t> want_dirty = {edge,
                                              leaf_span + kPageBytes,
                                              high};
    EXPECT_EQ(dirty, want_dirty);
    EXPECT_EQ(pt.capDirtyCount(), 3u);
}

} // namespace
} // namespace mem
} // namespace cherivoke
