#include "mem/page_table.hh"

#include <bit>
#include <new>

#include "support/bitops.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace mem {

void
PageTable::map(uint64_t base, uint64_t size, uint8_t prot,
               bool cap_store_inhibit)
{
    CHERIVOKE_ASSERT(isAligned(base, kPageBytes) &&
                     isAligned(size, kPageBytes),
                     "(map must be page aligned)");
    const uint64_t vpn_end = (base + size) >> kPageShift;
    if (vpn_end > kMaxVpn) {
        fatal("map of 0x%llx beyond the %u-bit simulated VA space",
              static_cast<unsigned long long>(base + size), kVaBits);
    }
    for (uint64_t vpn = base >> kPageShift; vpn < vpn_end; ++vpn) {
        const uint64_t ri = vpn >> kLeafBits;
        if (ri >= root_.size())
            root_.resize(ri + 1);
        if (!root_[ri]) {
            auto *leaf =
                static_cast<Leaf *>(std::calloc(1, sizeof(Leaf)));
            if (!leaf)
                throw std::bad_alloc();
            root_[ri].reset(leaf);
        }
        Leaf &leaf = *root_[ri];
        const size_t i = vpn & (kLeafEntries - 1);
        if (!leaf.present(i)) {
            leaf.presentBits[i >> 6] |= uint64_t{1} << (i & 63);
            ++pages_;
        }
        Pte &pte = leaf.ptes[i];
        pte.prot = prot;
        pte.capStoreInhibit = cap_store_inhibit;
    }
}

void
PageTable::unmap(uint64_t base, uint64_t size)
{
    CHERIVOKE_ASSERT(isAligned(base, kPageBytes) &&
                     isAligned(size, kPageBytes),
                     "(unmap must be page aligned)");
    for (uint64_t vpn = base >> kPageShift;
         vpn < (base + size) >> kPageShift; ++vpn) {
        const uint64_t ri = vpn >> kLeafBits;
        if (ri >= root_.size())
            break;
        if (!root_[ri])
            continue;
        Leaf &leaf = *root_[ri];
        const size_t i = vpn & (kLeafEntries - 1);
        if (!leaf.present(i))
            continue;
        leaf.presentBits[i >> 6] &= ~(uint64_t{1} << (i & 63));
        leaf.ptes[i] = Pte{};
        --pages_;
    }
}

bool
PageTable::setCapDirty(uint64_t addr)
{
    Pte *pte = lookup(addr);
    CHERIVOKE_ASSERT(pte, "(setCapDirty on unmapped page)");
    if (pte->capDirty)
        return false;
    pte->capDirty = true;
    return true;
}

void
PageTable::clearCapDirty(uint64_t addr)
{
    Pte *pte = lookup(addr);
    CHERIVOKE_ASSERT(pte, "(clearCapDirty on unmapped page)");
    pte->capDirty = false;
}

template <typename Fn>
void
PageTable::forEachMapped(Fn &&fn) const
{
    for (size_t ri = 0; ri < root_.size(); ++ri) {
        const Leaf *leaf = root_[ri].get();
        if (!leaf)
            continue;
        for (size_t w = 0; w < leaf->presentBits.size(); ++w) {
            for (uint64_t bits = leaf->presentBits[w]; bits != 0;
                 bits &= bits - 1) {
                const size_t i =
                    w * 64 + static_cast<size_t>(std::countr_zero(bits));
                fn((uint64_t{ri} << kLeafBits) | i, leaf->ptes[i]);
            }
        }
    }
}

std::vector<uint64_t>
PageTable::capDirtyPages() const
{
    std::vector<uint64_t> pages;
    forEachMapped([&](uint64_t vpn, const Pte &pte) {
        if (pte.capDirty)
            pages.push_back(vpn << kPageShift);
    });
    return pages;
}

std::vector<uint64_t>
PageTable::mappedPages() const
{
    std::vector<uint64_t> pages;
    pages.reserve(pages_);
    forEachMapped([&](uint64_t vpn, const Pte &) {
        pages.push_back(vpn << kPageShift);
    });
    return pages;
}

size_t
PageTable::capDirtyCount() const
{
    size_t n = 0;
    forEachMapped([&](uint64_t, const Pte &pte) {
        if (pte.capDirty)
            ++n;
    });
    return n;
}

} // namespace mem
} // namespace cherivoke
