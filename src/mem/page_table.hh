/**
 * @file
 * Page table with the CHERI PTE CapDirty flag (paper §3.4.2).
 *
 * CapDirty records whether a page has ever received a valid capability
 * store. Clean pages cannot contain capabilities and are skipped by
 * the revocation sweep. The first capability store to a clean page
 * "traps" (modelled as a counted event, since the OS handler's only
 * job is to set the flag), after which stores proceed silently.
 */

#ifndef CHERIVOKE_MEM_PAGE_TABLE_HH
#define CHERIVOKE_MEM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "support/units.hh"

namespace cherivoke {
namespace mem {

/** Page protection bits. */
enum PageProt : uint8_t
{
    ProtRead  = 1u << 0,
    ProtWrite = 1u << 1,
    ProtExec  = 1u << 2,
};

/** A page-table entry. */
struct Pte
{
    uint8_t prot = 0;
    /** Set on the first tagged (capability) store to the page. */
    bool capDirty = false;
    /**
     * Capability-store inhibit (the CHERI-MIPS S bit, §3.4.2 fn 3):
     * tagged stores to this page fault. Used for shared/file pages.
     */
    bool capStoreInhibit = false;
};

/**
 * A two-level radix page table over the simulated 48-bit virtual
 * address space, shaped like PageDirectory: the 36-bit VPN splits
 * into a root index and an 18-bit leaf index, so each leaf spans
 * 1 GiB. A lookup is two indexed loads — the capability-store and
 * sweep hot paths never walk a search tree. In-order enumeration
 * (capDirtyPages, mappedPages) walks the root in address order and
 * each leaf's presence bitmap, so sweeps stay deterministic.
 *
 * Leaves are zero-allocated (calloc) and never freed while the table
 * lives: a leaf's untouched PTE pages stay unbacked, and an unmapped
 * PTE is reset to its default so a later map() starts clean. The
 * root grows to the highest mapped leaf. Not thread-safe against
 * concurrent map/unmap; lookups and per-PTE flag updates on
 * disjoint pages may run concurrently (sweep workers).
 */
class PageTable
{
  public:
    static constexpr unsigned kVaBits = 48;
    static constexpr unsigned kLeafBits = 18;
    static constexpr size_t kLeafEntries = size_t{1} << kLeafBits;
    static constexpr uint64_t kMaxVpn = uint64_t{1}
                                        << (kVaBits - kPageShift);

    /** Map [base, base+size) with @p prot; both page-aligned.
     *  Re-mapping a mapped page updates its protection and keeps
     *  its CapDirty flag. */
    void map(uint64_t base, uint64_t size, uint8_t prot,
             bool cap_store_inhibit = false);

    /** Unmap [base, base+size); both page-aligned. */
    void unmap(uint64_t base, uint64_t size);

    /** PTE pointer, or nullptr if unmapped (or beyond the VA). */
    const Pte *
    lookup(uint64_t addr) const
    {
        const uint64_t vpn = addr >> kPageShift;
        const uint64_t ri = vpn >> kLeafBits;
        if (ri >= root_.size() || !root_[ri])
            return nullptr;
        const Leaf &leaf = *root_[ri];
        const size_t i = vpn & (kLeafEntries - 1);
        return leaf.present(i) ? &leaf.ptes[i] : nullptr;
    }
    Pte *
    lookup(uint64_t addr)
    {
        return const_cast<Pte *>(
            static_cast<const PageTable *>(this)->lookup(addr));
    }

    bool isMapped(uint64_t addr) const { return lookup(addr) != nullptr; }

    /** Number of mapped pages. */
    size_t pageCount() const { return pages_; }

    /**
     * Mark the page containing @p addr CapDirty.
     * @return true if this transition was a clean→dirty "trap".
     */
    bool setCapDirty(uint64_t addr);

    /** Clear CapDirty (a sweep found the page tag-free, §3.4.2). */
    void clearCapDirty(uint64_t addr);

    /**
     * The system API of §5.3: the page-aligned addresses of every
     * mapped page whose CapDirty flag is set, in address order.
     */
    std::vector<uint64_t> capDirtyPages() const;

    /** All mapped page base addresses, in address order. */
    std::vector<uint64_t> mappedPages() const;

    /** Count of CapDirty pages (fig. 8a numerator). */
    size_t capDirtyCount() const;

  private:
    /** One 1 GiB span: PTEs plus a presence bitmap. All-zero bytes
     *  are a valid empty leaf, so leaves come from calloc. */
    struct Leaf
    {
        std::array<uint64_t, kLeafEntries / 64> presentBits;
        std::array<Pte, kLeafEntries> ptes;

        bool
        present(size_t i) const
        {
            return (presentBits[i >> 6] >> (i & 63)) & 1;
        }
    };
    struct LeafFree
    {
        void operator()(Leaf *leaf) const { std::free(leaf); }
    };

    /** Visit every mapped (vpn, pte) in address order. */
    template <typename Fn> void forEachMapped(Fn &&fn) const;

    std::vector<std::unique_ptr<Leaf, LeafFree>> root_;
    size_t pages_ = 0;
};

} // namespace mem
} // namespace cherivoke

#endif // CHERIVOKE_MEM_PAGE_TABLE_HH
