#include "revoke/backends/objid_backend.hh"

#include "alloc/chunk.hh"
#include "alloc/dlmalloc.hh"

namespace cherivoke {
namespace revoke {

cap::Capability
ObjectIdBackend::onAlloc(const cap::Capability &capability)
{
    const uint64_t id = next_id_++;
    ++stats_.idsAssigned;
    ++live_;
    // Stamp the inline tag: the low 24 bits of the ID live in the
    // chunk header's spare size-word bits, where the modelled
    // hardware check reads them on every dereference.
    alloc::ChunkView view(ctx_.space->memory(),
                          alloc::DlAllocator::chunkOf(
                              capability.base()));
    view.setIdTag(static_cast<uint32_t>(id));
    return capability;
}

alloc::FreeRouting
ObjectIdBackend::onFree(const cap::Capability &capability)
{
    (void)capability;
    if (live_ > 0) {
        --live_;
        ++retired_;
        ++stats_.idsRetired;
    }
    // O(1) revocation: the ID is dead, so every stale reference now
    // fails its check — the memory is immediately reusable.
    return alloc::FreeRouting::ReleaseNow;
}

void
ObjectIdBackend::onPointerUse(uint64_t n)
{
    stats_.idChecks += n;
    // One header-word read per check.
    stats_.metadataBytes += n * 8;
}

bool
ObjectIdBackend::needsRevocation() const
{
    return retired_ >= config_.idCompactRetired;
}

void
ObjectIdBackend::beginEpoch(EpochStats &epoch, bool want_barrier)
{
    // No quarantine to freeze, no shadow map, no barrier: the epoch
    // is pure table maintenance.
    (void)epoch;
    (void)want_barrier;
    compacting_ = retired_;
}

size_t
ObjectIdBackend::step(EpochStats &epoch, size_t max_pages,
                      cache::Hierarchy *hierarchy)
{
    (void)max_pages;
    (void)hierarchy;
    if (compacting_ == 0)
        return 0;
    // Rewrite the table without the dead entries: read every entry
    // (live + retired), write back the survivors. All in one slice —
    // the table is tiny next to a page worklist.
    stats_.metadataBytes +=
        (live_ + compacting_) * config_.tableEntryBytes +
        live_ * config_.tableEntryBytes;
    stats_.idTableEntriesCompacted += compacting_;
    retired_ -= compacting_;
    compacting_ = 0;
    ++epoch.slices;
    return 0;
}

void
ObjectIdBackend::finishEpoch(EpochStats &epoch)
{
    (void)epoch;
    ++stats_.idCompactions;
    compacting_ = 0;
}

} // namespace revoke
} // namespace cherivoke
