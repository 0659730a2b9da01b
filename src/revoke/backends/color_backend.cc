#include "revoke/backends/color_backend.hh"

#include <algorithm>

#include "cap/capability.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace revoke {

ColorBackend::ColorBackend(const BackendConfig &config)
    : SweepBackend(config),
      pool_colors_(std::clamp<unsigned>(config.colors, 1,
                                        cap::kMaxColors - 1)),
      table_(pool_colors_ + 1)
{
    for (unsigned c = 1; c <= pool_colors_; ++c)
        free_colors_.push_back(static_cast<uint8_t>(c));
}

unsigned
ColorBackend::recycleThreshold() const
{
    return std::max<unsigned>(
        1, static_cast<unsigned>(static_cast<double>(pool_colors_) *
                                 config_.recycleFraction));
}

cap::Capability
ColorBackend::onAlloc(const cap::Capability &capability)
{
    if (open_color_ == 0) {
        if (!free_colors_.empty()) {
            open_color_ = free_colors_.front();
            free_colors_.pop_front();
            ColorEntry &e = table_[open_color_];
            e.state = ColorState::Open;
            e.allocs = 0;
        } else {
            // Pool exhausted: deterministically share the
            // lowest-numbered color that still has (or may grow) live
            // allocations. The hardware analogue is the allocator
            // stalling on the recycler; the model counts the stall
            // and widens a cohort instead.
            ++stats_.colorExhaustionStalls;
            ++stats_.colorForcedShares;
            uint8_t share = 0;
            for (unsigned c = 1; c <= pool_colors_; ++c) {
                const ColorState s = table_[c].state;
                if (s == ColorState::Open || s == ColorState::Sealed) {
                    share = static_cast<uint8_t>(c);
                    break;
                }
            }
            if (share == 0) {
                // Every color retired and none recycled yet: reuse
                // the lowest retired color un-recycled (its stale
                // capabilities stay revocable by the pending scan).
                share = 1;
                CHERIVOKE_ASSERT(table_[share].state ==
                                 ColorState::Retired);
                --retired_;
            }
            open_color_ = share;
            table_[share].state = ColorState::Open;
        }
    }
    ColorEntry &e = table_[open_color_];
    ++e.allocs;
    ++e.liveAllocs;
    ++stats_.colorAssigns;
    const uint8_t color = open_color_;
    if (e.allocs >= config_.allocsPerColor) {
        e.state = ColorState::Sealed;
        open_color_ = 0;
    }
    return capability.withColor(color);
}

alloc::FreeRouting
ColorBackend::onFree(const cap::Capability &capability)
{
    const uint8_t color = capability.color();
    if (color != 0) {
        CHERIVOKE_ASSERT(color <= pool_colors_,
                         "(freed capability carries a color outside "
                         "the pool)");
        ColorEntry &e = table_[color];
        if (e.liveAllocs > 0)
            --e.liveAllocs;
        if (e.state == ColorState::Sealed && e.liveAllocs == 0) {
            e.state = ColorState::Retired;
            ++retired_;
            ++stats_.colorsRetired;
        }
    }
    // Reuse stays blocked until the color recycles: the chunk
    // quarantines and is released by the recycling scan's epoch.
    return alloc::FreeRouting::Quarantine;
}

bool
ColorBackend::needsRevocation() const
{
    if (retired_ >= recycleThreshold())
        return true;
    // Exhaustion with something to recycle: scan now rather than
    // forcing cohort shares.
    if (free_colors_.empty() && open_color_ == 0 && retired_ > 0)
        return true;
    // Safety valve: never let the quarantine outgrow the sweep
    // backend's budget even when cohorts refuse to die.
    return ctx_.allocator->needsSweep();
}

void
ColorBackend::finishEpoch(EpochStats &epoch)
{
    SweepBackend::finishEpoch(epoch);
    // The bounded recycling pass: one table entry per pool color,
    // bumping each retired color's generation and returning it to
    // the free pool in color order (deterministic FIFO refill).
    ++stats_.recycleScans;
    stats_.metadataBytes += pool_colors_ * config_.tableEntryBytes;
    for (unsigned c = 1; c <= pool_colors_; ++c) {
        ColorEntry &e = table_[c];
        if (e.state != ColorState::Retired)
            continue;
        ++e.generation;
        e.state = ColorState::Free;
        e.allocs = 0;
        free_colors_.push_back(static_cast<uint8_t>(c));
        ++stats_.colorsRecycled;
        --retired_;
    }
}

} // namespace revoke
} // namespace cherivoke
