#include "cache/cache.hh"

#include <algorithm>
#include <numeric>

#include "support/bitops.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace cache {

Cache::Cache(const CacheGeometry &geom)
    : geom_(geom), ways_(geom.ways)
{
    CHERIVOKE_ASSERT(isPowerOf2(geom_.lineBytes));
    CHERIVOKE_ASSERT(geom_.ways > 0);
    CHERIVOKE_ASSERT(geom_.sizeBytes % (geom_.ways * geom_.lineBytes)
                         == 0,
                     "(cache size must divide into ways*line)");
    const uint64_t num_sets = geom_.numSets();
    CHERIVOKE_ASSERT(isPowerOf2(num_sets),
                     "(set count must be a power of two)");
    lineShift_ = log2Ceil(geom_.lineBytes);
    tagShift_ = lineShift_ + log2Ceil(num_sets);
    // The entry encoding spends one bit of the tag on the dirty flag.
    CHERIVOKE_ASSERT(tagShift_ > 0,
                     "(line size * set count must be at least 2)");
    setMask_ = num_sets - 1;
    lines_.assign(num_sets * ways_, 0);
    fill_.assign(num_sets, 0);
}

LineAccess
Cache::access(uint64_t line_addr, bool write)
{
    CHERIVOKE_ASSERT(isAligned(line_addr, geom_.lineBytes),
                     "(access must be line aligned)");
    const uint64_t set = setIndex(line_addr);
    uint64_t *const entries = &lines_[set * ways_];
    unsigned &fill = fill_[set];
    const uint64_t key = tagOf(line_addr) << 1;
    LineAccess result;

    for (unsigned i = 0; i < fill; ++i) {
        if ((entries[i] & ~uint64_t{1}) == key) {
            const uint64_t entry = entries[i] | write;
            std::copy_backward(entries, entries + i, entries + i + 1);
            entries[0] = entry;
            ++hits_;
            result.hit = true;
            return result;
        }
    }

    // Miss: a full set evicts its least recently used (last) entry.
    ++misses_;
    if (fill == ways_) {
        const uint64_t victim = entries[fill - 1];
        result.evictedValid = true;
        result.victimLine =
            ((victim >> 1) << tagShift_) | (set << lineShift_);
        if (victim & 1) {
            result.evictedDirty = true;
            ++writebacks_;
        }
    } else {
        ++fill;
    }
    std::copy_backward(entries, entries + fill - 1, entries + fill);
    entries[0] = key | write;
    return result;
}

bool
Cache::probe(uint64_t line_addr) const
{
    const uint64_t set = setIndex(line_addr);
    const uint64_t *const entries = &lines_[set * ways_];
    const uint64_t key = tagOf(line_addr) << 1;
    for (unsigned i = 0; i < fill_[set]; ++i) {
        if ((entries[i] & ~uint64_t{1}) == key)
            return true;
    }
    return false;
}

bool
Cache::invalidate(uint64_t line_addr)
{
    const uint64_t set = setIndex(line_addr);
    uint64_t *const entries = &lines_[set * ways_];
    unsigned &fill = fill_[set];
    const uint64_t key = tagOf(line_addr) << 1;
    for (unsigned i = 0; i < fill; ++i) {
        if ((entries[i] & ~uint64_t{1}) == key) {
            const bool was_dirty = entries[i] & 1;
            std::copy(entries + i + 1, entries + fill, entries + i);
            --fill;
            return was_dirty;
        }
    }
    return false;
}

void
Cache::reset()
{
    std::fill(fill_.begin(), fill_.end(), 0u);
    hits_ = misses_ = writebacks_ = 0;
}

uint64_t
Cache::validLines() const
{
    return std::accumulate(fill_.begin(), fill_.end(), uint64_t{0});
}

} // namespace cache
} // namespace cherivoke
