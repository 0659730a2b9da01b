#include "revoke/background_sweeper.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>

#include "alloc/shadow_map.hh"
#include "cap/capability.hh"
#include "mem/tagged_memory.hh"
#include "support/logging.hh"
#include "support/units.hh"

namespace cherivoke {
namespace revoke {

FrozenWorklist
buildFrozenWorklist(const mem::TaggedMemory &memory,
                    const std::vector<uint64_t> &pages)
{
    FrozenWorklist wl;
    wl.pages.reserve(pages.size());
    for (const uint64_t page_base : pages) {
        FrozenWorklist::PageEntry entry;
        entry.pageBase = page_base;
        entry.firstCap = static_cast<uint32_t>(wl.caps.size());
        if (const mem::Page *page = memory.pageIfPresent(page_base)) {
            for (unsigned w = 0; w < kGranulesPerPage / 64; ++w) {
                uint64_t word = page->tags[w];
                while (word) {
                    const unsigned bit = static_cast<unsigned>(
                        std::countr_zero(word));
                    word &= word - 1;
                    const uint64_t off =
                        (uint64_t{w} * 64 + bit) * kGranuleBytes;
                    FrozenWorklist::CapEntry cap;
                    std::memcpy(&cap.lo, page->data.data() + off, 8);
                    std::memcpy(&cap.hi,
                                page->data.data() + off + 8, 8);
                    wl.caps.push_back(cap);
                }
            }
        }
        entry.capCount = static_cast<uint32_t>(wl.caps.size()) -
                         entry.firstCap;
        wl.pages.push_back(entry);
    }
    return wl;
}

BackgroundSweeper::BackgroundSweeper()
{
    worker_ = std::thread([this] { workerMain(); });
    // Return only once the worker waits on job_cv_, so a watchdog
    // armed for the first dispatch never times the thread's start.
    std::unique_lock<std::mutex> lock(mutex_);
    progress_cv_.wait(lock, [this] { return worker_ready_; });
}

BackgroundSweeper::~BackgroundSweeper()
{
    cancel();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    job_cv_.notify_all();
    if (worker_.joinable())
        worker_.join();
}

void
BackgroundSweeper::dispatch(FrozenWorklist worklist,
                            const alloc::ShadowMap *shadow,
                            size_t pages_per_slice, Inject inject,
                            uint64_t slow_factor)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CHERIVOKE_ASSERT(state_ != State::Running &&
                         state_ != State::Stalled && !job_pending_,
                     "(background sweeper: dispatch over an "
                     "in-flight job)");
    worklist_ = std::move(worklist);
    shadow_ = shadow;
    pages_per_slice_ = pages_per_slice ? pages_per_slice : 1;
    inject_ = inject;
    slow_credits_ = inject == Inject::Slow ? slow_factor : 0;
    next_ = 0;
    logs_.clear();
    watermark_.store(0, std::memory_order_release);
    state_ = State::Running;
    job_pending_ = true;
    cancel_requested_ = false;
    job_cv_.notify_all();
}

void
BackgroundSweeper::nudge()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (state_ != State::Stalled || slow_credits_ == 0)
        return;
    if (--slow_credits_ > 0)
        return;
    // The last credit: wake the worker and wait for it to leave the
    // stalled state before returning, so the supervisor's next
    // rendezvous observes Running/Done deterministically rather than
    // racing the wakeup.
    job_cv_.notify_all();
    progress_cv_.wait(lock,
                      [this] { return state_ != State::Stalled; });
}

void
BackgroundSweeper::cancel()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (state_ != State::Running && state_ != State::Stalled)
        return;
    cancel_requested_ = true;
    job_cv_.notify_all();
    progress_cv_.wait(lock, [this] {
        return state_ != State::Running && state_ != State::Stalled;
    });
}

BackgroundSweeper::State
BackgroundSweeper::state() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_;
}

bool
BackgroundSweeper::waitProgress(uint64_t target_pages,
                                uint64_t timeout_ns)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(timeout_ns);
    while (true) {
        if (watermark_.load(std::memory_order_acquire) >=
            target_pages)
            return true;
        if (state_ != State::Running)
            return false;
        if (progress_cv_.wait_until(lock, deadline) ==
            std::cv_status::timeout) {
            return watermark_.load(std::memory_order_acquire) >=
                   target_pages;
        }
    }
}

void
BackgroundSweeper::workerMain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    worker_ready_ = true;
    progress_cv_.notify_all();
    while (true) {
        job_cv_.wait(lock,
                     [this] { return shutdown_ || job_pending_; });
        if (shutdown_)
            return;
        job_pending_ = false;

        if (inject_ == Inject::Crash) {
            // Modelled thread death: no slice, no heartbeat, the
            // supervisor sees a corpse at the next rendezvous.
            state_ = State::Crashed;
            progress_cv_.notify_all();
            continue;
        }
        if (inject_ == Inject::Stall || inject_ == Inject::Slow) {
            if (inject_ == Inject::Stall)
                slow_credits_ = ~uint64_t{0}; // nudges never help
            state_ = State::Stalled;
            progress_cv_.notify_all();
            job_cv_.wait(lock, [this] {
                return shutdown_ || cancel_requested_ ||
                       slow_credits_ == 0;
            });
            if (shutdown_)
                return;
            if (cancel_requested_) {
                state_ = State::Cancelled;
                cancel_requested_ = false;
                progress_cv_.notify_all();
                continue;
            }
            state_ = State::Running;
        }

        while (next_ < worklist_.pages.size() &&
               !cancel_requested_) {
            const size_t first = next_;
            const size_t end =
                std::min(first + pages_per_slice_,
                         worklist_.pages.size());
            lock.unlock();
            // Off the lock: the snapshot is immutable for the
            // job's lifetime and the shadow is frozen — the only
            // shared memory this touches is shadow bytes, via
            // lock-free pure reads, genuinely racing the
            // mutator's load-barrier probes.
            SliceLog log = sweepSlice(first, end);
            lock.lock();
            logs_.push_back(log);
            next_ = end;
            watermark_.store(end, std::memory_order_release);
            heartbeats_.fetch_add(1, std::memory_order_release);
            progress_cv_.notify_all();
        }

        // A fully-swept worklist is Done even if a cancel raced the
        // final slice (or an empty job): cancel pre-empts remaining
        // work, it doesn't un-finish completed work.
        if (next_ < worklist_.pages.size()) {
            state_ = State::Cancelled;
        } else {
            state_ = State::Done;
        }
        cancel_requested_ = false;
        progress_cv_.notify_all();
    }
}

BackgroundSweeper::SliceLog
BackgroundSweeper::sweepSlice(size_t first, size_t end) const
{
    SliceLog log;
    log.firstPage = first;
    log.pages = end - first;
    for (size_t p = first; p < end; ++p) {
        const FrozenWorklist::PageEntry &page = worklist_.pages[p];
        for (uint32_t i = 0; i < page.capCount; ++i) {
            const FrozenWorklist::CapEntry &cap =
                worklist_.caps[page.firstCap + i];
            const uint64_t base =
                cap::Capability::decodeBase(cap.lo, cap.hi);
            ++log.capsExamined;
            if (shadow_->isRevoked(base))
                ++log.capsRevoked;
        }
    }
    return log;
}

} // namespace revoke
} // namespace cherivoke
