/**
 * @file
 * Host-time tracing for the benchmark: a span recorder that keeps
 * per-layer inclusive and self time in memory, and a revocation
 * policy wrapper that times the engine's policy calls.
 *
 * Every span is opened and closed from the benchmark's own files,
 * around calls into a layer's public functions; nothing here adds a
 * timer to the simulator. A layer's self time is its span minus the
 * spans nested inside it. Only the outermost span of a layer counts
 * towards its inclusive total, so a policy that re-enters the engine
 * is not counted twice.
 */

#ifndef CHERIVOKE_PERFBENCH_TIMING_HH
#define CHERIVOKE_PERFBENCH_TIMING_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "revoke/revocation_engine.hh"

namespace perfbench {

/** The layer boundaries the traced run records spans at. */
enum class Layer : unsigned
{
    Synth,   //!< workload::synthesize
    Codec,   //!< tenant::encodeTrace + decodeTrace
    Build,   //!< replay-host construction (engine or TenantManager)
    Replay,  //!< workload::TraceReplayer::step
    Finish,  //!< workload::TraceReplayer::finish
    Run,     //!< tenant::TenantManager::run
    Revoke,  //!< RevocationPolicy::pump / runEpoch
    Paint,   //!< RevocationEngine::beginEpoch (stop-the-world)
    Sweep,   //!< RevocationEngine::step (stop-the-world)
    Release, //!< RevocationEngine::finishEpoch (stop-the-world)
    Count,
};

constexpr size_t kLayers = static_cast<size_t>(Layer::Count);

using Clock = std::chrono::steady_clock;

inline int64_t
nanosSince(Clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
        .count();
}

/** In-memory span recorder (one per traced repetition). */
class Tracer
{
  public:
    void
    enter(Layer layer)
    {
        ++depth_[index(layer)];
        stack_.push_back(Frame{layer, Clock::now(), 0});
    }

    /** Close the innermost span. @return its duration in ns */
    int64_t
    exit()
    {
        const Frame frame = stack_.back();
        stack_.pop_back();
        const int64_t ns = nanosSince(frame.start);
        const size_t i = index(frame.layer);
        selfNs_[i] += ns - frame.childNs;
        ++calls_[i];
        if (--depth_[i] == 0)
            totalNs_[i] += ns;
        if (!stack_.empty())
            stack_.back().childNs += ns;
        return ns;
    }

    /** Outermost-span inclusive time of @p layer, in seconds. */
    double totalSec(Layer l) const { return 1e-9 * totalNs_[index(l)]; }
    /** Self time of @p layer (children subtracted), in seconds. */
    double selfSec(Layer l) const { return 1e-9 * selfNs_[index(l)]; }
    uint64_t calls(Layer l) const { return calls_[index(l)]; }

    /** @name Revocation pauses and the stop-the-world page count */
    /// @{
    /** Durations (ns) of policy calls that advanced an epoch. */
    std::vector<int64_t> pausesNs;
    /** Pages swept inside timed stop-the-world sweep spans. */
    uint64_t stwPagesSwept = 0;
    /// @}

  private:
    struct Frame
    {
        Layer layer;
        Clock::time_point start;
        int64_t childNs;
    };

    static size_t index(Layer l) { return static_cast<size_t>(l); }

    std::vector<Frame> stack_;
    std::array<unsigned, kLayers> depth_{};
    std::array<int64_t, kLayers> totalNs_{};
    std::array<int64_t, kLayers> selfNs_{};
    std::array<uint64_t, kLayers> calls_{};
};

/** RAII span; a null tracer records nothing (the untraced run). */
class Span
{
  public:
    Span(Tracer *tracer, Layer layer) : tracer_(tracer)
    {
        if (tracer_)
            tracer_->enter(layer);
    }
    ~Span()
    {
        if (tracer_)
            tracer_->exit();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
};

/**
 * Wraps a built-in policy (revoke::makePolicy) and times every call
 * the engine makes into it. Stop-the-world epochs are driven here
 * through the engine's public building blocks, exactly as the
 * built-in stop-the-world policy drives them, so paint, sweep and
 * release can be timed apart; every other policy is forwarded
 * unchanged. The wrapper must be transparent: a run with it installed
 * produces the same modelled statistics as one without.
 */
class TimingPolicy final : public cherivoke::revoke::RevocationPolicy
{
  public:
    TimingPolicy(std::unique_ptr<RevocationPolicy> inner, Tracer &tracer)
        : inner_(std::move(inner)), tracer_(&tracer),
          stw_(inner_->kind() ==
               cherivoke::revoke::PolicyKind::StopTheWorld)
    {}

    cherivoke::revoke::PolicyKind kind() const override
    {
        return inner_->kind();
    }
    const char *name() const override { return inner_->name(); }
    bool needsLoadBarrier() const override
    {
        return inner_->needsLoadBarrier();
    }

    bool
    pump(cherivoke::revoke::RevocationEngine &engine,
         cherivoke::cache::Hierarchy *hierarchy) override
    {
        const Progress before = progress(engine);
        tracer_->enter(Layer::Revoke);
        bool completed = false;
        if (!stw_) {
            completed = inner_->pump(engine, hierarchy);
        } else if (engine.quarantinePressure()) {
            stwEpoch(engine, hierarchy);
            completed = true;
        }
        notePause(tracer_->exit(), before, progress(engine));
        return completed;
    }

    cherivoke::revoke::EpochStats
    runEpoch(cherivoke::revoke::RevocationEngine &engine,
             cherivoke::cache::Hierarchy *hierarchy) override
    {
        const Progress before = progress(engine);
        tracer_->enter(Layer::Revoke);
        const cherivoke::revoke::EpochStats stats =
            stw_ ? stwEpoch(engine, hierarchy)
                 : inner_->runEpoch(engine, hierarchy);
        notePause(tracer_->exit(), before, progress(engine));
        return stats;
    }

    void
    onDomainRetired(cherivoke::revoke::RevocationEngine &engine,
                    size_t index) override
    {
        inner_->onDomainRetired(engine, index);
    }

  private:
    /** What a policy call can advance: an epoch opening or closing,
     *  or worklist pages consumed. */
    struct Progress
    {
        bool open;
        size_t remaining;
        uint64_t epochs;

        bool operator==(const Progress &) const = default;
    };

    static Progress
    progress(const cherivoke::revoke::RevocationEngine &engine)
    {
        return Progress{engine.epochOpen(), engine.pagesRemaining(),
                        engine.totals().epochs};
    }

    void
    notePause(int64_t ns, const Progress &before, const Progress &after)
    {
        if (!(before == after))
            tracer_->pausesNs.push_back(ns);
    }

    cherivoke::revoke::EpochStats
    stwEpoch(cherivoke::revoke::RevocationEngine &engine,
             cherivoke::cache::Hierarchy *hierarchy)
    {
        const uint64_t pages0 = engine.totals().sweep.pagesSwept;
        {
            Span s(tracer_, Layer::Paint);
            engine.beginEpoch();
        }
        {
            Span s(tracer_, Layer::Sweep);
            engine.step(SIZE_MAX, hierarchy);
        }
        {
            Span s(tracer_, Layer::Release);
            engine.finishEpoch();
        }
        tracer_->stwPagesSwept +=
            engine.totals().sweep.pagesSwept - pages0;
        return engine.lastEpoch();
    }

    std::unique_ptr<RevocationPolicy> inner_;
    Tracer *tracer_;
    bool stw_;
};

} // namespace perfbench

#endif // CHERIVOKE_PERFBENCH_TIMING_HH
