/**
 * @file
 * Named counter groups in the spirit of gem5's stats package, scaled
 * down to what the CHERIvoke experiments need: scalar counters that
 * modules bump during simulation and that benches read out by name.
 */

#ifndef CHERIVOKE_STATS_COUNTERS_HH
#define CHERIVOKE_STATS_COUNTERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cherivoke {
namespace stats {

/** A single named 64-bit counter. */
class Counter
{
  public:
    Counter() = default;

    void increment(uint64_t by = 1) { value_ += by; }
    void set(uint64_t v) { value_ = v; }
    void reset() { value_ = 0; }
    uint64_t value() const { return value_; }

    Counter &operator+=(uint64_t by) { value_ += by; return *this; }
    Counter &operator++() { ++value_; return *this; }

  private:
    uint64_t value_ = 0;
};

/**
 * An ordered collection of counters addressed by dotted names
 * ("dram.read_bytes"). Creation is lazy; iteration order is
 * insertion order so reports are stable.
 */
class CounterGroup
{
  public:
    /** Get (creating if absent) the counter with this name. */
    Counter &counter(const std::string &name);

    /** Read a counter's value; 0 if it was never created. */
    uint64_t value(const std::string &name) const;

    /** True if the named counter exists. */
    bool has(const std::string &name) const;

    /** Reset every counter to zero (counters stay registered). */
    void resetAll();

    /** Names in insertion order. */
    const std::vector<std::string> &names() const { return order_; }

    /** Render "name value" lines, one per counter. */
    std::string report() const;

  private:
    std::map<std::string, Counter> counters_;
    std::vector<std::string> order_;
};

/**
 * A hot-path handle on one named counter: resolved in its group on
 * first use, then bumped through a cached pointer, so a per-op site
 * pays no string construction or map lookup. Resolving lazily (not
 * in the owner's constructor) keeps the counter's position in
 * CounterGroup::names() exactly where a plain counter(name) call at
 * the same site would have put it. Counter addresses are stable
 * (map nodes), so the cached pointer never dangles.
 */
class LazyCounter
{
  public:
    explicit LazyCounter(const char *name) : name_(name) {}

    Counter &
    in(CounterGroup &group)
    {
        if (!counter_)
            counter_ = &group.counter(name_);
        return *counter_;
    }

  private:
    const char *name_;
    Counter *counter_ = nullptr;
};

} // namespace stats
} // namespace cherivoke

#endif // CHERIVOKE_STATS_COUNTERS_HH
