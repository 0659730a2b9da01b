/**
 * @file
 * Canonical text of every modelled statistic a workload produces:
 * one `key=value` field per line, integers in decimal and doubles
 * with %.17g (which round-trips an IEEE double exactly), so two runs
 * agree bit for bit exactly when their texts are equal.
 *
 * The text has two sections. `model` holds what the simulator models
 * (engine totals, per-tenant driver results, backend statistics,
 * cache/DRAM traffic, resident pages); it is the same for a threaded
 * configuration and its serial twin. `host` holds what the threaded
 * front-ends count (the mutator-race fingerprint, background-sweeper
 * supervision), which depends on the thread configuration but is
 * still deterministic.
 */

#ifndef CHERIVOKE_PERFBENCH_FINGERPRINT_HH
#define CHERIVOKE_PERFBENCH_FINGERPRINT_HH

#include <cinttypes>
#include <cstdio>
#include <string>

#include "revoke/revocation_engine.hh"
#include "tenant/tenant_manager.hh"
#include "workload/driver.hh"

namespace perfbench {

class Fingerprint
{
  public:
    void
    u(const std::string &key, uint64_t value)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%" PRIu64, value);
        line(key, buf);
    }

    void
    d(const std::string &key, double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        line(key, buf);
    }

    void s(const std::string &key, const std::string &value)
    {
        line(key, value);
    }

    void
    totals(const std::string &p, const cherivoke::revoke::EngineTotals &t)
    {
        u(p + ".epochs", t.epochs);
        u(p + ".paint.bit", t.paint.bitOps);
        u(p + ".paint.byte", t.paint.byteOps);
        u(p + ".paint.word", t.paint.wordOps);
        u(p + ".paint.dword", t.paint.dwordOps);
        const cherivoke::revoke::SweepStats &s = t.sweep;
        u(p + ".sweep.pagesConsidered", s.pagesConsidered);
        u(p + ".sweep.pagesSwept", s.pagesSwept);
        u(p + ".sweep.pagesSkippedPte", s.pagesSkippedPte);
        u(p + ".sweep.pagesSkippedTier", s.pagesSkippedTier);
        u(p + ".sweep.pagesCleaned", s.pagesCleaned);
        u(p + ".sweep.linesSwept", s.linesSwept);
        u(p + ".sweep.linesSkippedTags", s.linesSkippedTags);
        u(p + ".sweep.capsExamined", s.capsExamined);
        u(p + ".sweep.capsRevoked", s.capsRevoked);
        u(p + ".sweep.regsExamined", s.regsExamined);
        u(p + ".sweep.regsRevoked", s.regsRevoked);
        d(p + ".sweep.kernelCycles", s.kernelCycles);
        u(p + ".internalFrees", t.internalFrees);
        u(p + ".bytesReleased", t.bytesReleased);
        u(p + ".slices", t.slices);
    }

    void
    driver(const std::string &p, const cherivoke::workload::DriverResult &r)
    {
        d(p + ".virtualSeconds", r.virtualSeconds);
        u(p + ".allocCalls", r.allocCalls);
        u(p + ".freeCalls", r.freeCalls);
        u(p + ".freedBytes", r.freedBytes);
        u(p + ".ptrStores", r.ptrStores);
        u(p + ".peakLiveBytes", r.peakLiveBytes);
        u(p + ".peakQuarantineBytes", r.peakQuarantineBytes);
        u(p + ".peakFootprintBytes", r.peakFootprintBytes);
        u(p + ".peakLiveAllocs", r.peakLiveAllocs);
        d(p + ".measuredFreeRateMiBps", r.measuredFreeRateMiBps);
        d(p + ".measuredFreesPerSec", r.measuredFreesPerSec);
        d(p + ".pageDensity", r.pageDensity);
        d(p + ".lineDensity", r.lineDensity);
        u(p + ".densitySamples", r.densitySamples);
        totals(p + ".revoker", r.revoker);
    }

    void
    backend(const std::string &p, const cherivoke::revoke::BackendStats &b)
    {
        u(p + ".colorAssigns", b.colorAssigns);
        u(p + ".colorsRetired", b.colorsRetired);
        u(p + ".colorsRecycled", b.colorsRecycled);
        u(p + ".recycleScans", b.recycleScans);
        u(p + ".colorExhaustionStalls", b.colorExhaustionStalls);
        u(p + ".colorForcedShares", b.colorForcedShares);
        u(p + ".idsAssigned", b.idsAssigned);
        u(p + ".idsRetired", b.idsRetired);
        u(p + ".idChecks", b.idChecks);
        u(p + ".idCompactions", b.idCompactions);
        u(p + ".idTableEntriesCompacted", b.idTableEntriesCompacted);
        u(p + ".metadataBytes", b.metadataBytes);
    }

    /** Model section of a multi-tenant run; @p backends is indexed
     *  like run.tenants. */
    void
    multiTenantModel(const cherivoke::tenant::MultiTenantResult &m,
                     const std::vector<cherivoke::revoke::BackendStats>
                         &backends)
    {
        totals("engine", m.engine);
        u("totalOps", m.totalOps);
        u("allocCalls", m.allocCalls);
        u("freeCalls", m.freeCalls);
        u("freedBytes", m.freedBytes);
        u("ptrStores", m.ptrStores);
        u("faultsContained", m.faultsContained);
        u("oomKills", m.oomKills);
        u("pressureEvents", m.pressureEvents);
        u("peakAggLiveAllocs", m.peakAggLiveAllocs);
        u("peakAggLiveBytes", m.peakAggLiveBytes);
        u("peakAggQuarantineBytes", m.peakAggQuarantineBytes);
        u("peakAggFootprintBytes", m.peakAggFootprintBytes);
        d("virtualSeconds", m.virtualSeconds);
        for (size_t i = 0; i < m.tenants.size(); ++i) {
            const cherivoke::tenant::TenantResult &t = m.tenants[i];
            const std::string p = "tenant" + std::to_string(i);
            s(p + ".name", t.name);
            u(p + ".slot", t.index);
            u(p + ".opsApplied", t.opsApplied);
            u(p + ".opsTotal", t.opsTotal);
            u(p + ".retiredMidRun", t.retiredMidRun);
            u(p + ".faulted", t.faulted);
            driver(p, t.run);
            backend(p + ".backend", backends.at(i));
        }
    }

    /** Host-threading section of a multi-tenant run. */
    void
    multiTenantHost(const cherivoke::tenant::MultiTenantResult &m)
    {
        u("mutator.localFrees", m.mutatorLocalFrees);
        u("mutator.remoteFrees", m.mutatorRemoteFrees);
        u("mutator.batches", m.mutatorBatches);
        u("mutator.epochBarriers", m.mutatorEpochBarriers);
        u("mutator.fingerprint", m.mutatorFingerprint);
        u("sweeper.dispatches", m.sweeperDispatches);
        u("sweeper.completions", m.sweeperCompletions);
        u("sweeper.stalls", m.sweeperStalls);
        u("sweeper.retries", m.sweeperRetries);
        u("sweeper.crashes", m.sweeperCrashes);
        u("sweeper.reassigns", m.sweeperReassigns);
        u("sweeper.stwCatchups", m.sweeperStwCatchups);
        u("sweeper.containments", m.sweeperContainments);
        for (size_t i = 0; i < m.sweeperEvents.size(); ++i)
            s("sweeper.event" + std::to_string(i),
              cherivoke::revoke::sweeperEventLine(m.sweeperEvents[i]));
    }

    const std::string &text() const { return text_; }

  private:
    void
    line(const std::string &key, const std::string &value)
    {
        text_ += key;
        text_ += '=';
        text_ += value;
        text_ += '\n';
    }

    std::string text_;
};

} // namespace perfbench

#endif // CHERIVOKE_PERFBENCH_FINGERPRINT_HH
