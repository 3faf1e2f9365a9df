/**
 * @file
 * N cores over one shared L2, stepped deterministically.
 *
 * The system owns the shared cache and the cores; each core keeps its
 * private L1s, TLBs, branch predictor and decoder and routes L2-level
 * traffic through the shared port. Stepping follows one contract,
 * stated once and relied on everywhere (arbitration, checkpoints,
 * bit-identity tests):
 *
 *   the next core to execute an instruction is the runnable core
 *   with the minimal currentCycle(); ties break to the lowest
 *   core id.
 *
 * Because the schedule is a pure function of simulated state, a co-run
 * is bit-identical at any host --threads setting and across
 * checkpoint/resume.
 */

#ifndef MTPERF_MULTICORE_SYSTEM_H_
#define MTPERF_MULTICORE_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "multicore/shared_l2.h"
#include "uarch/core.h"

namespace mtperf::multicore {

/** N-core machine: private L1 hierarchies over one shared L2. */
class MulticoreSystem
{
  public:
    /** Build @p num_cores cores of @p config sharing config.l2. */
    explicit MulticoreSystem(const uarch::CoreConfig &config,
                             std::uint32_t num_cores);

    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }
    uarch::Core &core(std::uint32_t i) { return *cores_[i]; }
    const uarch::Core &core(std::uint32_t i) const { return *cores_[i]; }
    SharedL2 &sharedL2() { return sharedL2_; }
    const SharedL2 &sharedL2() const { return sharedL2_; }

    /**
     * The stepping contract: among cores with @p runnable[i] nonzero,
     * the index with the minimal currentCycle(), ties to the lowest
     * core id.
     * @pre at least one core is runnable.
     */
    std::uint32_t nextCore(std::span<const std::uint8_t> runnable) const;

    /**
     * Core @p i's counter file with this core's shared-L2 contention
     * events merged in (the core itself never sees them).
     */
    uarch::EventCounters counters(std::uint32_t i) const;

    /** Full reset of every core and the shared cache. */
    void reset();

  private:
    SharedL2 sharedL2_;
    std::vector<std::unique_ptr<uarch::Core>> cores_;
};

} // namespace mtperf::multicore

#endif // MTPERF_MULTICORE_SYSTEM_H_
