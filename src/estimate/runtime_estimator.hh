/**
 * @file
 * Cycle-count estimation (Section IV-B1). Recursive over the
 * controller hierarchy:
 *
 *  - Pipe: critical-path depth (ASAP schedule) + one initiation per
 *    iteration (II = 1), with the reduce tree drain when applicable;
 *  - Sequential (and inactive MetaPipes): trip * sum of stage times;
 *  - active MetaPipe: (N-1) * max(stage) + sum(stage) — the paper's
 *    recursive formula;
 *  - Parallel: max over children;
 *  - TileLd/TileSt: command count and length against the achieved
 *    DRAM bandwidth, de-rated by burst efficiency for short rows and
 *    by contention from competing concurrent accessors.
 */

#ifndef DHDL_ESTIMATE_RUNTIME_ESTIMATOR_HH
#define DHDL_ESTIMATE_RUNTIME_ESTIMATOR_HH

#include "analysis/critical_path.hh"
#include "analysis/instance.hh"
#include "fpga/device.hh"

namespace dhdl::est {

/** Runtime estimate for one design instance. */
struct RuntimeEstimate {
    double cycles = 0;
    double seconds = 0;
};

/** Static runtime model over a DHDL design instance. */
class RuntimeEstimator
{
  public:
    explicit RuntimeEstimator(fpga::Device dev = fpga::Device::maia());

    /** Estimate total execution cycles of the design. */
    RuntimeEstimate estimate(const Inst& inst) const;

    /** Estimated cycles for one controller subtree (exposed for
     *  tests). */
    double ctrlCycles(const Inst& inst, NodeId ctrl) const;

    /** Estimated cycles for a single tile transfer. */
    double transferCycles(const Inst& inst, NodeId xfer) const;

    const fpga::Device& device() const { return dev_; }

  private:
    double stageCycles(const Inst& inst, NodeId stage) const;

    /**
     * Transfers that may be in flight concurrently with xfer: the
     * rival set of the binding's first active concurrency ancestor
     * (pre-resolved in the plan), or null when none applies.
     */
    const std::vector<NodeId>* competitors(const Inst& inst,
                                           NodeId xfer) const;

    /** Peak bytes/cycle the on-chip side of a transfer can sink. */
    double onchipBytesPerCycle(const Inst& inst, NodeId xfer) const;

    /** Total payload bytes a transfer moves per activation. */
    double transferBytes(const Inst& inst, NodeId xfer) const;

    fpga::Device dev_;
};

} // namespace dhdl::est

#endif // DHDL_ESTIMATE_RUNTIME_ESTIMATOR_HH
