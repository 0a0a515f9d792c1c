#include "estimate/runtime_estimator.hh"

#include <algorithm>
#include <cmath>

#include "analysis/resources.hh"

namespace dhdl::est {

namespace {

/** Fixed controller synchronization overhead per stage, cycles. */
constexpr double kStageOverhead = 4.0;

} // namespace

RuntimeEstimator::RuntimeEstimator(fpga::Device dev)
    : dev_(std::move(dev))
{
}

double
RuntimeEstimator::transferBytes(const Inst& inst, NodeId xfer) const
{
    const XferInfo& x = inst.plan().xferInfo(xfer);
    int64_t elems = 1;
    for (const auto& e : *x.extent)
        elems *= inst.val(e);
    return double(elems) * x.bits / 8.0;
}

const std::vector<NodeId>*
RuntimeEstimator::competitors(const Inst& inst, NodeId xfer) const
{
    // Competing accessors: transfers below the nearest enclosing
    // container that executes its contents concurrently (a Parallel,
    // or an active MetaPipe whose stages overlap in steady state).
    // The candidate ancestors and their rival sets were compiled into
    // the plan; only the MetaPipe toggle is checked per binding.
    for (const XferCandidate& c : inst.plan().xferInfo(xfer).candidates) {
        if (c.isParallel || inst.metaActive(c.anc))
            return &c.rivals;
    }
    return nullptr;
}

double
RuntimeEstimator::onchipBytesPerCycle(const Inst& inst,
                                      NodeId xfer) const
{
    const XferInfo& x = inst.plan().xferInfo(xfer);
    return double(std::max<int64_t>(1, inst.val(x.par))) * x.bits /
           8.0;
}

double
RuntimeEstimator::transferCycles(const Inst& inst, NodeId xfer) const
{
    const XferInfo& x = inst.plan().xferInfo(xfer);
    int bits = x.bits;
    int64_t elems = 1;
    for (const auto& e : *x.extent)
        elems *= inst.val(e);
    int64_t inner = inst.val(x.extent->back());
    int64_t par = std::max<int64_t>(1, inst.val(x.par));

    double bytes = double(elems) * bits / 8.0;
    double row_bytes = double(inner) * bits / 8.0;
    if (elems == inner)
        row_bytes = bytes; // one contiguous run

    // Command model: each contiguous row run is a burst-quantized
    // command with a fixed activation overhead ("the number and
    // length of memory commands", Section IV-B).
    constexpr double kRowOverheadCycles = 6.0;
    double peak = dev_.bytesPerCycle();
    double bursts_per_row =
        std::ceil(row_bytes / double(dev_.burstBytes));
    double row_cycles =
        bursts_per_row * double(dev_.burstBytes) / peak +
        kRowOverheadCycles;
    double row_rate = row_bytes / row_cycles;

    // Demand-aware contention: competing streams (including the
    // lanes-replicated copies of each transfer) consume only what
    // their on-chip side can sink, capped at an equal share; this
    // stream gets the remainder (at least an equal split).
    static const std::vector<NodeId> kNoRivals;
    const auto* rivals_p = competitors(inst, xfer);
    const std::vector<NodeId>& rivals = rivals_p ? *rivals_p
                                                 : kNoRivals;
    double self_copies =
        double(std::max<int64_t>(1, inst.lanes(xfer)));
    double n = self_copies;
    for (NodeId r : rivals)
        n += double(std::max<int64_t>(1, inst.lanes(r)));
    // A rival that moves far fewer bytes than this stream finishes
    // early and releases its share; weight its demand by the overlap
    // fraction (the static analogue of max-min fluid sharing).
    double rival_demand = 0;
    for (NodeId r : rivals) {
        double overlap =
            std::min(1.0, transferBytes(inst, r) / std::max(1.0,
                                                            bytes));
        rival_demand += double(std::max<int64_t>(1, inst.lanes(r))) *
                        std::min(onchipBytesPerCycle(inst, r),
                                 peak / n) *
                        overlap;
    }
    double onchip_self = double(par) * bits / 8.0;
    rival_demand +=
        (self_copies - 1.0) * std::min(onchip_self, peak / n);
    double share = std::max(peak / n, peak - rival_demand);

    // On-chip side can also throttle the stream: par elements/cycle.
    double effective = std::min({row_rate, share, onchip_self});
    return double(dev_.dramLatency) + bytes / std::max(1e-9, effective);
}

double
RuntimeEstimator::stageCycles(const Inst& inst, NodeId stage) const
{
    const Graph& g = inst.graph();
    if (g.node(stage).isTileTransfer())
        return transferCycles(inst, stage);
    return ctrlCycles(inst, stage);
}

double
RuntimeEstimator::ctrlCycles(const Inst& inst, NodeId ctrl) const
{
    const ControllerNode* cp = inst.plan().ctrlNode(ctrl);
    if (!cp)
        panic("ctrlCycles on non-controller");
    const auto& c = *cp;
    int64_t trip = inst.trip(ctrl);
    int64_t par = inst.par(ctrl);
    double iters = std::ceil(double(trip) / double(par));

    switch (c.kind()) {
      case NodeKind::Pipe: {
        PipeTiming t = analyzePipe(inst, ctrl);
        return double(t.depth) + iters * double(t.ii) +
               kStageOverhead;
      }
      case NodeKind::ParallelCtrl: {
        double worst = 0;
        for (NodeId s : inst.stagesOf(ctrl))
            worst = std::max(worst, stageCycles(inst, s));
        return worst + kStageOverhead;
      }
      case NodeKind::Sequential:
      case NodeKind::MetaPipe: {
        // Accumulate sum/worst incrementally (same order as a stage
        // list would be summed) instead of materializing a vector.
        double sum = 0, worst = 0;
        size_t nstages = 0;
        for (NodeId s : inst.stagesOf(ctrl)) {
            double t = stageCycles(inst, s);
            sum += t;
            worst = std::max(worst, t);
            ++nstages;
        }

        // Tile reduction of a Reduce MetaPipe is an implicit extra
        // stage combining the body result into the accumulator.
        if (c.pattern == Pattern::Reduce && c.accum != kNoNode) {
            const auto& acc = *inst.plan().memNode(c.accum);
            double elems = double(inst.memElems(c.accum));
            double lat = opLatency(c.combine, acc.type);
            double t = elems / double(par) + lat + kStageOverhead;
            sum += t;
            worst = std::max(worst, t);
            ++nstages;
        }
        if (nstages == 0)
            return kStageOverhead;

        bool overlapped = c.kind() == NodeKind::MetaPipe &&
                          inst.metaActive(ctrl) && nstages > 1;
        if (overlapped) {
            // (N-1) * max(stage) + sum(stage)  [Section IV-B]
            return (iters - 1.0) * worst + sum +
                   kStageOverhead * double(nstages);
        }
        return iters * (sum + kStageOverhead * double(nstages));
      }
      default:
        panic("ctrlCycles on non-controller");
    }
}

RuntimeEstimate
RuntimeEstimator::estimate(const Inst& inst) const
{
    require(inst.graph().root != kNoNode, "design has no accel body");
    RuntimeEstimate e;
    e.cycles = ctrlCycles(inst, inst.graph().root);
    e.seconds = e.cycles / (dev_.fabricMHz * 1e6);
    return e;
}

} // namespace dhdl::est
