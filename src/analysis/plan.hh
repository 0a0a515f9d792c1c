/**
 * @file
 * The compile-once design plan. A DSE sweep evaluates up to 75,000
 * bindings of the SAME graph, so everything that does not depend on
 * the binding is compiled exactly once here and shared read-only by
 * every per-point Inst overlay:
 *
 *  - hierarchy indexes: preorder controllers, per-memory accessor
 *    lists, transfer and on-chip memory lists, controller stages,
 *    parent links and a parents-before-children evaluation order;
 *  - typed node pointers (controller/counter/memory), so per-point
 *    code never pays a dynamic_cast;
 *  - the ASAP critical-path skeleton of every Pipe body (depth,
 *    slack delay bits, loop-carried recurrences) — only the
 *    initiation interval and reduce-tree depth remain per-binding;
 *  - concurrency candidates per tile transfer with pre-resolved
 *    rival sets, for the runtime contention model;
 *  - the template skeleton: one slot per TemplateInst the design
 *    expands to, with all binding-invariant fields pre-filled and a
 *    patch tag describing the handful of per-binding fields.
 *
 * Rule for future passes: binding-invariant work lives in the plan;
 * Inst only evaluates binding-dependent quantities (lanes, trips,
 * MetaPipe toggles, memory sizes, banks) into flat scratch vectors.
 */

#ifndef DHDL_ANALYSIS_PLAN_HH
#define DHDL_ANALYSIS_PLAN_HH

#include <vector>

#include "analysis/templates.hh"
#include "core/graph.hh"

namespace dhdl {

/** One loop-carried read-modify-write recurrence in a Pipe body. */
struct PlanRecurrence {
    /** Load-to-store feedback latency along the dependent path. */
    int64_t cycleLatency = 0;
    /**
     * The store address varies with the innermost counter dimension,
     * so the dependence distance is that dimension's trip count
     * (otherwise the same address recurs on the next iteration).
     */
    bool innerTripDistance = false;
};

/**
 * Binding-invariant ASAP schedule of one Pipe body (Section IV-B2).
 * analyzePipe() combines this with a binding: recurrence distances
 * and the reduce-tree depth are the only per-point quantities.
 */
struct PipeSkeleton {
    int64_t depth = 0;          //!< Critical path, sans reduce tree.
    double delayRegBits = 0.0;  //!< Slack-bits in register delays.
    double delayBramBits = 0.0; //!< Slack-bits in BRAM delays.
    std::vector<PlanRecurrence> recurrences;
    /** Innermost counter dimension (distance evaluation); may be
     *  null when the pipe has no counter. */
    const CtrDim* innerDim = nullptr;
    bool hasReduce = false;     //!< Pattern::Reduce pipe.
    int combineLatency = 0;     //!< Latency of the combine operator.
};

/** One concurrency ancestor a transfer may contend under. */
struct XferCandidate {
    NodeId anc = kNoNode;
    /** Parallel controller: contends regardless of the binding (an
     *  inactive MetaPipe does not). */
    bool isParallel = false;
    /** Transfers under `anc` other than this one, in transfer-list
     *  order. */
    std::vector<NodeId> rivals;
};

/** Binding-invariant facts about one TileLd/TileSt. */
struct XferInfo {
    int bits = 32;              //!< Off-chip element width.
    Sym par;                    //!< Transfer parallelization factor.
    const std::vector<Sym>* extent = nullptr; //!< Tile extent syms.
    /** Concurrency candidates, nearest enclosing first. */
    std::vector<XferCandidate> candidates;
};

/** Which per-binding fields a template slot needs patched. */
enum class SlotPatch : uint8_t {
    Prim,          //!< lanes
    LoadStore,     //!< lanes (+ banks of the accessed BRAM)
    Bram,          //!< lanes, elems, banks, doubleBuf
    Reg,           //!< lanes, doubleBuf
    Queue,         //!< lanes, depth/elems, doubleBuf
    Counter,       //!< lanes/vec of the owning controller (ref)
    Ctrl,          //!< lanes, vec
    CtrlSeqOrMeta, //!< Ctrl + tkind from the MetaPipe toggle
    Reduce,        //!< lanes, vec, accumulator elems (ref)
    DelayLine,     //!< lanes * par
    Tile,          //!< lanes, vec = par value, tileElems
};

/** Number of SlotPatch values (for dense per-patch tables). */
inline constexpr size_t kNumSlotPatches = size_t(SlotPatch::Tile) + 1;

/** One pre-compiled template instantiation slot. */
struct TemplateSlot {
    /** Invariant fields pre-filled; patched fields overwritten. */
    TemplateInst base;
    SlotPatch patch = SlotPatch::Prim;
    /** Patch-specific node: accessed BRAM (LoadStore), owning
     *  controller (Counter), accumulator (Reduce). */
    NodeId ref = kNoNode;
    Sym sym;                    //!< Queue depth / Tile par.
    const std::vector<Sym>* extent = nullptr; //!< Tile extent.
};

/** Binding-invariant compilation of one Graph. */
class DesignPlan
{
  public:
    explicit DesignPlan(const Graph& g);

    const Graph& graph() const { return *g_; }
    size_t numNodes() const { return parent_.size(); }

    /** All controller node ids, in hierarchical (preorder) order. */
    const std::vector<NodeId>& controllers() const { return ctrls_; }

    /** All TileLd/TileSt node ids, in node-id order. */
    const std::vector<NodeId>& transfers() const { return transfers_; }

    /** All on-chip memory node ids (BRAM/Reg/Queue). */
    const std::vector<NodeId>& onchipMems() const { return mems_; }

    /** All BRAM node ids (banking is inferred for these). */
    const std::vector<NodeId>& brams() const { return brams_; }

    /** Ld/St/TileLd/TileSt nodes accessing the given memory. */
    const std::vector<NodeId>&
    accessors(NodeId mem) const
    {
        return accessors_[checked(mem)];
    }

    /** Child controllers-or-transfers of a controller (its stages). */
    const std::vector<NodeId>&
    stagesOf(NodeId ctrl) const
    {
        return stages_[checked(ctrl)];
    }

    /** Node ids ordered parents-before-children (lane products). */
    const std::vector<NodeId>& bindOrder() const { return bindOrder_; }

    NodeId parent(NodeId n) const { return parent_[checked(n)]; }

    bool
    isController(NodeId n) const
    {
        return ctrlNode_[checked(n)] != nullptr;
    }

    bool isMem(NodeId n) const { return memNode_[checked(n)] != nullptr; }

    /** Typed controller access; null for non-controllers. */
    const ControllerNode*
    ctrlNode(NodeId n) const
    {
        return ctrlNode_[checked(n)];
    }

    /** Counter of a controller; null when counter-less. */
    const CounterNode*
    counterOf(NodeId ctrl) const
    {
        return ctrlCounter_[checked(ctrl)];
    }

    /** Typed memory access; null for non-memories. */
    const MemNode* memNode(NodeId n) const { return memNode_[checked(n)]; }

    /** Typed BRAM access; null for non-BRAM nodes. */
    const BramNode*
    bramNode(NodeId n) const
    {
        return bramNode_[checked(n)];
    }

    /** ASAP skeleton of a Pipe controller. */
    const PipeSkeleton&
    pipeSkeleton(NodeId pipe) const
    {
        int32_t i = pipeIdx_[checked(pipe)];
        invariant(i >= 0, "pipeSkeleton on a non-Pipe controller");
        return pipeSkeletons_[size_t(i)];
    }

    /** Transfer facts of a TileLd/TileSt node. */
    const XferInfo&
    xferInfo(NodeId xfer) const
    {
        int32_t i = xferIdx_[checked(xfer)];
        invariant(i >= 0, "xferInfo on a non-transfer node");
        return xferInfos_[size_t(i)];
    }

    /** Pre-compiled template slots, in expansion order. */
    const std::vector<TemplateSlot>& templateSlots() const
    {
        return slots_;
    }

  private:
    size_t
    checked(NodeId n) const
    {
        invariant(n >= 0 && size_t(n) < parent_.size(),
                  "node id out of range");
        return size_t(n);
    }

    void indexHierarchy();
    void buildBindOrder();
    void buildXferInfos();
    void buildTemplateSlots();

    const Graph* g_;
    std::vector<NodeId> ctrls_;
    std::vector<NodeId> transfers_;
    std::vector<NodeId> mems_;
    std::vector<NodeId> brams_;
    std::vector<NodeId> bindOrder_;
    std::vector<NodeId> parent_;
    std::vector<std::vector<NodeId>> accessors_;
    std::vector<std::vector<NodeId>> stages_;
    std::vector<const ControllerNode*> ctrlNode_;
    std::vector<const CounterNode*> ctrlCounter_;
    std::vector<const MemNode*> memNode_;
    std::vector<const BramNode*> bramNode_;
    std::vector<int32_t> pipeIdx_;
    std::vector<int32_t> xferIdx_;
    std::vector<PipeSkeleton> pipeSkeletons_;
    std::vector<XferInfo> xferInfos_;
    std::vector<TemplateSlot> slots_;
};

} // namespace dhdl

#endif // DHDL_ANALYSIS_PLAN_HH
