/**
 * @file
 * Raw resource accounting. A design instance is expanded into a list
 * of TemplateInst records — one per instantiated architectural
 * template, with the concrete parameters that determine its cost
 * (bit width, vector width, replication, memory geometry, stage
 * count). Both the area estimator (fitted models, Section IV-B) and
 * the synthetic vendor toolchain (hidden silicon tables) consume this
 * expansion, so the two never share cost coefficients — only the
 * structural walk.
 */

#ifndef DHDL_ANALYSIS_RESOURCES_HH
#define DHDL_ANALYSIS_RESOURCES_HH

#include <vector>

#include "analysis/instance.hh"
#include "analysis/templates.hh"

namespace dhdl {

/**
 * FPGA resource bundle. LUTs are split into packable and unpackable
 * populations to support the LUT-packing model (Section IV-B: "we
 * split template LUT resource requirements into the number of
 * 'packable' and 'unpackable' LUTs required").
 */
struct Resources {
    double lutsPack = 0.0;
    double lutsNoPack = 0.0;
    double regs = 0.0;
    double dsps = 0.0;
    double brams = 0.0;

    double totalLuts() const { return lutsPack + lutsNoPack; }

    Resources&
    operator+=(const Resources& o)
    {
        lutsPack += o.lutsPack;
        lutsNoPack += o.lutsNoPack;
        regs += o.regs;
        dsps += o.dsps;
        brams += o.brams;
        return *this;
    }

    Resources
    operator*(double k) const
    {
        return {lutsPack * k, lutsNoPack * k, regs * k, dsps * k,
                brams * k};
    }

    Resources
    operator+(const Resources& o) const
    {
        Resources r = *this;
        r += o;
        return r;
    }
};

/**
 * Expand a design instance into its template instantiation list.
 * Includes the DelayLine instances implied by ASAP-schedule slack
 * matching inside every Pipe (Section IV-B2). The expansion walks the
 * plan's pre-compiled template slots and patches only the
 * binding-dependent fields (TemplateKind and TemplateInst live in
 * analysis/templates.hh).
 */
std::vector<TemplateInst> expandTemplates(const Inst& inst);

/**
 * Scratch-reusing variant for evaluate-many sweeps: clears `out` and
 * refills it without releasing its capacity.
 */
void expandTemplates(const Inst& inst, std::vector<TemplateInst>& out);

/**
 * Patch one pre-compiled template slot against a binding: copy the
 * slot's invariant base and overwrite only the binding-dependent
 * fields. expandTemplates() is this applied to every slot in order.
 */
void patchTemplate(const TemplateSlot& s, const Inst& inst,
                   TemplateInst& t);

/**
 * patchTemplate() minus the base copy, for patch kind `p` (s.patch):
 * `t` must already hold s.base or an earlier patch of the same slot,
 * since every call rewrites the same fields. The batched estimator
 * copies a slot's base once and patches it per point across the
 * whole batch, passing `p` as a compile-time constant so the switch
 * folds away; both paths share one patch rule.
 */
inline void
patchTemplateFields(SlotPatch p, const TemplateSlot& s,
                    const Inst& inst, TemplateInst& t)
{
    const NodeId id = t.node;
    switch (p) {
      case SlotPatch::Prim:
        t.lanes = inst.lanes(id);
        break;
      case SlotPatch::LoadStore:
        t.lanes = inst.lanes(id);
        if (s.ref != kNoNode)
            t.banks = inst.banks(s.ref);
        break;
      case SlotPatch::Bram:
        t.lanes = inst.lanes(id);
        t.elems = inst.memElems(id);
        t.banks = inst.banks(id);
        t.doubleBuf = inst.doubleBuffered(id);
        break;
      case SlotPatch::Reg:
        t.lanes = inst.lanes(id);
        t.doubleBuf = inst.doubleBuffered(id);
        break;
      case SlotPatch::Queue:
        t.lanes = inst.lanes(id);
        t.depth = inst.val(s.sym);
        t.elems = t.depth;
        t.doubleBuf = inst.doubleBuffered(id);
        break;
      case SlotPatch::Counter:
        // The counter's vector width equals the parallelization of
        // its controller; it is replicated once per controller copy.
        t.lanes = s.ref != kNoNode ? inst.lanes(s.ref) : 1;
        t.vec = s.ref != kNoNode ? inst.par(s.ref) : 1;
        break;
      case SlotPatch::Ctrl:
        t.lanes = inst.lanes(id);
        t.vec = inst.par(id);
        break;
      case SlotPatch::CtrlSeqOrMeta:
        t.tkind = inst.metaActive(id) ? TemplateKind::MetaPipeCtrl
                                      : TemplateKind::SeqCtrl;
        t.lanes = inst.lanes(id);
        t.vec = inst.par(id);
        break;
      case SlotPatch::Reduce:
        t.lanes = inst.lanes(id);
        t.vec = inst.par(id);
        t.elems = inst.memElems(s.ref);
        break;
      case SlotPatch::DelayLine:
        t.lanes = inst.lanes(id) * inst.par(id);
        break;
      case SlotPatch::Tile: {
        t.lanes = inst.lanes(id);
        t.vec = inst.val(s.sym);
        int64_t e = 1;
        for (const Sym& x : *s.extent)
            e *= inst.val(x);
        t.tileElems = e;
        break;
      }
    }
}

/**
 * Pipeline latency, in cycles, of one primitive operation at the
 * 150 MHz fabric clock used throughout the paper's evaluation.
 */
int opLatency(Op op, const DType& type);

/** Value width in bits of the node producing a value. */
int valueBits(const Graph& g, NodeId n);

} // namespace dhdl

#endif // DHDL_ANALYSIS_RESOURCES_HH
