#include "analysis/resources.hh"

#include <algorithm>

#include "analysis/plan.hh"

namespace dhdl {

const char*
templateKindName(TemplateKind k)
{
    switch (k) {
      case TemplateKind::PrimOp: return "PrimOp";
      case TemplateKind::LoadStore: return "LoadStore";
      case TemplateKind::BramInst: return "BramInst";
      case TemplateKind::RegInst: return "RegInst";
      case TemplateKind::QueueInst: return "QueueInst";
      case TemplateKind::CounterInst: return "CounterInst";
      case TemplateKind::PipeCtrl: return "PipeCtrl";
      case TemplateKind::SeqCtrl: return "SeqCtrl";
      case TemplateKind::ParCtrl: return "ParCtrl";
      case TemplateKind::MetaPipeCtrl: return "MetaPipeCtrl";
      case TemplateKind::TileTransfer: return "TileTransfer";
      case TemplateKind::ReduceTree: return "ReduceTree";
      case TemplateKind::DelayLine: return "DelayLine";
    }
    return "?";
}

int
opLatency(Op op, const DType& type)
{
    if (type.isFloat()) {
        switch (op) {
          case Op::Add:
          case Op::Sub:
            return 10;
          case Op::Mul:
            return 6;
          case Op::Div:
            return 28;
          case Op::Sqrt:
            return 28;
          case Op::Exp:
            return 17;
          case Op::Log:
            return 21;
          case Op::Min:
          case Op::Max:
            return 2;
          case Op::Lt:
          case Op::Le:
          case Op::Gt:
          case Op::Ge:
          case Op::Eq:
          case Op::Neq:
            return 2;
          case Op::ToFloat:
          case Op::ToFixed:
            return 6;
          case Op::Abs:
          case Op::Neg:
          case Op::Mux:
            return 1;
          case Op::Const:
          case Op::Iter:
            return 0;
          default:
            return 1;
        }
    }
    // Fixed point and bit types.
    switch (op) {
      case Op::Mul:
        return 2;
      case Op::Div:
      case Op::Mod:
        return 24;
      case Op::Sqrt:
        return 16;
      case Op::Exp:
      case Op::Log:
        return 20;
      case Op::Const:
      case Op::Iter:
        return 0;
      default:
        return 1;
    }
}

int
valueBits(const Graph& g, NodeId n)
{
    const Node& nd = g.node(n);
    switch (nd.kind()) {
      case NodeKind::Prim:
        return g.nodeAs<PrimNode>(n).type.bits();
      case NodeKind::Load:
        return g.nodeAs<LoadNode>(n).type.bits();
      default:
        return 32;
    }
}

void
patchTemplate(const TemplateSlot& s, const Inst& inst, TemplateInst& t)
{
    t = s.base;
    patchTemplateFields(s.patch, s, inst, t);
}

void
expandTemplates(const Inst& inst, std::vector<TemplateInst>& out)
{
    // The expansion order and every invariant field were compiled
    // into the plan's template slots; per point, copy each slot's
    // base and patch in the handful of binding-dependent fields.
    const auto& slots = inst.plan().templateSlots();
    out.resize(slots.size());
    for (size_t i = 0; i < slots.size(); ++i)
        patchTemplate(slots[i], inst, out[i]);
}

std::vector<TemplateInst>
expandTemplates(const Inst& inst)
{
    std::vector<TemplateInst> out;
    expandTemplates(inst, out);
    return out;
}

} // namespace dhdl
