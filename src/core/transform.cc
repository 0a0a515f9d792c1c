#include "core/transform.hh"

#include <algorithm>

namespace dhdl {

GraphStats
computeStats(const Graph& g)
{
    GraphStats s;
    s.params = int(g.params().size());
    s.offchipMems = int(g.offchipMems.size());
    for (NodeId id = 0; id < NodeId(g.numNodes()); ++id) {
        const Node& n = g.node(id);
        if (n.isController()) {
            ++s.controllers;
            if (n.kind() == NodeKind::Pipe)
                ++s.pipes;
            if (n.kind() == NodeKind::MetaPipe)
                ++s.metaPipes;
            // Nesting depth via parent chain.
            int depth = 1;
            NodeId p = n.parent;
            while (p != kNoNode) {
                ++depth;
                p = g.node(p).parent;
            }
            s.maxDepth = std::max(s.maxDepth, depth);
        } else if (n.isMemory()) {
            if (n.kind() != NodeKind::OffChipMem)
                ++s.memories;
        } else if (n.isTileTransfer()) {
            ++s.transfers;
        } else if (n.isPrimitive()) {
            ++s.primitives;
        }
    }
    return s;
}

} // namespace dhdl
