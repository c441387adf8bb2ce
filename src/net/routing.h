#pragma once

#include <cstddef>
#include <vector>

#include "net/packet.h"

namespace ezflow::net {

/// Static per-flow source routing, the NOAH-equivalent the paper's
/// simulations use ("we set the routing to be static", Section 4.1; NOAH
/// agent, Section 5.1). Each flow is a fixed node path; a node's next hop
/// for a flow is the node after it on that path.
///
/// Every flow keeps a dense next-hop row indexed by node id, rewritten
/// whenever that flow is added, updated, suspended or resumed, so the
/// per-packet lookup is two bounds checks and an index. Nothing changes
/// on a lookup: concurrent readers are safe while nobody mutates.
class StaticRouting {
public:
    /// Flow ids a flow may be registered under: [0, kMaxFlowId].
    static constexpr int kMaxFlowId = 1 << 16;
    /// Node ids a path may use: [0, kMaxNodeId]. Together with
    /// kMaxFlowId it caps what one flow's row and the flow index cost.
    static constexpr NodeId kMaxNodeId = 1 << 20;
    /// next_hop_or_none's "no next hop": outside the node id domain.
    static constexpr NodeId kNoNextHop = -1;

    /// Register a flow's path (>= 2 distinct in-range nodes, no repeats).
    void add_flow(int flow_id, std::vector<NodeId> path);

    /// Replace an existing flow's path (same validation as add_flow) and
    /// clear any suspension — the route-repair entry point. Throws for
    /// unknown flows.
    void update_flow(int flow_id, std::vector<NodeId> path);

    /// Take a flow out of service: every node answers kNoNextHop until
    /// the flow is updated or resumed. The stored path is retained so
    /// setup-time consumers (src/dst queries) keep working. Idempotent.
    void suspend_flow(int flow_id);

    /// Put a suspended flow back in service on its stored path.
    void resume_flow(int flow_id);

    /// Whether the flow is currently suspended (false for unknown flows).
    bool is_suspended(int flow_id) const
    {
        const Flow* flow = find(flow_id);
        return flow != nullptr && flow->suspended;
    }

    /// Next hop of `node` for `flow_id`, or kNoNextHop when the flow is
    /// unknown or suspended or the node has no successor on its path.
    /// Any int is a valid probe: negatives wrap past the bounds checks.
    NodeId next_hop_or_none(int flow_id, NodeId node) const
    {
        if (static_cast<std::size_t>(flow_id) >= flows_.size()) return kNoNextHop;
        const std::vector<NodeId>& next = flows_[static_cast<std::size_t>(flow_id)].next;
        if (static_cast<std::size_t>(node) >= next.size()) return kNoNextHop;
        return next[static_cast<std::size_t>(node)];
    }

    /// The flow's path (throws std::invalid_argument for unknown flows).
    const std::vector<NodeId>& path(int flow_id) const;

    /// All registered flow ids, ascending.
    std::vector<int> flow_ids() const;

private:
    struct Flow {
        std::vector<NodeId> path;  ///< empty: no flow registered under this id
        /// Next hop by node id, sized to the path's largest id + 1;
        /// empty while suspended.
        std::vector<NodeId> next;
        bool suspended = false;
    };

    const Flow* find(int flow_id) const;
    Flow& existing(int flow_id, const char* caller);
    /// Rewrite the flow's row from its path and suspension.
    static void rebuild_row(Flow& flow);

    std::vector<Flow> flows_;  ///< indexed by flow id
};

}  // namespace ezflow::net
