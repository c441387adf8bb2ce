#pragma once

// Path-scan reference for the per-packet lookup net::StaticRouting answers
// from its dense next-hop rows. Deliberately naive: the next hop is the
// node after `node` on the stored path, found by a linear scan, and a
// suspended or unknown flow has none.

#include <algorithm>
#include <climits>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "net/routing.h"

namespace ezflow::testutil {

/// The next hop of `node` for `flow_id` by scanning path(); kNoNextHop
/// for unknown or suspended flows, the destination and off-path nodes.
inline net::NodeId scan_next_hop(const net::StaticRouting& routing, int flow_id,
                                 net::NodeId node)
{
    const std::vector<int> ids = routing.flow_ids();
    if (!std::binary_search(ids.begin(), ids.end(), flow_id) || routing.is_suspended(flow_id))
        return net::StaticRouting::kNoNextHop;
    const std::vector<net::NodeId>& path = routing.path(flow_id);
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        if (path[i] == node) return path[i + 1];
    return net::StaticRouting::kNoNextHop;
}

/// Probes next_hop_or_none against scan_next_hop for every flow in
/// `flows` plus unknown and extreme flow ids, over node ids lo .. hi plus
/// -1, 0, INT_MIN and INT_MAX. Returns the first disagreement, or ""
/// when every probe agrees.
inline std::string routing_mismatch(const net::StaticRouting& routing, std::vector<int> flows,
                                    net::NodeId lo, net::NodeId hi)
{
    flows.insert(flows.end(), {-1, INT_MIN, INT_MAX, net::StaticRouting::kMaxFlowId + 1});
    std::vector<net::NodeId> nodes = {-1, 0, INT_MIN, INT_MAX};
    for (net::NodeId node = lo; node <= hi; ++node) nodes.push_back(node);
    for (const int flow : flows) {
        for (const net::NodeId node : nodes) {
            const net::NodeId expected = scan_next_hop(routing, flow, node);
            const net::NodeId actual = routing.next_hop_or_none(flow, node);
            if (expected != actual) {
                std::ostringstream out;
                out << "flow " << flow << " node " << node << ": table " << actual << ", scan "
                    << expected;
                return out.str();
            }
        }
    }
    return "";
}

}  // namespace ezflow::testutil
