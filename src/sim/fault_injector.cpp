#include "sim/fault_injector.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

namespace ezflow::sim {

FaultInjector::FaultInjector(net::Network& network, net::FaultPlan plan)
    : network_(network), plan_(std::move(plan))
{
    if (network.shard_count() > 1)
        throw std::invalid_argument(
            "FaultInjector: requires a single-shard network (route repair mutates the shared "
            "routing table, which must not race shard threads)");
}

void FaultInjector::arm()
{
    if (armed_) throw std::logic_error("FaultInjector::arm: already armed");
    armed_ = true;

    // Snapshot the delivery-range graph and every flow's original path —
    // the repair graph and the restoration targets.
    const int n = network_.node_count();
    topo_.positions.reserve(static_cast<std::size_t>(n));
    for (net::NodeId id = 0; id < n; ++id) topo_.positions.push_back(network_.node(id).phy().position());
    topo_.link_range_m = network_.config().phy.tx_range_m;
    net::rebuild_links(topo_);
    node_admin_up_.assign(static_cast<std::size_t>(n), 1);
    for (int flow : network_.routing().flow_ids()) original_path_[flow] = network_.routing().path(flow);

    for (const net::FaultEvent& event : plan_.sorted()) {
        if (event.kind == net::FaultKind::kNodeDown || event.kind == net::FaultKind::kNodeUp) {
            if (event.node < 0 || event.node >= n)
                throw std::invalid_argument("FaultInjector: plan names an unknown node");
        } else {
            if (event.a < 0 || event.a >= n || event.b < 0 || event.b >= n || event.a == event.b)
                throw std::invalid_argument("FaultInjector: plan names a bad link");
        }
        network_.scheduler().schedule_at(event.at, [this, event] { apply(event); });
    }
}

bool FaultInjector::link_is_up(net::NodeId a, net::NodeId b) const
{
    return links_admin_down_.count(link_key(a, b)) == 0;
}

void FaultInjector::apply(const net::FaultEvent& event)
{
    switch (event.kind) {
    case net::FaultKind::kNodeDown:
        if (!node_admin_up_[static_cast<std::size_t>(event.node)]) return;
        node_admin_up_[static_cast<std::size_t>(event.node)] = 0;
        network_.set_node_down(event.node);
        ++stats_.node_downs;
        repair_after_element_down();
        return;
    case net::FaultKind::kNodeUp:
        if (node_admin_up_[static_cast<std::size_t>(event.node)]) return;
        node_admin_up_[static_cast<std::size_t>(event.node)] = 1;
        network_.set_node_up(event.node);
        ++stats_.node_ups;
        reconsider_after_element_up();
        return;
    case net::FaultKind::kLinkDown:
        if (!links_admin_down_.insert(link_key(event.a, event.b)).second) return;
        ++stats_.link_downs;
        repair_after_element_down();
        return;
    case net::FaultKind::kLinkUp:
        if (links_admin_down_.erase(link_key(event.a, event.b)) == 0) return;
        ++stats_.link_ups;
        reconsider_after_element_up();
        return;
    }
}

bool FaultInjector::path_is_live(const std::vector<net::NodeId>& path) const
{
    for (net::NodeId node : path)
        if (!node_admin_up_[static_cast<std::size_t>(node)]) return false;
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        if (links_admin_down_.count(link_key(path[i], path[i + 1])) != 0) return false;
    return true;
}

std::vector<net::NodeId> FaultInjector::live_path(net::NodeId src, net::NodeId dst)
{
    ++stats_.repair_bfs_runs;
    // Same structure as net::shortest_path — BFS of hop distances from the
    // destination, then walk downhill taking the smallest-id neighbour —
    // restricted to live nodes and in-service links, so repaired routes
    // tie-break exactly like the planners' originals.
    const auto n = static_cast<std::size_t>(topo_.node_count());
    std::vector<int> dist(n, -1);
    std::deque<net::NodeId> frontier;
    dist[static_cast<std::size_t>(dst)] = 0;
    frontier.push_back(dst);
    while (!frontier.empty()) {
        const net::NodeId at = frontier.front();
        frontier.pop_front();
        for (net::NodeId next : topo_.neighbours[static_cast<std::size_t>(at)]) {
            if (!node_admin_up_[static_cast<std::size_t>(next)]) continue;
            if (links_admin_down_.count(link_key(at, next)) != 0) continue;
            if (dist[static_cast<std::size_t>(next)] >= 0) continue;
            dist[static_cast<std::size_t>(next)] = dist[static_cast<std::size_t>(at)] + 1;
            frontier.push_back(next);
        }
    }
    if (dist[static_cast<std::size_t>(src)] < 0) return {};

    std::vector<net::NodeId> path;
    path.push_back(src);
    net::NodeId at = src;
    while (at != dst) {
        const int d = dist[static_cast<std::size_t>(at)];
        for (net::NodeId next : topo_.neighbours[static_cast<std::size_t>(at)]) {
            if (!node_admin_up_[static_cast<std::size_t>(next)]) continue;
            if (links_admin_down_.count(link_key(at, next)) != 0) continue;
            if (dist[static_cast<std::size_t>(next)] == d - 1) {
                path.push_back(next);
                at = next;
                break;
            }
        }
    }
    return path;
}

void FaultInjector::repair_after_element_down()
{
    net::StaticRouting& routing = network_.routing();
    for (const auto& [flow, original] : original_path_) {
        if (routing.is_suspended(flow)) continue;  // already out of service
        const std::vector<net::NodeId>& current = routing.path(flow);
        if (path_is_live(current)) continue;  // untouched by the fault
        detoured_.insert(flow);
        const net::NodeId src = original.front();
        const net::NodeId dst = original.back();
        if (!node_admin_up_[static_cast<std::size_t>(src)] ||
            !node_admin_up_[static_cast<std::size_t>(dst)]) {
            routing.suspend_flow(flow);
            ++stats_.flows_suspended;
            continue;
        }
        std::vector<net::NodeId> detour = live_path(src, dst);
        if (detour.empty()) {
            routing.suspend_flow(flow);
            ++stats_.flows_suspended;
        } else {
            routing.update_flow(flow, std::move(detour));
            ++stats_.flows_rerouted;
        }
    }
}

void FaultInjector::reconsider_after_element_up()
{
    net::StaticRouting& routing = network_.routing();
    // Only flows off their original path can profit from a revival.
    const std::vector<int> candidates(detoured_.begin(), detoured_.end());
    for (int flow : candidates) {
        const std::vector<net::NodeId>& original = original_path_.at(flow);
        const bool was_suspended = routing.is_suspended(flow);
        if (path_is_live(original)) {
            // Exact re-convergence: the moment the original path is fully
            // live again, restore it verbatim.
            routing.update_flow(flow, original);
            detoured_.erase(flow);
            ++stats_.flows_restored;
            continue;
        }
        const net::NodeId src = original.front();
        const net::NodeId dst = original.back();
        if (!node_admin_up_[static_cast<std::size_t>(src)] ||
            !node_admin_up_[static_cast<std::size_t>(dst)])
            continue;  // endpoint still down: stays suspended
        std::vector<net::NodeId> detour = live_path(src, dst);
        if (detour.empty()) {
            // Still partitioned; a previously routed detour may now be
            // broken (should not happen on an up-event), keep state.
            continue;
        }
        if (!was_suspended && detour == routing.path(flow)) continue;  // same detour
        routing.update_flow(flow, std::move(detour));
        if (was_suspended)
            ++stats_.flows_restored;
        else
            ++stats_.flows_rerouted;
    }
}

}  // namespace ezflow::sim
