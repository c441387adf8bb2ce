#include "net/routing.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ezflow::net {

namespace {

void validate(const std::vector<NodeId>& path, const char* caller)
{
    const auto fail = [caller](const char* what) {
        throw std::invalid_argument(std::string("StaticRouting::") + caller + ": " + what);
    };
    if (path.size() < 2) fail("path too short");
    for (NodeId n : path)
        if (n < 0 || n > StaticRouting::kMaxNodeId) fail("node id out of range");
    std::vector<NodeId> sorted = path;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
        fail("path revisits a node");
}

}  // namespace

void StaticRouting::rebuild_row(Flow& flow)
{
    flow.next.clear();
    if (flow.suspended) return;
    const auto& p = flow.path;
    flow.next.resize(static_cast<std::size_t>(*std::max_element(p.begin(), p.end())) + 1,
                     kNoNextHop);
    for (std::size_t i = 0; i + 1 < p.size(); ++i)
        flow.next[static_cast<std::size_t>(p[i])] = p[i + 1];
}

void StaticRouting::add_flow(int flow_id, std::vector<NodeId> path)
{
    if (flow_id < 0 || flow_id > kMaxFlowId)
        throw std::invalid_argument("StaticRouting::add_flow: flow id out of range");
    validate(path, "add_flow");
    if (find(flow_id) != nullptr)
        throw std::invalid_argument("StaticRouting::add_flow: duplicate flow id");
    if (static_cast<std::size_t>(flow_id) >= flows_.size())
        flows_.resize(static_cast<std::size_t>(flow_id) + 1);
    Flow& flow = flows_[static_cast<std::size_t>(flow_id)];
    flow.path = std::move(path);
    rebuild_row(flow);
}

void StaticRouting::update_flow(int flow_id, std::vector<NodeId> path)
{
    validate(path, "update_flow");
    Flow& flow = existing(flow_id, "update_flow");
    flow.path = std::move(path);
    flow.suspended = false;
    rebuild_row(flow);
}

void StaticRouting::suspend_flow(int flow_id)
{
    Flow& flow = existing(flow_id, "suspend_flow");
    flow.suspended = true;
    rebuild_row(flow);
}

void StaticRouting::resume_flow(int flow_id)
{
    Flow& flow = existing(flow_id, "resume_flow");
    if (!flow.suspended) return;
    flow.suspended = false;
    rebuild_row(flow);
}

const StaticRouting::Flow* StaticRouting::find(int flow_id) const
{
    if (static_cast<std::size_t>(flow_id) >= flows_.size()) return nullptr;
    const Flow& flow = flows_[static_cast<std::size_t>(flow_id)];
    return flow.path.empty() ? nullptr : &flow;
}

StaticRouting::Flow& StaticRouting::existing(int flow_id, const char* caller)
{
    if (find(flow_id) == nullptr)
        throw std::invalid_argument(std::string("StaticRouting::") + caller + ": unknown flow");
    return flows_[static_cast<std::size_t>(flow_id)];
}

const std::vector<NodeId>& StaticRouting::path(int flow_id) const
{
    const Flow* flow = find(flow_id);
    if (flow == nullptr) throw std::invalid_argument("StaticRouting: unknown flow");
    return flow->path;
}

std::vector<int> StaticRouting::flow_ids() const
{
    std::vector<int> ids;
    for (std::size_t id = 0; id < flows_.size(); ++id)
        if (!flows_[id].path.empty()) ids.push_back(static_cast<int>(id));
    return ids;
}

}  // namespace ezflow::net
