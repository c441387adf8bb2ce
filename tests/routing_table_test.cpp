// Property tests for StaticRouting's dense next-hop rows: across
// randomized topologies and flow sets, next_hop_or_none must answer
// exactly like a scan over the stored paths (tests/routing_oracle.h), so
// the indexed lookup can never silently change a simulation.

#include "net/routing.h"

#include <gtest/gtest.h>

#include <climits>
#include <set>
#include <stdexcept>
#include <vector>

#include "routing_oracle.h"
#include "util/rng.h"

namespace ezflow::net {
namespace {

/// A random simple path of 2..max_len distinct nodes out of
/// [base, base + universe).
std::vector<NodeId> random_path(util::Rng& rng, NodeId base, int universe, int max_len)
{
    const int want = rng.uniform_int(2, max_len);
    std::vector<NodeId> pool;
    for (int n = 0; n < universe; ++n) pool.push_back(base + n);
    std::vector<NodeId> path;
    for (int i = 0; i < want && !pool.empty(); ++i) {
        const int pick = rng.uniform_int(0, static_cast<int>(pool.size()) - 1);
        path.push_back(pool[static_cast<std::size_t>(pick)]);
        pool.erase(pool.begin() + pick);
    }
    return path;
}

TEST(StaticRouting, MatchesPathScanOn200RandomTopologies)
{
    util::Rng rng(20260728);
    for (int trial = 0; trial < 200; ++trial) {
        const int universe = rng.uniform_int(2, 60);
        const int flows = rng.uniform_int(0, 12);
        // Now and then the nodes sit far from 0 or at the top of the id
        // domain, so rows are sized by their largest id, not by count.
        const NodeId base = rng.bernoulli(0.1)   ? StaticRouting::kMaxNodeId - universe + 1
                            : rng.bernoulli(0.1) ? rng.uniform_int(1, 100'000)
                                                 : 0;

        StaticRouting routing;
        std::set<int> used_ids;
        for (int f = 0; f < flows; ++f) {
            const int flow_id = rng.uniform_int(0, 16);
            if (!used_ids.insert(flow_id).second) continue;
            routing.add_flow(flow_id, random_path(rng, base, universe, 8));
        }
        EXPECT_EQ(routing.flow_ids(), std::vector<int>(used_ids.begin(), used_ids.end()));

        std::vector<int> probe_flows(used_ids.begin(), used_ids.end());
        probe_flows.push_back(17);
        EXPECT_EQ(testutil::routing_mismatch(routing, probe_flows, base - 2, base + universe), "")
            << "trial " << trial;
    }
}

TEST(StaticRouting, FlowsAddedAfterLookupsAreRouted)
{
    StaticRouting routing;
    routing.add_flow(1, {0, 1, 2});
    EXPECT_EQ(routing.next_hop_or_none(1, 0), 1);
    EXPECT_EQ(routing.next_hop_or_none(2, 0), StaticRouting::kNoNextHop);
    routing.add_flow(2, {2, 1, 0});
    EXPECT_EQ(routing.next_hop_or_none(2, 2), 1);
    EXPECT_EQ(routing.next_hop_or_none(2, 1), 0);
    EXPECT_EQ(routing.next_hop_or_none(1, 0), 1);
    EXPECT_EQ(testutil::routing_mismatch(routing, {1, 2}, 0, 3), "");
}

TEST(StaticRouting, LookupAnswersNoNextHopOffThePath)
{
    StaticRouting routing;
    routing.add_flow(7, {3, 1, 4});
    EXPECT_EQ(routing.next_hop_or_none(7, 3), 1);
    EXPECT_EQ(routing.next_hop_or_none(7, 1), 4);
    EXPECT_EQ(routing.next_hop_or_none(7, 4), StaticRouting::kNoNextHop);   // destination
    EXPECT_EQ(routing.next_hop_or_none(7, 0), StaticRouting::kNoNextHop);   // off path
    EXPECT_EQ(routing.next_hop_or_none(7, 9), StaticRouting::kNoNextHop);   // past the row
    EXPECT_EQ(routing.next_hop_or_none(8, 3), StaticRouting::kNoNextHop);   // unknown flow
    EXPECT_EQ(routing.next_hop_or_none(5, 3), StaticRouting::kNoNextHop);   // id below a flow
    EXPECT_EQ(routing.next_hop_or_none(7, -5), StaticRouting::kNoNextHop);  // negative node
    // Extreme probes on both axes stay defined.
    for (const int id : {INT_MIN, -1, INT_MAX}) {
        EXPECT_EQ(routing.next_hop_or_none(7, id), StaticRouting::kNoNextHop) << id;
        EXPECT_EQ(routing.next_hop_or_none(id, 3), StaticRouting::kNoNextHop) << id;
    }
}

TEST(StaticRouting, RejectsIdsOutsideTheDomain)
{
    StaticRouting routing;
    EXPECT_THROW(routing.add_flow(1, {0, INT_MIN}), std::invalid_argument);
    EXPECT_THROW(routing.add_flow(1, {-1, 0}), std::invalid_argument);
    EXPECT_THROW(routing.add_flow(1, {0, StaticRouting::kMaxNodeId + 1}), std::invalid_argument);
    EXPECT_THROW(routing.add_flow(1, {0, INT_MAX}), std::invalid_argument);
    EXPECT_THROW(routing.add_flow(-1, {0, 1}), std::invalid_argument);
    EXPECT_THROW(routing.add_flow(INT_MIN, {0, 1}), std::invalid_argument);
    EXPECT_THROW(routing.add_flow(StaticRouting::kMaxFlowId + 1, {0, 1}), std::invalid_argument);
    EXPECT_THROW(routing.add_flow(INT_MAX, {0, 1}), std::invalid_argument);
    EXPECT_TRUE(routing.flow_ids().empty());

    // The domain's edges are legal.
    routing.add_flow(StaticRouting::kMaxFlowId, {StaticRouting::kMaxNodeId, 0});
    EXPECT_EQ(routing.next_hop_or_none(StaticRouting::kMaxFlowId, StaticRouting::kMaxNodeId), 0);
    EXPECT_THROW(routing.update_flow(StaticRouting::kMaxFlowId, {0, -3}), std::invalid_argument);
    EXPECT_EQ(routing.path(StaticRouting::kMaxFlowId),
              (std::vector<NodeId>{StaticRouting::kMaxNodeId, 0}));
}

TEST(StaticRouting, MutatorsRejectUnknownFlows)
{
    StaticRouting routing;
    routing.add_flow(2, {0, 1});
    for (const int id : {-1, 0, 1, 3, INT_MIN, INT_MAX}) {
        EXPECT_THROW(routing.update_flow(id, {0, 1}), std::invalid_argument) << id;
        EXPECT_THROW(routing.suspend_flow(id), std::invalid_argument) << id;
        EXPECT_THROW(routing.resume_flow(id), std::invalid_argument) << id;
        EXPECT_THROW(routing.path(id), std::invalid_argument) << id;
        EXPECT_FALSE(routing.is_suspended(id)) << id;
    }
}

TEST(StaticRouting, EmptyTableAnswersNoNextHop)
{
    StaticRouting routing;
    EXPECT_EQ(routing.next_hop_or_none(0, 0), StaticRouting::kNoNextHop);
    EXPECT_TRUE(routing.flow_ids().empty());
    EXPECT_EQ(testutil::routing_mismatch(routing, {0, 1}, 0, 4), "");
}

}  // namespace
}  // namespace ezflow::net
