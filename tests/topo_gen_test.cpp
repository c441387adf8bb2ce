// Invariants of the topology/scenario generators: every generated mesh is
// connected, every planned flow path is loop-free and hop-contiguous in
// the link graph, grid neighbour sets match an independent brute-force
// recomputation, and shortest paths are actually shortest.

#include "net/topo_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "net/network.h"
#include "net/shard_plan.h"
#include "neighbour_oracle.h"
#include "phy/geometry.h"
#include "util/rng.h"

namespace ezflow::net {
namespace {

/// Brute-force all-pairs hop distances over delivery links (independent
/// of the generator's BFS: plain O(N^3)-ish relaxation).
std::vector<std::vector<int>> brute_force_distances(const Topology& topo)
{
    const int n = topo.node_count();
    constexpr int kInf = 1 << 20;
    std::vector<std::vector<int>> dist(static_cast<std::size_t>(n),
                                       std::vector<int>(static_cast<std::size_t>(n), kInf));
    for (int a = 0; a < n; ++a) {
        dist[static_cast<std::size_t>(a)][static_cast<std::size_t>(a)] = 0;
        for (int b = 0; b < n; ++b) {
            if (a != b && phy::distance(topo.positions[static_cast<std::size_t>(a)],
                                        topo.positions[static_cast<std::size_t>(b)]) <=
                              topo.link_range_m)
                dist[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = 1;
        }
    }
    for (int k = 0; k < n; ++k)
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j)
                dist[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = std::min(
                    dist[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                    dist[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] +
                        dist[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)]);
    return dist;
}

/// Every flow path must be loop-free, hop-contiguous under the network's
/// delivery range, and registered with the routing layer.
void check_flow_invariants(const Scenario& scenario)
{
    ASSERT_NE(scenario.network, nullptr);
    const double range = scenario.network->config().phy.tx_range_m;
    for (const FlowPlan& plan : scenario.flows) {
        ASSERT_GE(plan.path.size(), 2u) << "flow " << plan.flow_id;
        std::set<NodeId> seen(plan.path.begin(), plan.path.end());
        EXPECT_EQ(seen.size(), plan.path.size()) << "flow " << plan.flow_id << " revisits a node";
        for (std::size_t i = 0; i + 1 < plan.path.size(); ++i) {
            const double d = phy::distance(
                scenario.network->node(plan.path[i]).phy().position(),
                scenario.network->node(plan.path[i + 1]).phy().position());
            EXPECT_LE(d, range) << "flow " << plan.flow_id << " hop " << i << " too long";
        }
        EXPECT_EQ(scenario.network->routing().path(plan.flow_id), plan.path);
        EXPECT_EQ(scenario.network->routing().next_hop_or_none(plan.flow_id, plan.path[0]),
                  plan.path[1]);
    }
}

TEST(TopoGen, GridNeighbourSetsMatchBruteForce)
{
    for (const auto& [cols, rows] : std::vector<std::pair<int, int>>{{2, 2}, {5, 3}, {7, 7}}) {
        const Topology topo = make_grid_topology(cols, rows, 200.0);
        ASSERT_EQ(topo.node_count(), cols * rows);
        for (int a = 0; a < topo.node_count(); ++a) {
            std::vector<NodeId> expected;
            for (int b = 0; b < topo.node_count(); ++b) {
                if (a == b) continue;
                if (phy::distance(topo.positions[static_cast<std::size_t>(a)],
                                  topo.positions[static_cast<std::size_t>(b)]) <=
                    topo.link_range_m)
                    expected.push_back(b);
            }
            EXPECT_EQ(topo.neighbours[static_cast<std::size_t>(a)], expected)
                << cols << "x" << rows << " node " << a;
            // On a 200 m lattice under the 250 m delivery range the links
            // are exactly the axis-aligned lattice edges.
            const int row = a / cols;
            const int col = a % cols;
            const std::size_t lattice_degree =
                static_cast<std::size_t>((row > 0) + (row + 1 < rows) + (col > 0) +
                                         (col + 1 < cols));
            EXPECT_EQ(topo.neighbours[static_cast<std::size_t>(a)].size(), lattice_degree);
        }
    }
}

TEST(TopoGen, CellIndexedQueriesMatchBruteForceOracle)
{
    // rebuild_links and plan_shards query neighbours through the shared
    // cell index; both must agree with the O(N^2) oracle everywhere,
    // including pairs at exactly the radius on a cell boundary.
    for (const testutil::OracleLayout& layout : testutil::oracle_layouts()) {
        Topology topo;
        topo.positions = layout.points;
        topo.link_range_m = layout.radius;
        rebuild_links(topo);
        const auto expected = testutil::brute_force_neighbours(layout.points, layout.radius);
        ASSERT_EQ(topo.neighbours.size(), expected.size()) << layout.name;
        for (std::size_t a = 0; a < expected.size(); ++a)
            EXPECT_EQ(topo.neighbours[a], expected[a]) << layout.name << " node " << a;

        phy::PhyParams phy;
        phy.tx_range_m = layout.radius / 2;
        phy.cs_range_m = layout.radius;
        phy.interference_range_m = layout.radius;
        const int n = static_cast<int>(layout.points.size());
        // A budget of one shard per node packs every component alone.
        const ShardPlan plan = plan_shards(layout.points, phy, std::max(n, 2));
        EXPECT_EQ(testutil::canonical_partition(plan.shard_of_node),
                  testutil::brute_force_components(layout.points, layout.radius))
            << layout.name;
    }
}

TEST(TopoGen, RandomMeshesAreConnectedAndSeeded)
{
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        const Topology topo = make_random_topology(20, 1200.0, 1200.0, 250.0, seed);
        ASSERT_EQ(topo.node_count(), 20);
        EXPECT_TRUE(is_connected(topo)) << "seed " << seed;
        // Deterministic in the seed.
        const Topology again = make_random_topology(20, 1200.0, 1200.0, 250.0, seed);
        for (int i = 0; i < topo.node_count(); ++i) {
            EXPECT_EQ(topo.positions[static_cast<std::size_t>(i)].x,
                      again.positions[static_cast<std::size_t>(i)].x);
            EXPECT_EQ(topo.positions[static_cast<std::size_t>(i)].y,
                      again.positions[static_cast<std::size_t>(i)].y);
        }
    }
    // An impossible density must fail loudly, not loop forever.
    EXPECT_THROW(make_random_topology(3, 50'000.0, 50'000.0, 100.0, 7), std::runtime_error);
}

TEST(TopoGen, ShortestPathsAreShortestAndDeterministic)
{
    util::Rng rng(99);
    for (int trial = 0; trial < 25; ++trial) {
        const Topology topo = make_random_topology(18, 1100.0, 1100.0, 250.0,
                                                   1000 + static_cast<std::uint64_t>(trial));
        const auto dist = brute_force_distances(topo);
        for (int probe = 0; probe < 12; ++probe) {
            const NodeId src = rng.uniform_int(0, topo.node_count() - 1);
            const NodeId dst = rng.uniform_int(0, topo.node_count() - 1);
            const std::vector<NodeId> path = shortest_path(topo, src, dst);
            if (src == dst) {
                EXPECT_TRUE(path.empty());
                continue;
            }
            ASSERT_FALSE(path.empty()) << "mesh is connected, a path must exist";
            EXPECT_EQ(path.front(), src);
            EXPECT_EQ(path.back(), dst);
            EXPECT_EQ(static_cast<int>(path.size()) - 1,
                      dist[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)]);
            for (std::size_t i = 0; i + 1 < path.size(); ++i)
                EXPECT_TRUE(topo.has_link(path[i], path[i + 1]));
            EXPECT_EQ(path, shortest_path(topo, src, dst));  // deterministic
        }
    }
}

TEST(TopoGen, GridCrossScenarioInvariants)
{
    GridSpec spec;
    spec.cols = 7;
    spec.rows = 7;
    spec.cross_flows = 12;
    spec.duration_s = 10.0;
    const Scenario scenario = make_grid_cross(spec, 5);
    EXPECT_EQ(scenario.network->node_count(), 49);
    ASSERT_EQ(scenario.flows.size(), 12u);
    check_flow_invariants(scenario);
    // Straight flows span the full lattice extent.
    for (const FlowPlan& plan : scenario.flows) EXPECT_EQ(plan.path.size(), 7u);
}

TEST(TopoGen, GridCrossRejectsDegenerateLattices)
{
    GridSpec spec;
    spec.cols = 1;
    spec.rows = 5;
    EXPECT_THROW(make_grid_cross(spec, 1), std::invalid_argument);
    spec.cols = 5;
    spec.cross_flows = 0;
    EXPECT_THROW(make_grid_cross(spec, 1), std::invalid_argument);
}

TEST(TopoGen, GridConvergecastRoutesEverySourceToTheGateway)
{
    GridSpec spec;
    spec.cols = 6;
    spec.rows = 5;
    spec.sources = 6;
    spec.duration_s = 10.0;
    const Scenario scenario = make_grid_convergecast(spec, 3);
    ASSERT_EQ(scenario.flows.size(), 6u);
    check_flow_invariants(scenario);
    std::set<NodeId> sources;
    for (const FlowPlan& plan : scenario.flows) {
        EXPECT_EQ(plan.path.back(), 0) << "all flows drain to the gateway";
        sources.insert(plan.path.front());
        // Shortest on the lattice: hops = manhattan distance to node 0.
        const NodeId src = plan.path.front();
        EXPECT_EQ(static_cast<int>(plan.path.size()) - 1, src / spec.cols + src % spec.cols);
    }
    EXPECT_EQ(sources.size(), 6u) << "sources are distinct";
    spec.sources = 100;
    EXPECT_THROW(make_grid_convergecast(spec, 3), std::invalid_argument);
}

TEST(TopoGen, ParkingLotChainSpreadsEntriesTowardTheGateway)
{
    const Scenario scenario = make_parking_lot_chain(9, 3, 5.0, 10.0, 7);
    EXPECT_EQ(scenario.network->node_count(), 10);
    ASSERT_EQ(scenario.flows.size(), 3u);
    check_flow_invariants(scenario);
    EXPECT_EQ(scenario.flows[0].path.front(), 0);
    EXPECT_EQ(scenario.flows[0].path.size(), 10u);  // the full chain
    std::set<NodeId> entries;
    for (const FlowPlan& plan : scenario.flows) {
        EXPECT_EQ(plan.path.back(), 9);
        entries.insert(plan.path.front());
    }
    EXPECT_EQ(entries.size(), 3u);
    EXPECT_THROW(make_parking_lot_chain(3, 4, 5.0, 10.0, 7), std::invalid_argument);
}

TEST(TopoGen, RandomMeshScenarioInvariants)
{
    MeshSpec spec;
    spec.nodes = 22;
    spec.flows = 5;
    spec.width_m = 1300.0;
    spec.height_m = 1300.0;
    spec.duration_s = 10.0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const Scenario scenario = make_random_mesh(spec, seed);
        EXPECT_EQ(scenario.network->node_count(), 22);
        ASSERT_EQ(scenario.flows.size(), 5u);
        check_flow_invariants(scenario);
    }
    // A pinned layout seed keeps the workload identical across run seeds.
    spec.topo_seed = 42;
    const Scenario a = make_random_mesh(spec, 1);
    const Scenario b = make_random_mesh(spec, 2);
    ASSERT_EQ(a.flows.size(), b.flows.size());
    for (std::size_t f = 0; f < a.flows.size(); ++f)
        EXPECT_EQ(a.flows[f].path, b.flows[f].path);
}

}  // namespace
}  // namespace ezflow::net
