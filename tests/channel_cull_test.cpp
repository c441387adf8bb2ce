// Reachability culling: Channel::transmit fans each frame out over a
// precomputed per-transmitter reach list, so the lists must hold exactly
// the receivers, facts and order a scan over every attached PHY would act
// on. Checked against that O(N^2) scan (tests/neighbour_oracle.h) on
// chain, parking-lot, grid and random-mesh topologies. Plus unit coverage
// of the reachability sets themselves and the id-indexed attach.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "neighbour_oracle.h"
#include "net/network.h"
#include "net/topo_gen.h"
#include "phy/channel.h"
#include "phy/phy.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace ezflow::phy {
namespace {

// ------------------------------------------------ reach lists vs oracle

/// Build `spec`'s experiment and check its channel's reach lists against
/// the attach-order scan.
void expect_reach_lists_match(const analysis::ScenarioSpec& spec, std::uint64_t seed = 11)
{
    analysis::ExperimentFactory factory(spec, analysis::ExperimentOptions{});
    std::unique_ptr<analysis::Experiment> experiment = factory.make(seed);
    EXPECT_EQ(testutil::reach_list_mismatch(experiment->network().channel()), "")
        << "seed " << seed;
}

TEST(ChannelCull, ChainReachListsMatchOracle)
{
    // 4-hop chain: hidden terminals and chained interference.
    expect_reach_lists_match(analysis::ScenarioSpec::line(4, /*duration_s=*/15.0));
}

TEST(ChannelCull, ParkingLotReachListsMatchOracle)
{
    // Scenario 1 is the paper's parking-lot merge: two 8-hop branches
    // joining toward the gateway.
    expect_reach_lists_match(analysis::ScenarioSpec::scenario1(/*time_scale=*/0.01));
}

TEST(ChannelCull, GeneratedGridGatewayReachListsMatchOracle)
{
    // Generated convergecast lattice (net/topo_gen.h): every flow funnels
    // into one corner, so the gateway neighbourhood is the dense case the
    // cull must get exactly right.
    net::GridSpec grid;
    grid.cols = 5;
    grid.rows = 4;
    grid.sources = 5;
    grid.duration_s = 4.0;
    expect_reach_lists_match(analysis::ScenarioSpec::grid_gateway(grid));
}

TEST(ChannelCull, GeneratedRandomMeshReachListsMatchOracle)
{
    // Seeded random scatters: irregular reachability sets, including
    // asymmetric hidden-terminal geometry no hand-built scenario covers.
    net::MeshSpec mesh;
    mesh.nodes = 18;
    mesh.flows = 4;
    mesh.width_m = 1100.0;
    mesh.height_m = 1100.0;
    mesh.duration_s = 4.0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        expect_reach_lists_match(analysis::ScenarioSpec::random_mesh(mesh), seed);
}

TEST(ChannelCull, GridReachListsMatchOracle)
{
    // A 4x4 grid at 200 m spacing, built directly: every node reaches
    // some neighbours only by carrier sense, not delivery.
    net::Network::Config config;
    net::Network network(config);
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            network.add_node(Position{x * 200.0, y * 200.0});
    EXPECT_EQ(testutil::reach_list_mismatch(network.channel()), "");
}

// ------------------------------------------------ reachability-set units

struct CullBed {
    sim::Scheduler scheduler;
    PhyParams params;
    Channel channel;
    std::vector<std::unique_ptr<NodePhy>> phys;

    explicit CullBed(PhyParams pp = {}) : params(pp), channel(scheduler, util::Rng(5), pp) {}

    NodePhy& add(double x, double y = 0.0)
    {
        const auto id = static_cast<net::NodeId>(phys.size());
        phys.push_back(std::make_unique<NodePhy>(id, Position{x, y}, scheduler));
        channel.attach(*phys.back());
        return *phys.back();
    }
};

TEST(ChannelCull, ReachableSetsMatchGeometry)
{
    // Random scatter: every transmitter's reachability set must contain
    // exactly the nodes the broadcast scan would not skip.
    CullBed bed;
    util::Rng rng(77);
    std::vector<Position> positions;
    for (int i = 0; i < 40; ++i) {
        const Position p{rng.uniform_real(0.0, 2500.0), rng.uniform_real(0.0, 2500.0)};
        positions.push_back(p);
        bed.add(p.x, p.y);
    }
    for (std::size_t tx = 0; tx < positions.size(); ++tx) {
        std::size_t expected = 0;
        for (std::size_t rx = 0; rx < positions.size(); ++rx) {
            if (rx == tx) continue;
            const double d = distance(positions[tx], positions[rx]);
            if (d <= bed.params.cs_range_m || d <= bed.params.interference_range_m) ++expected;
        }
        EXPECT_EQ(bed.channel.reachable_count(static_cast<net::NodeId>(tx)), expected)
            << "tx " << tx;
    }
    EXPECT_EQ(testutil::reach_list_mismatch(bed.channel), "");
}

TEST(ChannelCull, CellIndexedReachSetsMatchBruteForceOracle)
{
    // The reach build queries a cell index; every set must hold exactly
    // the nodes the O(N^2) oracle finds within the conflict radius —
    // boundary pairs at exactly the radius, negative coordinates and
    // co-located nodes included. The cull only ever skips nodes outside
    // the radius, so equal sizes mean equal sets.
    for (const testutil::OracleLayout& layout : testutil::oracle_layouts()) {
        PhyParams params;
        params.tx_range_m = layout.radius / 2;
        params.cs_range_m = layout.radius;
        params.interference_range_m = layout.radius;
        CullBed bed(params);
        for (const Position& p : layout.points) bed.add(p.x, p.y);
        const auto expected = testutil::brute_force_neighbours(layout.points, layout.radius);
        for (std::size_t tx = 0; tx < expected.size(); ++tx)
            EXPECT_EQ(bed.channel.reachable_count(static_cast<net::NodeId>(tx)),
                      expected[tx].size())
                << layout.name << " tx " << tx;
    }
}

TEST(ChannelCull, LineReachabilityIsLocal)
{
    // 200 m spacing, 550 m carrier sense: two hops either side.
    CullBed bed;
    for (int i = 0; i < 32; ++i) bed.add(i * 200.0);
    EXPECT_EQ(bed.channel.reachable_count(16), 4u);
    EXPECT_EQ(bed.channel.reachable_count(0), 2u);
    EXPECT_EQ(bed.channel.reachable_count(1), 3u);
}

TEST(ChannelCull, AttachAfterTransmitRebuildsReach)
{
    CullBed bed;
    NodePhy& a = bed.add(0);
    bed.add(200);
    Frame frame;
    frame.type = FrameType::kData;
    frame.tx_node = 0;
    frame.rx_node = 1;
    a.start_tx(frame);
    bed.scheduler.run();
    EXPECT_EQ(bed.phys[1]->frames_decoded(), 1u);
    // A node attached after traffic has flowed must still be reached.
    bed.add(100, 100);
    EXPECT_EQ(bed.channel.reachable_count(0), 2u);
    a.start_tx(frame);
    bed.scheduler.run();
    EXPECT_EQ(bed.phys[2]->frames_decoded(), 1u);  // sniffed the second frame
}

TEST(ChannelCull, DuplicateAttachThrowsViaIdIndex)
{
    CullBed bed;
    bed.add(0);
    NodePhy duplicate(0, Position{50, 50}, bed.scheduler);
    EXPECT_THROW(bed.channel.attach(duplicate), std::invalid_argument);
    EXPECT_THROW(bed.channel.reachable_count(99), std::invalid_argument);
}

}  // namespace
}  // namespace ezflow::phy
