// Reachability culling equivalence: Channel::transmit with precomputed
// per-transmitter neighbour lists must produce exactly the simulation the
// full-broadcast scan produces — same Rng stream, same decodes, same
// corruption, same carrier sense — on chain, parking-lot and grid
// topologies. Plus unit coverage of the reachability sets themselves and
// the id-indexed attach.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "experiment_fingerprint.h"
#include "neighbour_oracle.h"
#include "net/network.h"
#include "net/topo_gen.h"
#include "net/topologies.h"
#include "phy/channel.h"
#include "phy/phy.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/units.h"

namespace ezflow::phy {
namespace {

// ------------------------------------------------ full-run equivalence

using testutil::experiment_fingerprint;

std::vector<std::uint64_t> run_scenario(const analysis::ScenarioSpec& spec, bool cull)
{
    analysis::ExperimentFactory factory(spec, analysis::ExperimentOptions{});
    std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/11);
    net::ReferenceModeFlags flags;
    flags.reachability_cull = cull;
    experiment->network().set_reference_mode(flags);
    experiment->run();
    return experiment_fingerprint(*experiment);
}

TEST(ChannelCull, ChainRunMatchesFullBroadcast)
{
    // 4-hop chain: hidden terminals and chained interference.
    const analysis::ScenarioSpec spec = analysis::ScenarioSpec::line(4, /*duration_s=*/15.0);
    EXPECT_EQ(run_scenario(spec, true), run_scenario(spec, false));
}

TEST(ChannelCull, ParkingLotRunMatchesFullBroadcast)
{
    // Scenario 1 is the paper's parking-lot merge: two 8-hop branches
    // joining toward the gateway.
    const analysis::ScenarioSpec spec = analysis::ScenarioSpec::scenario1(/*time_scale=*/0.01);
    EXPECT_EQ(run_scenario(spec, true), run_scenario(spec, false));
}

TEST(ChannelCull, GeneratedGridGatewayMatchesFullBroadcast)
{
    // Generated convergecast lattice (net/topo_gen.h): every flow funnels
    // into one corner, so the gateway neighbourhood is the dense case the
    // cull must get exactly right.
    net::GridSpec grid;
    grid.cols = 5;
    grid.rows = 4;
    grid.sources = 5;
    grid.duration_s = 4.0;
    const analysis::ScenarioSpec spec = analysis::ScenarioSpec::grid_gateway(grid);
    EXPECT_EQ(run_scenario(spec, true), run_scenario(spec, false));
}

TEST(ChannelCull, GeneratedRandomMeshMatchesFullBroadcast)
{
    // Seeded random scatters: irregular reachability sets, including
    // asymmetric hidden-terminal geometry no hand-built scenario covers.
    net::MeshSpec mesh;
    mesh.nodes = 18;
    mesh.flows = 4;
    mesh.width_m = 1100.0;
    mesh.height_m = 1100.0;
    mesh.duration_s = 4.0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        analysis::ExperimentFactory factory(analysis::ScenarioSpec::random_mesh(mesh),
                                            analysis::ExperimentOptions{});
        const auto run_with_cull = [&factory, seed](bool cull) {
            std::unique_ptr<analysis::Experiment> experiment = factory.make(seed);
            net::ReferenceModeFlags flags;
            flags.reachability_cull = cull;
            experiment->network().set_reference_mode(flags);
            experiment->run();
            return experiment_fingerprint(*experiment);
        };
        EXPECT_EQ(run_with_cull(true), run_with_cull(false)) << "seed " << seed;
    }
}

TEST(ChannelCull, GridRunMatchesFullBroadcast)
{
    // A 4x4 grid with two crossing flows, built directly.
    const auto build = [](bool cull) {
        net::Network::Config config;
        net::Network network(config);
        for (int y = 0; y < 4; ++y)
            for (int x = 0; x < 4; ++x)
                network.add_node(Position{x * 200.0, y * 200.0});
        net::ReferenceModeFlags flags;
        flags.reachability_cull = cull;
        network.set_reference_mode(flags);
        network.add_flow(1, {0, 1, 2, 3});       // west -> east along the top row
        network.add_flow(2, {0, 4, 8, 12});      // north -> south along the left column
        network.add_flow(3, {5, 6, 10});         // interior dog-leg
        util::Rng traffic(42);
        for (int i = 0; i < 400; ++i) {
            const util::SimTime at = 1000 + i * 2000;
            for (int flow = 1; flow <= 3; ++flow) {
                net::Packet packet;
                packet.uid = static_cast<std::uint64_t>(flow) * 100000 + i;
                packet.seq = static_cast<std::uint64_t>(i);
                packet.flow_id = flow;
                packet.bytes = 500;
                packet.src = flow == 2 ? 0 : (flow == 3 ? 5 : 0);
                packet.dst = flow == 1 ? 3 : (flow == 2 ? 12 : 10);
                net::NodeId src = packet.src;
                network.scheduler().schedule_at(at, [&network, src, packet] {
                    network.node(src).send(packet);
                });
            }
        }
        network.run_until(3 * util::kSecond);
        std::vector<std::uint64_t> print;
        print.push_back(network.channel().transmissions());
        print.push_back(network.scheduler().processed());
        for (int id = 0; id < network.node_count(); ++id) {
            const net::Node& node = network.node(id);
            print.push_back(node.phy().frames_decoded());
            print.push_back(node.phy().frames_corrupted());
            print.push_back(node.mac().successes());
            print.push_back(node.delivered());
            print.push_back(node.forwarded());
        }
        return print;
    };
    const auto culled = build(true);
    const auto broadcast = build(false);
    EXPECT_FALSE(culled.empty());
    EXPECT_EQ(culled, broadcast);
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
