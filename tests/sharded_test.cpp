// Space-parallel sharding tier: the partitioner's conservative guarantee
// (no conflict edge ever crosses a shard boundary) on random layouts, the
// ShardedEngine's one-epoch-per-run_until contract, and end-to-end
// byte-identity of the sharded engine against the serial reference — same
// fingerprints and the same figure JSON whatever the shard budget or
// thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "cli/figures.h"
#include "cli/registry.h"
#include "experiment_fingerprint.h"
#include "net/network.h"
#include "net/shard_plan.h"
#include "net/topo_gen.h"
#include "phy/frame.h"
#include "sim/scheduler.h"
#include "sim/sharded_engine.h"
#include "util/rng.h"

namespace ezflow {
namespace {

using testutil::experiment_fingerprint;

double conflict_radius(const phy::PhyParams& phy)
{
    return std::max(phy.tx_range_m, std::max(phy.cs_range_m, phy.interference_range_m));
}

// ---------------------------------------------- partitioner property test

TEST(ShardPlanner, NoConflictEdgeCrossesShardsOn200RandomLayouts)
{
    // Random scatters over a field wide enough to fragment into clusters:
    // whatever the layout, no two nodes within the conflict radius may
    // land in different shards, and shard ids must be dense. Every other
    // trial widens interference past carrier sense, opening an
    // interference-only band (550, 700] whose edges must not be cut
    // either.
    util::Rng rng(0xA11CE5ULL);
    int multi_shard_layouts = 0;
    for (int trial = 0; trial < 200; ++trial) {
        phy::PhyParams phy;
        if (trial % 2 == 1) phy.interference_range_m = 700.0;
        const double radius = conflict_radius(phy);
        const int nodes = rng.uniform_int(2, 60);
        const double width = rng.uniform_real(800.0, 12000.0);
        const double height = rng.uniform_real(800.0, 12000.0);
        std::vector<phy::Position> positions;
        positions.reserve(static_cast<std::size_t>(nodes));
        for (int i = 0; i < nodes; ++i)
            positions.push_back({rng.uniform_real(0.0, width), rng.uniform_real(0.0, height)});
        // A budget of 1 short-circuits to the empty serial-sentinel plan,
        // so the property is only meaningful from 2 up.
        const int max_shards = rng.uniform_int(2, 8);
        EXPECT_TRUE(net::plan_shards(positions, phy, 1).empty());

        const net::ShardPlan plan = net::plan_shards(positions, phy, max_shards);
        ASSERT_EQ(plan.shard_of_node.size(), positions.size());
        ASSERT_GE(plan.shard_count, 1);
        ASSERT_LE(plan.shard_count, max_shards);
        std::vector<bool> seen(static_cast<std::size_t>(plan.shard_count), false);
        for (const int shard : plan.shard_of_node) {
            ASSERT_GE(shard, 0);
            ASSERT_LT(shard, plan.shard_count);
            seen[static_cast<std::size_t>(shard)] = true;
        }
        for (const bool used : seen) ASSERT_TRUE(used) << "shard ids must be dense";

        for (std::size_t a = 0; a < positions.size(); ++a) {
            for (std::size_t b = a + 1; b < positions.size(); ++b) {
                if (phy::distance(positions[a], positions[b]) <= radius) {
                    ASSERT_EQ(plan.shard_of_node[a], plan.shard_of_node[b])
                        << "trial " << trial << ": conflict edge " << a << "-" << b
                        << " crosses shards";
                }
            }
        }

        // Deterministic: replanning the same layout yields the same plan.
        const net::ShardPlan replan = net::plan_shards(positions, phy, max_shards);
        ASSERT_EQ(replan.shard_count, plan.shard_count);
        ASSERT_EQ(replan.shard_of_node, plan.shard_of_node);
        if (plan.shard_count > 1) ++multi_shard_layouts;
    }
    // The field sizes above fragment often; the property must have been
    // exercised on genuinely multi-shard layouts, not vacuously.
    EXPECT_GT(multi_shard_layouts, 20);
}

TEST(ShardPlanner, ConnectedGridCollapsesToOneShard)
{
    const net::Topology grid = net::make_grid_topology(5, 5, 200.0);
    const phy::PhyParams phy;
    const net::ShardPlan plan = net::plan_shards(grid.positions, phy, 8);
    EXPECT_EQ(plan.shard_count, 1);
    EXPECT_EQ(plan.shard_of_node,
              std::vector<int>(static_cast<std::size_t>(grid.node_count()), 0));

    // Clustered grids coupled only across an interference-only gap are
    // still one conflict component: one shard, whatever the budget.
    net::ClustersSpec spec;
    spec.duration_s = 1.0;
    spec.max_shards = 4;
    const net::Scenario clusters = net::make_cluster_grid(spec, /*seed=*/1);
    EXPECT_EQ(clusters.network->shard_count(), 1);
    EXPECT_EQ(clusters.network->config().shard_plan.shard_count, 1);
    EXPECT_EQ(clusters.network->node_count(), spec.clusters * spec.cols * spec.rows);
}

TEST(ShardPlanner, SeparatedIslandsSplitUpToTheBudget)
{
    // Four 2-node islands 2 km apart: 4 components. The planner honors the
    // budget: 4 shards when allowed, packed down to 2 when capped.
    std::vector<phy::Position> positions;
    for (int island = 0; island < 4; ++island) {
        const double x = island * 2000.0;
        positions.push_back({x, 0.0});
        positions.push_back({x + 100.0, 0.0});
    }
    const phy::PhyParams phy;
    EXPECT_EQ(net::plan_shards(positions, phy, 8).shard_count, 4);
    const net::ShardPlan capped = net::plan_shards(positions, phy, 2);
    EXPECT_EQ(capped.shard_count, 2);
    for (std::size_t i = 0; i < positions.size(); i += 2)
        EXPECT_EQ(capped.shard_of_node[i], capped.shard_of_node[i + 1]);
}

// ------------------------------------------------ ShardedEngine contract

TEST(ShardedEngine, EachRunUntilIsOneEpochThatBringsEveryShardToTheTarget)
{
    sim::Scheduler a;
    sim::Scheduler b;
    sim::Scheduler c;
    sim::ShardedEngine::Options options;
    options.threads = 2;
    sim::ShardedEngine engine({&a, &b, &c}, options);

    std::vector<util::SimTime> fired(3, -1);
    a.schedule_at(10, [&] { fired[0] = a.now(); });
    b.schedule_at(250, [&] { fired[1] = b.now(); });
    c.schedule_at(400, [&] { fired[2] = c.now(); });  // beyond the first target

    engine.run_until(300);
    EXPECT_EQ(engine.epochs(), 1u);
    for (const sim::Scheduler* shard : {&a, &b, &c}) EXPECT_EQ(shard->now(), 300);
    EXPECT_EQ(fired, (std::vector<util::SimTime>{10, 250, -1}));

    engine.run_until(1000);
    EXPECT_EQ(engine.epochs(), 2u);
    for (const sim::Scheduler* shard : {&a, &b, &c}) EXPECT_EQ(shard->now(), 1000);
    EXPECT_EQ(fired[2], 400);
    EXPECT_EQ(engine.handoffs(), 0u);
}

// --------------------------------------- end-to-end shard byte-identity

analysis::ScenarioSpec islands_scenario(int shards)
{
    net::IslandsSpec islands;
    islands.islands = 4;
    islands.cols = 3;
    islands.rows = 3;
    islands.sources = 2;
    islands.duration_s = 4.0;
    islands.max_shards = shards;
    return analysis::ScenarioSpec::islands_spec(islands);
}

TEST(ShardedRun, IslandsFingerprintMatchesSerialReference)
{
    const auto run_with_shards = [](int shards, int* shard_count) {
        analysis::ExperimentFactory factory(islands_scenario(shards),
                                            analysis::ExperimentOptions{});
        std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/3);
        experiment->run();
        *shard_count = experiment->network().shard_count();
        // Event totals legitimately differ across shard counts (one
        // tracer-sweep chain per shard), so compare dynamics only.
        return experiment_fingerprint(*experiment, /*include_processed=*/false);
    };
    int serial_shards = 0;
    int parallel_shards = 0;
    const auto serial = run_with_shards(1, &serial_shards);
    const auto sharded = run_with_shards(4, &parallel_shards);
    EXPECT_EQ(serial_shards, 1);
    EXPECT_EQ(parallel_shards, 4) << "four separated islands must actually shard";
    EXPECT_EQ(serial, sharded);
}

TEST(ShardedRun, IslandsFigureJsonIsByteIdenticalAcrossShardsAndThreads)
{
    cli::register_builtin_figures();
    const cli::FigureSpec* spec = cli::FigureRegistry::instance().find("islands");
    ASSERT_NE(spec, nullptr);
    const auto run = [spec](int shards, int threads) {
        cli::FigureContext ctx;
        ctx.spec = spec;
        ctx.scale = 0.1;
        ctx.seed = 7;
        ctx.seeds = 2;
        ctx.threads = threads;
        ctx.shards = shards;
        return spec->run(ctx).to_json().dump();
    };
    const std::string serial = run(1, 1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, run(4, 1));
    EXPECT_EQ(serial, run(4, 4));
}

TEST(ShardedRun, ConnectedFiguresIgnoreTheShardBudget)
{
    // grid_cross / grid_gateway / grid_clusters are connected: the planner
    // must collapse them to one shard and the JSON must not move under
    // --shards.
    cli::register_builtin_figures();
    for (const char* name : {"grid_cross", "grid_gateway", "grid_clusters"}) {
        const cli::FigureSpec* spec = cli::FigureRegistry::instance().find(name);
        ASSERT_NE(spec, nullptr) << name;
        const auto run = [spec](int shards) {
            cli::FigureContext ctx;
            ctx.spec = spec;
            ctx.scale = 0.05;
            ctx.seed = 5;
            ctx.seeds = 2;
            ctx.threads = 1;
            ctx.shards = shards;
            ctx.extra = {{"cols", "4"}, {"rows", "4"}, {"duration", "4"}};
            return spec->run(ctx).to_json().dump();
        };
        EXPECT_EQ(run(1), run(4)) << name;
    }
}

// -------------------------------------------------- streaming recorders

TEST(StreamingRecorders, SameDeliveriesAndDelaysWithFlatMemory)
{
    const auto run = [](bool streaming) {
        analysis::ExperimentOptions options;
        options.streaming = streaming;
        analysis::ExperimentFactory factory(islands_scenario(4), options);
        std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/9);
        experiment->run();
        return experiment;
    };
    const auto stored = run(false);
    const auto streamed = run(true);

    // Streaming changes bookkeeping only: identical dynamics...
    EXPECT_EQ(experiment_fingerprint(*stored, /*include_processed=*/false),
              experiment_fingerprint(*streamed, /*include_processed=*/false));
    std::uint64_t packets = 0;
    for (const net::FlowPlan& flow : streamed->scenario().flows) {
        ASSERT_TRUE(streamed->sink().has_flow(flow.flow_id));
        const auto& a = stored->sink().flow(flow.flow_id);
        const auto& b = streamed->sink().flow(flow.flow_id);
        EXPECT_EQ(a.packets, b.packets);
        EXPECT_EQ(a.bytes, b.bytes);
        EXPECT_EQ(a.delay_us.count(), b.delay_us.count());
        EXPECT_EQ(a.delay_us.mean(), b.delay_us.mean());
        EXPECT_EQ(a.delay_us.max(), b.delay_us.max());
        packets += b.packets;
    }
    EXPECT_GT(packets, 0u);

    // ...with O(nodes + flows) state: no per-event series anywhere.
    EXPECT_EQ(streamed->sink().stored_samples(), 0u);
    EXPECT_EQ(streamed->buffers().stored_samples(), 0u);
    EXPECT_EQ(streamed->cw_tracer().stored_samples(), 0u);
    EXPECT_GT(stored->sink().stored_samples(), 0u);
    EXPECT_GT(stored->buffers().stored_samples(), 0u);
}

}  // namespace
}  // namespace ezflow
