// Fault injection & churn: graceful node teardown/revival through every
// layer, incremental route repair, source pause/resume, and the drop
// accounting that must balance through all of it.
//
// The teardown lifetime scan is the heart: killing a node at many
// instants across an active period catches it mid-transmission,
// mid-backoff, mid-DIFS and (under the SINR ledger) while frames are
// locked in the interference ledger — every case must drain without a
// FramePool leak and with every queue's conservation law intact. CI runs
// this suite under ASan+UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "analysis/drop_audit.h"
#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "experiment_fingerprint.h"
#include "neighbour_oracle.h"
#include "routing_oracle.h"
#include "net/fault_plan.h"
#include "net/network.h"
#include "net/topo_gen.h"
#include "net/topologies.h"
#include "phy/channel.h"
#include "phy/phy.h"
#include "sim/fault_injector.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/units.h"

namespace ezflow {
namespace {

using analysis::ExperimentFactory;
using analysis::ExperimentOptions;
using analysis::ScenarioSpec;

// ------------------------------------------------------- FaultPlan units

TEST(FaultPlan, BuilderAndSortedTimeline)
{
    net::FaultPlan plan;
    plan.node_down(2.0, 3).link_down(1.0, 0, 1).node_up(4.0, 3).link_up(3.0, 0, 1);
    EXPECT_FALSE(plan.empty());
    const auto sorted = plan.sorted();
    ASSERT_EQ(sorted.size(), 4u);
    EXPECT_EQ(sorted[0].kind, net::FaultKind::kLinkDown);
    EXPECT_EQ(sorted[1].kind, net::FaultKind::kNodeDown);
    EXPECT_EQ(sorted[2].kind, net::FaultKind::kLinkUp);
    EXPECT_EQ(sorted[3].kind, net::FaultKind::kNodeUp);
    EXPECT_EQ(sorted[1].node, 3);
    EXPECT_EQ(sorted[0].a, 0);
    EXPECT_EQ(sorted[0].b, 1);
}

TEST(FaultPlan, RandomChurnIsSeededAndWellFormed)
{
    net::ChurnSpec spec;
    spec.candidates = {1, 2, 3, 4};
    spec.cycles = 8;
    spec.from_s = 10.0;
    spec.to_s = 60.0;
    spec.min_down_s = 1.0;
    spec.max_down_s = 4.0;
    const net::FaultPlan a = net::FaultPlan::random_churn(spec, 42);
    const net::FaultPlan b = net::FaultPlan::random_churn(spec, 42);
    const net::FaultPlan c = net::FaultPlan::random_churn(spec, 43);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].at, b.events[i].at);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].node, b.events[i].node);
    }
    // Different seeds draw a different timeline.
    bool differs = a.events.size() != c.events.size();
    for (std::size_t i = 0; !differs && i < a.events.size(); ++i)
        differs = a.events[i].at != c.events[i].at || a.events[i].node != c.events[i].node;
    EXPECT_TRUE(differs);

    // Every cycle is a paired down/up inside the window, and one node's
    // cycles never overlap.
    std::map<net::NodeId, util::SimTime> down_since;
    std::map<net::NodeId, util::SimTime> last_up;
    for (const net::FaultEvent& event : a.sorted()) {
        EXPECT_GE(event.at, util::from_seconds(spec.from_s));
        EXPECT_LE(event.at, util::from_seconds(spec.to_s));
        EXPECT_TRUE(std::count(spec.candidates.begin(), spec.candidates.end(), event.node) > 0);
        if (event.kind == net::FaultKind::kNodeDown) {
            EXPECT_EQ(down_since.count(event.node), 0u) << "overlapping cycles";
            if (last_up.count(event.node)) {
                EXPECT_GT(event.at, last_up[event.node]);
            }
            down_since[event.node] = event.at;
        } else {
            ASSERT_EQ(event.kind, net::FaultKind::kNodeUp);
            ASSERT_EQ(down_since.count(event.node), 1u);
            const util::SimTime down_for = event.at - down_since[event.node];
            EXPECT_GE(down_for, util::from_seconds(spec.min_down_s));
            EXPECT_LE(down_for, util::from_seconds(spec.max_down_s));
            down_since.erase(event.node);
            last_up[event.node] = event.at;
        }
    }
    EXPECT_TRUE(down_since.empty()) << "unpaired node_down";
}

// ------------------------------------------------ routing: repair units

TEST(RoutingRepair, UpdateSuspendResumeMatchFreshBuilder)
{
    // Property check: after each of 300 random update/suspend/resume
    // steps, the mutated table agrees with a test-side model of paths and
    // suspensions, with a path scan over its own state, and with a table
    // freshly built from the model.
    util::Rng rng(7);
    net::StaticRouting routing;
    const std::vector<std::vector<net::NodeId>> pool = {
        {0, 1, 2, 3}, {3, 2, 1, 0}, {0, 4, 8}, {8, 4, 0}, {1, 5, 9, 13}, {2, 6, 10}};
    std::map<int, std::vector<net::NodeId>> model_paths;
    std::set<int> model_suspended;
    for (int f = 1; f <= 6; ++f) {
        model_paths[f] = pool[static_cast<std::size_t>(f - 1)];
        routing.add_flow(f, model_paths[f]);
    }
    const std::vector<int> flows = {1, 2, 3, 4, 5, 6};

    for (int step = 0; step < 300; ++step) {
        const int flow = rng.uniform_int(1, 6);
        switch (rng.uniform_int(0, 2)) {
            case 0:
                model_paths[flow] = pool[static_cast<std::size_t>(rng.uniform_int(0, 5))];
                model_suspended.erase(flow);
                routing.update_flow(flow, model_paths[flow]);
                break;
            case 1:
                model_suspended.insert(flow);
                routing.suspend_flow(flow);
                break;
            default:
                model_suspended.erase(flow);
                routing.resume_flow(flow);
                break;
        }
        net::StaticRouting fresh;
        for (const auto& [f, path] : model_paths) {
            EXPECT_EQ(routing.path(f), path) << "step " << step << " flow " << f;
            EXPECT_EQ(routing.is_suspended(f), model_suspended.count(f) > 0)
                << "step " << step << " flow " << f;
            fresh.add_flow(f, path);
            if (model_suspended.count(f) > 0) fresh.suspend_flow(f);
        }
        EXPECT_EQ(testutil::routing_mismatch(routing, flows, -1, 14), "") << "step " << step;
        for (const int f : flows)
            for (net::NodeId node = 0; node <= 13; ++node)
                EXPECT_EQ(routing.next_hop_or_none(f, node), fresh.next_hop_or_none(f, node))
                    << "step " << step << " flow " << f << " node " << node;
    }
}

TEST(RoutingRepair, SuspendedFlowHasNoNextHops)
{
    net::StaticRouting routing;
    routing.add_flow(1, {0, 1, 2});
    EXPECT_EQ(routing.next_hop_or_none(1, 0), 1);
    routing.suspend_flow(1);
    routing.suspend_flow(1);  // idempotent
    EXPECT_TRUE(routing.is_suspended(1));
    for (net::NodeId node = 0; node <= 2; ++node)
        EXPECT_EQ(routing.next_hop_or_none(1, node), net::StaticRouting::kNoNextHop) << node;
    EXPECT_EQ(testutil::routing_mismatch(routing, {1}, 0, 3), "");
    routing.resume_flow(1);
    routing.resume_flow(1);  // idempotent
    EXPECT_FALSE(routing.is_suspended(1));
    EXPECT_EQ(routing.next_hop_or_none(1, 0), 1);
    EXPECT_EQ(routing.next_hop_or_none(1, 1), 2);
    EXPECT_EQ(routing.path(1), (std::vector<net::NodeId>{0, 1, 2}));
    // An update also lifts the suspension, onto the new path.
    routing.suspend_flow(1);
    routing.update_flow(1, {2, 3});
    EXPECT_FALSE(routing.is_suspended(1));
    EXPECT_EQ(routing.next_hop_or_none(1, 2), 3);
    EXPECT_EQ(routing.next_hop_or_none(1, 0), net::StaticRouting::kNoNextHop);
    EXPECT_EQ(testutil::routing_mismatch(routing, {1}, 0, 4), "");
}

// ----------------------------------------- channel detach/attach symmetry

TEST(ChannelDetach, ReachCacheInvalidatedSymmetrically)
{
    sim::Scheduler scheduler;
    phy::PhyParams params;
    phy::Channel channel(scheduler, util::Rng(5), params);
    std::vector<std::unique_ptr<phy::NodePhy>> phys;
    for (int i = 0; i < 4; ++i) {
        phys.push_back(
            std::make_unique<phy::NodePhy>(i, phy::Position{i * 200.0, 0.0}, scheduler));
        channel.attach(*phys.back());
    }
    EXPECT_EQ(channel.reachable_count(1), 3u);  // 550 m cs: two hops each side
    EXPECT_TRUE(channel.is_attached(*phys[2]));

    // Detach after the cache was built: the cull must forget node 2 (the
    // staleness hazard — an early-return on reach_.size() would keep
    // serving the dead node).
    channel.detach(*phys[2]);
    EXPECT_FALSE(channel.is_attached(*phys[2]));
    EXPECT_EQ(channel.reachable_count(1), 2u);
    EXPECT_THROW(channel.reachable_count(2), std::invalid_argument);
    EXPECT_THROW(channel.detach(*phys[2]), std::invalid_argument);

    // Reattach: symmetric rebuild.
    channel.attach(*phys[2]);
    EXPECT_EQ(channel.reachable_count(1), 3u);
    EXPECT_EQ(channel.reachable_count(2), 3u);
}

// ------------------------------------------------- teardown lifetime scan

/// One kill/revive cycle on a 4-hop chain, killing relay 2 at
/// `kill_us` and reviving 300 ms later. Returns the run's fingerprint.
/// Asserts zero FramePool leakage and exact queue/MAC conservation
/// afterwards — whatever MAC/PHY state the kill interrupted.
std::vector<std::uint64_t> chain_kill_cycle(util::SimTime kill_us, bool sinr_ledger)
{
    ScenarioSpec spec = ScenarioSpec::line(4, /*duration_s=*/1.2);
    if (sinr_ledger) spec.models.interference = phy::PhyModelConfig::Interference::kSinrLedger;
    spec.faults.events.push_back(
        {kill_us, net::FaultKind::kNodeDown, /*node=*/2, -1, -1});
    spec.faults.events.push_back(
        {kill_us + 300'000, net::FaultKind::kNodeUp, /*node=*/2, -1, -1});
    ExperimentFactory factory(spec, ExperimentOptions{});
    std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/11);
    experiment->run();
    // Run far past the stop so every in-flight signal end has fired.
    experiment->run_until_s(10.0);

    net::Network& network = experiment->network();
    EXPECT_EQ(network.channel().frame_pool().live(), 0u) << "kill at " << kill_us;
    analysis::audit_drop_accounting(*experiment);  // throws on any leak
    const sim::FaultInjector* injector = experiment->fault_injector();
    EXPECT_EQ(injector->stats().node_downs, 1u);
    EXPECT_EQ(injector->stats().node_ups, 1u);
    // A 1-wide chain has no detour: the flow suspends and restores.
    EXPECT_EQ(injector->stats().flows_suspended, 1u);
    EXPECT_EQ(injector->stats().flows_restored, 1u);
    return testutil::experiment_fingerprint(*experiment);
}

TEST(FaultLifetime, KillScanAcrossActivePeriodLeaksNothing)
{
    // 5-s start + CBR at 2 Mb/s saturates immediately; sweeping the kill
    // instant at sub-slot offsets catches the MAC mid-DIFS, mid-backoff,
    // mid-data, mid-ACK-wait and the PHY mid-signal.
    for (int i = 0; i < 12; ++i) {
        const util::SimTime kill = util::from_seconds(5.2) + i * 13'777;
        chain_kill_cycle(kill, /*sinr_ledger=*/false);
    }
}

TEST(FaultLifetime, KillScanUnderSinrLedger)
{
    // The SINR ledger holds locked frame references during reception;
    // killing the receiver mid-lock must still release every record.
    for (int i = 0; i < 8; ++i) {
        const util::SimTime kill = util::from_seconds(5.2) + i * 17'333;
        chain_kill_cycle(kill, /*sinr_ledger=*/true);
    }
}

TEST(FaultLifetime, FlashReviveWithinSifsKeepsControlPathSane)
{
    // Regression for the stale control trigger: quiesce cannot cancel an
    // already-armed SIFS/slot control timer (scheduler events are fire-
    // and-forget), so a kill/revive cycle quicker than SIFS left the old
    // trigger to fire into the *revived* MAC — a double control send
    // violating SIFS spacing, or a send of a control frame the teardown
    // had already flushed. The MAC's generation counter turns stale
    // triggers into no-ops; this scan pins that across sub-SIFS kill
    // offsets (prime steps so the scan drifts through DIFS/backoff/ACK
    // phases) with a 4-microsecond outage, and re-checks determinism.
    const auto flash_cycle = [](util::SimTime kill_us) {
        ScenarioSpec spec = ScenarioSpec::line(4, /*duration_s=*/1.2);
        spec.faults.events.push_back({kill_us, net::FaultKind::kNodeDown, /*node=*/2, -1, -1});
        spec.faults.events.push_back(
            {kill_us + 4, net::FaultKind::kNodeUp, /*node=*/2, -1, -1});
        ExperimentFactory factory(spec, ExperimentOptions{});
        std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/11);
        experiment->run();
        experiment->run_until_s(10.0);
        EXPECT_EQ(experiment->network().channel().frame_pool().live(), 0u)
            << "kill at " << kill_us;
        analysis::audit_drop_accounting(*experiment);  // throws on any leak
        return testutil::experiment_fingerprint(*experiment);
    };
    for (int i = 0; i < 12; ++i) {
        const util::SimTime kill = util::from_seconds(5.2) + i * 2'503;
        const auto fingerprint = flash_cycle(kill);
        EXPECT_EQ(fingerprint, flash_cycle(kill)) << "kill at " << kill;
    }
}

TEST(FaultLifetime, ReachListsMatchOracleAcrossDownUpCycle)
{
    // The reach cache must follow the kill's detach and the revival's
    // attach mid-run: after each, every list must equal the scan over the
    // PHYs then attached (the revived relay now last in attach order).
    const util::SimTime kill = util::from_seconds(5.35);
    ScenarioSpec spec = ScenarioSpec::line(4, /*duration_s=*/1.2);
    spec.faults.events.push_back({kill, net::FaultKind::kNodeDown, /*node=*/2, -1, -1});
    spec.faults.events.push_back({kill + 300'000, net::FaultKind::kNodeUp, /*node=*/2, -1, -1});
    ExperimentFactory factory(spec, ExperimentOptions{});
    std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/11);
    net::Network& network = experiment->network();
    phy::Channel& channel = network.channel();
    const phy::NodePhy& relay = network.node(2).phy();

    EXPECT_EQ(testutil::reach_list_mismatch(channel), "");
    experiment->run_until_s(util::to_seconds(kill) + 0.001);
    ASSERT_FALSE(channel.is_attached(relay));
    EXPECT_EQ(testutil::reach_list_mismatch(channel), "") << "after the detach";
    experiment->run_until_s(util::to_seconds(kill + 300'000) + 0.001);
    ASSERT_TRUE(channel.is_attached(relay));
    EXPECT_EQ(channel.attached().back(), &relay);
    EXPECT_EQ(testutil::reach_list_mismatch(channel), "") << "after the attach";
    experiment->run();
    EXPECT_EQ(testutil::reach_list_mismatch(channel), "") << "at the end of the run";
}

// -------------------------------------------- source pause / repair flow

TEST(FaultFlow, GatewayDeathPausesSourcesAndRecovers)
{
    net::GridSpec grid;
    grid.cols = 4;
    grid.rows = 4;
    grid.sources = 3;
    grid.duration_s = 12.0;
    ScenarioSpec spec = ScenarioSpec::grid_gateway(grid);
    spec.faults.node_down(9.0, 0).node_up(13.0, 0);
    ExperimentFactory factory(spec, ExperimentOptions{});
    std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/3);

    experiment->run_until_s(8.9);
    std::uint64_t delivered_before = 0;
    for (int id = 0; id < experiment->network().node_count(); ++id)
        delivered_before += experiment->network().node(id).delivered();
    EXPECT_GT(delivered_before, 0u);

    // Mid-outage: gateway down, every flow suspended, sources pausing.
    experiment->run_until_s(12.9);
    EXPECT_FALSE(experiment->network().node_is_up(0));
    for (int f = 1; f <= grid.sources; ++f)
        EXPECT_TRUE(experiment->network().routing().is_suspended(f)) << "flow " << f;
    std::uint64_t delivered_outage = 0;
    for (int id = 0; id < experiment->network().node_count(); ++id)
        delivered_outage += experiment->network().node(id).delivered();

    // After revival: flows restored, delivery resumes, sources backed off
    // while the destination was gone.
    experiment->run();
    EXPECT_TRUE(experiment->network().node_is_up(0));
    std::uint64_t delivered_after = 0;
    for (int id = 0; id < experiment->network().node_count(); ++id)
        delivered_after += experiment->network().node(id).delivered();
    EXPECT_GT(delivered_after, delivered_outage);
    std::uint64_t backoffs = 0;
    for (const auto& source : experiment->sources()) backoffs += source->stats().backoff_retries;
    EXPECT_GT(backoffs, 0u);
    for (int f = 1; f <= grid.sources; ++f)
        EXPECT_FALSE(experiment->network().routing().is_suspended(f)) << "flow " << f;

    const auto ledger = analysis::audit_drop_accounting(*experiment);
    EXPECT_GT(ledger.generated, 0u);
    // The outage strands in-flight packets: flushed queues at the dead
    // node plus relays left holding frames for suspended flows.
    EXPECT_GT(ledger.drops_node_down + ledger.drops_unroutable, 0u);
}

TEST(FaultFlow, RelayDeathReroutesWithoutSuspension)
{
    net::GridSpec grid;
    grid.cols = 4;
    grid.rows = 4;
    grid.sources = 3;
    grid.duration_s = 10.0;
    ScenarioSpec spec = ScenarioSpec::grid_gateway(grid);
    spec.faults.node_down(8.0, 1).node_up(12.0, 1);
    ExperimentFactory factory(spec, ExperimentOptions{});
    std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/5);
    experiment->run();

    const sim::FaultInjector* injector = experiment->fault_injector();
    ASSERT_NE(injector, nullptr);
    EXPECT_GT(injector->stats().flows_rerouted, 0u);
    EXPECT_EQ(injector->stats().flows_suspended, 0u);
    EXPECT_EQ(injector->stats().flows_restored, injector->stats().flows_rerouted);
    // Restoration is exact: every flow ends on its planner-original path.
    for (const net::FlowPlan& plan : experiment->scenario().flows)
        EXPECT_EQ(experiment->network().routing().path(plan.flow_id), plan.path);
    analysis::audit_drop_accounting(*experiment);
}

TEST(FaultFlow, ChurnedRunBalancesItsLedger)
{
    // Seeded random churn over the relay column: many down/up cycles,
    // every one repaired, and the whole run's ledger still partitions.
    net::GridSpec grid;
    grid.cols = 4;
    grid.rows = 3;
    grid.sources = 3;
    grid.duration_s = 25.0;
    ScenarioSpec spec = ScenarioSpec::grid_gateway(grid);
    net::ChurnSpec churn;
    churn.candidates = {1, 2, 4, 5};
    churn.cycles = 6;
    churn.from_s = 7.0;
    churn.to_s = 28.0;
    churn.min_down_s = 0.5;
    churn.max_down_s = 2.0;
    spec.faults = net::FaultPlan::random_churn(churn, 99);
    ASSERT_FALSE(spec.faults.empty());
    ExperimentFactory factory(spec, ExperimentOptions{});
    std::unique_ptr<analysis::Experiment> experiment = factory.make(/*seed=*/17);
    experiment->run();
    experiment->run_until_s(40.0);
    EXPECT_EQ(experiment->network().channel().frame_pool().live(), 0u);
    const auto ledger = analysis::audit_drop_accounting(*experiment);
    EXPECT_GT(ledger.generated, 0u);
    const sim::FaultInjector* injector = experiment->fault_injector();
    EXPECT_EQ(injector->stats().node_downs, injector->stats().node_ups);
    EXPECT_GT(injector->stats().node_downs, 0u);
}

TEST(FaultInjectorGuards, MultiShardNetworkRefused)
{
    // Route repair mutates the shared routing table; the injector must
    // refuse a genuinely sharded network outright.
    net::IslandsSpec islands;
    islands.islands = 2;
    islands.cols = 3;
    islands.rows = 2;
    islands.sources = 1;
    islands.max_shards = 2;
    net::Scenario scenario = net::make_islands(islands, /*seed=*/1);
    ASSERT_GT(scenario.network->shard_count(), 1);
    net::FaultPlan plan;
    plan.node_down(1.0, 1).node_up(2.0, 1);
    EXPECT_THROW(sim::FaultInjector(*scenario.network, plan), std::invalid_argument);
}

TEST(FaultInjectorGuards, DeterministicAcrossRepeatedRuns)
{
    // Same spec + seed -> byte-identical fingerprint, fault plan and all.
    const util::SimTime kill = util::from_seconds(5.3);
    EXPECT_EQ(chain_kill_cycle(kill, false), chain_kill_cycle(kill, false));
}

}  // namespace
}  // namespace ezflow
