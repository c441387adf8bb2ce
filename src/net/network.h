#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "mac/contention.h"
#include "mac/mac_params.h"
#include "net/node.h"
#include "net/routing.h"
#include "net/shard_plan.h"
#include "phy/channel.h"
#include "sim/scheduler.h"
#include "sim/sharded_engine.h"
#include "util/rng.h"

namespace ezflow::net {

/// Process-wide tally of simulation effort, added to as every
/// Network::run_until returns. The CLI's [perf] line reports the
/// difference of two snapshots; nothing here enters a result JSON, so
/// byte-determinism across thread counts is untouched.
struct PerfTotals {
    std::uint64_t events = 0;  ///< scheduler events processed
    std::uint64_t runs = 0;    ///< networks run (each counted once)
    /// Runs by shard count (1 = the serial engine).
    std::map<int, std::uint64_t> runs_by_shards;
    /// Events processed per shard id by multi-shard runs.
    std::vector<std::uint64_t> shard_events;

    /// Field-by-field `*this - before`; totals only grow, so the
    /// difference is what ran in between.
    PerfTotals since(const PerfTotals& before) const;
    /// Widest shard count among the tallied runs (0 when none ran).
    int widest_shards() const;
};

/// Snapshot of the accumulated totals.
PerfTotals perf_totals();

/// Everything a simulation needs, wired together: scheduler, channel,
/// nodes, routing. Owns all components; nodes are addressed by dense ids
/// in creation order.
///
/// With a ShardPlan in the config the Network is space-parallel: every
/// shard owns its own Scheduler/Channel/ContentionCoordinator, nodes
/// bind to their shard's trio, and run_until() runs every shard to the
/// target time on sim::ShardedEngine. The plan guarantees no radio
/// edge crosses shards (see plan_shards), so sharded execution is
/// byte-identical to the serial reference. Without a plan (the default)
/// there is exactly one shard and execution is the serial reference
/// itself.
class Network {
public:
    struct Config {
        phy::PhyParams phy;
        mac::MacParams mac;
        /// PHY model selection (propagation / interference / rate). The
        /// default is the reference configuration, which is an exact no-op
        /// on every channel. Applied to all shards at construction; can be
        /// re-applied later via set_phy_models (before traffic starts).
        phy::PhyModelConfig models;
        std::uint64_t seed = 1;
        /// Upper bound on shards a topology generator may plan for; the
        /// generators compute `shard_plan` from this before construction.
        int max_shards = 1;
        /// Node-to-shard assignment (empty: single shard, serial
        /// reference). Must cover every node id that will be added.
        ShardPlan shard_plan;
    };

    explicit Network(Config config);
    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /// Create a node at `position`; returns its id (dense, from 0).
    NodeId add_node(phy::Position position);

    /// Register a static flow path. All nodes must already exist,
    /// consecutive path nodes must be within delivery range, and the
    /// whole path must stay inside one shard (radio hops cannot cross
    /// the partition, and shards exchange nothing mid-run).
    void add_flow(int flow_id, std::vector<NodeId> path);

    Node& node(NodeId id);
    const Node& node(NodeId id) const;
    int node_count() const { return static_cast<int>(nodes_.size()); }

    /// Shard 0's scheduler/channel/coordinator — in the unsharded case
    /// (every canned scenario) the only ones, i.e. the serial reference.
    sim::Scheduler& scheduler() { return shards_[0]->scheduler; }
    phy::Channel& channel() { return shards_[0]->channel; }
    mac::ContentionCoordinator& contention() { return shards_[0]->contention; }

    int shard_count() const { return static_cast<int>(shards_.size()); }
    int shard_of(NodeId id) const;
    sim::Scheduler& scheduler_for(NodeId id) { return shard(shard_of(id)).scheduler; }
    sim::Scheduler& shard_scheduler(int s) { return shard(s).scheduler; }
    phy::Channel& shard_channel(int s) { return shard(s).channel; }

    /// Aggregates across shards (equal to the singular accessors'
    /// counters when shard_count() == 1).
    std::uint64_t total_processed() const;
    std::uint64_t total_transmissions() const;
    std::uint64_t total_data_transmissions() const;
    std::uint64_t shard_processed(int s) const { return shard(s).scheduler.processed(); }

    /// The forwarding table every node's per-packet forwarding reads.
    StaticRouting& routing() { return routing_; }
    const StaticRouting& routing() const { return routing_; }
    const Config& config() const { return config_; }

    /// Fork an independent RNG stream from the network's root seed
    /// (for traffic sources, agents, etc.).
    util::Rng fork_rng() { return rng_.fork(); }

    /// Apply a PHY model selection to every shard's channel. A reference
    /// config is an exact no-op. Install models before traffic starts —
    /// swapping mid-run would tear per-link state out from under in-flight
    /// frames.
    void set_phy_models(const phy::PhyModelConfig& models);

    /// Set the A-MPDU batch size on every node's MAC (1 = legacy
    /// single-MSDU pipeline, the golden-pinned default). Call after the
    /// topology is built and before traffic starts.
    void set_ampdu_max_mpdus(int k);

    /// Worker threads for the sharded engine (<= 0: hardware
    /// concurrency). Takes effect when the engine is first built, i.e.
    /// set it before the first run_until(). No effect on results —
    /// sharded execution is deterministic for any thread count.
    void set_shard_threads(int threads) { shard_threads_ = threads; }

    /// The shard driver; built on demand when shard_count() > 1 (null
    /// for a single shard — run_until drives the scheduler directly).
    sim::ShardedEngine* sharded_engine();

    // --- fault injection ---
    /// Graceful node teardown: quiesce the MAC (queues flush into
    /// drops_node_down, gated sources wake onto their backoff path),
    /// power off the radio, and detach it from its shard's channel —
    /// invalidating the reachability cache. In-flight frames from the
    /// dying node still complete at their receivers (the energy is on
    /// the air); frames to it die unheard. Idempotent.
    void set_node_down(NodeId id);
    /// Revival: reattach the PHY, power it on, revive the MAC. Routing
    /// repair is the fault injector's job, not Network's. Idempotent.
    void set_node_up(NodeId id);
    bool node_is_up(NodeId id) const { return node(id).is_up(); }

    /// Advance simulated time, then add the events it took to
    /// perf_totals().
    void run_until(util::SimTime t);
    util::SimTime now() const { return shards_[0]->scheduler.now(); }

private:
    struct Shard {
        sim::Scheduler scheduler;
        phy::Channel channel;
        mac::ContentionCoordinator contention;
        Shard(util::Rng channel_rng, const phy::PhyParams& params)
            : channel(scheduler, std::move(channel_rng), params), contention(scheduler)
        {
        }
    };

    Shard& shard(int s);
    const Shard& shard(int s) const;
    /// Add the events processed since the last tally to perf_totals().
    void tally_perf();

    Config config_;
    util::Rng rng_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<int> shard_of_;  ///< dense by node id
    StaticRouting routing_;
    std::vector<std::unique_ptr<Node>> nodes_;
    int shard_threads_ = 0;
    std::unique_ptr<sim::ShardedEngine> engine_;
    /// Per-shard processed counts at the last tally (empty: never run).
    std::vector<std::uint64_t> tallied_;
};

}  // namespace ezflow::net
