#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/event_fn.h"
#include "sim/scheduler.h"
#include "util/units.h"

namespace ezflow::sim {

/// Conservative space-parallel driver over per-shard Schedulers.
///
/// The Network partitions nodes so that no radio (sense/delivery/
/// interference) edge crosses a shard boundary — see net::plan_shards —
/// and gives every shard its own Scheduler, Channel and
/// ContentionCoordinator. Radio causality is therefore intra-shard by
/// construction and no null messages are needed: the engine simply runs
/// all shards forward in lockstep epochs on util::parallel_for.
///
/// The only cross-shard dependency is a timestamped wired handoff
/// (gateway/backhaul packet injection), posted mid-epoch via post().
/// Handoffs obey a conservative lookahead contract: a handoff posted
/// during an epoch must be stamped at or after that epoch's horizon, so
/// delivering it at the barrier never rewinds a shard. With no lookahead
/// configured (the default, correct while no wired links exist) each
/// run_until() is a single epoch.
///
/// Determinism: shards never share state mid-epoch, and the barrier
/// drains the mailbox sorted by (timestamp, posting shard, per-shard
/// post sequence) before scheduling into the targets — the same total
/// order regardless of worker count or interleaving.
class ShardedEngine {
public:
    struct Options {
        int threads = 0;        ///< <= 0: hardware concurrency
        util::SimTime lookahead = 0;  ///< <= 0: run each run_until() as one epoch
    };

    ShardedEngine(std::vector<Scheduler*> shards, Options options);
    ShardedEngine(const ShardedEngine&) = delete;
    ShardedEngine& operator=(const ShardedEngine&) = delete;

    /// Advance every shard to `t` (epoch loop with barriers).
    void run_until(util::SimTime t);

    /// Post a timestamped cross-shard handoff; delivered into the target
    /// shard's scheduler at the next epoch barrier. Callable from any
    /// shard worker mid-epoch. `at` must be >= the current epoch horizon
    /// (the conservative lookahead contract) — violations throw.
    void post(int from_shard, int to_shard, util::SimTime at, EventFn fn);

    int shard_count() const { return static_cast<int>(shards_.size()); }
    std::uint64_t epochs() const { return epochs_; }
    std::uint64_t handoffs() const { return handoffs_; }
    util::SimTime now() const { return clock_; }

private:
    struct Handoff {
        util::SimTime at;
        int from;
        std::uint64_t seq;  ///< per-posting-shard counter
        int to;
        EventFn fn;
    };

    std::vector<Scheduler*> shards_;
    Options options_;

    std::mutex mailbox_mutex_;
    std::vector<Handoff> mailbox_;
    std::vector<std::uint64_t> post_seq_;  ///< next seq per posting shard

    util::SimTime clock_ = 0;
    util::SimTime horizon_ = 0;
    std::uint64_t epochs_ = 0;
    std::uint64_t handoffs_ = 0;
};

}  // namespace ezflow::sim
