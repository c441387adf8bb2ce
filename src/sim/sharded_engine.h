#pragma once

#include <cstdint>
#include <vector>

#include "sim/scheduler.h"
#include "util/units.h"

namespace ezflow::sim {

/// Space-parallel driver over per-shard Schedulers.
///
/// The Network partitions nodes so that no radio (sense/delivery/
/// interference) edge crosses a shard boundary — see net::plan_shards —
/// and gives every shard its own Scheduler, Channel and
/// ContentionCoordinator. Shards therefore share no state mid-run, and
/// each run_until() is one epoch: every shard runs forward to the target
/// time on util::parallel_for, independently of worker count or
/// interleaving.
class ShardedEngine {
public:
    struct Options {
        int threads = 0;  ///< <= 0: hardware concurrency
    };

    ShardedEngine(std::vector<Scheduler*> shards, Options options);
    ShardedEngine(const ShardedEngine&) = delete;
    ShardedEngine& operator=(const ShardedEngine&) = delete;

    /// Advance every shard to `t` (one epoch).
    void run_until(util::SimTime t);

    int shard_count() const { return static_cast<int>(shards_.size()); }
    std::uint64_t epochs() const { return epochs_; }
    /// Cross-shard handoffs delivered: always 0, since shards exchange
    /// nothing. Kept as a counter so benchmark reports keep their field.
    std::uint64_t handoffs() const { return 0; }

private:
    std::vector<Scheduler*> shards_;
    Options options_;
    std::uint64_t epochs_ = 0;
};

}  // namespace ezflow::sim
