#include "sim/sharded_engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.h"

namespace ezflow::sim {

ShardedEngine::ShardedEngine(std::vector<Scheduler*> shards, Options options)
    : shards_(std::move(shards)), options_(options), post_seq_(shards_.size(), 0)
{
    if (shards_.empty()) throw std::invalid_argument("ShardedEngine: no shards");
    for (Scheduler* shard : shards_)
        if (shard == nullptr) throw std::invalid_argument("ShardedEngine: null shard");
}

void ShardedEngine::run_until(util::SimTime t)
{
    // Every shard's clock sits at clock_ between epochs (run_until leaves
    // the scheduler clock at the horizon even when no event lands there).
    while (clock_ < t) {
        const util::SimTime horizon =
            options_.lookahead > 0 ? std::min<util::SimTime>(t, clock_ + options_.lookahead) : t;
        horizon_ = horizon;
        util::parallel_for(shard_count(), options_.threads, [&](int s) {
            shards_[static_cast<std::size_t>(s)]->run_until(horizon);
        });

        // Barrier: deliver the epoch's handoffs in one deterministic
        // total order — by timestamp, then posting shard, then the
        // poster's own sequence — so target-side event seqs are
        // independent of worker interleaving.
        std::vector<Handoff> drained;
        {
            std::lock_guard<std::mutex> lock(mailbox_mutex_);
            drained.swap(mailbox_);
        }
        std::sort(drained.begin(), drained.end(), [](const Handoff& a, const Handoff& b) {
            if (a.at != b.at) return a.at < b.at;
            if (a.from != b.from) return a.from < b.from;
            return a.seq < b.seq;
        });
        for (Handoff& handoff : drained) {
            shards_[static_cast<std::size_t>(handoff.to)]->schedule_at(handoff.at,
                                                                       std::move(handoff.fn));
        }
        handoffs_ += drained.size();
        clock_ = horizon;
        ++epochs_;
    }
}

void ShardedEngine::post(int from_shard, int to_shard, util::SimTime at, EventFn fn)
{
    if (from_shard < 0 || from_shard >= shard_count() || to_shard < 0 ||
        to_shard >= shard_count())
        throw std::invalid_argument("ShardedEngine::post: bad shard id");
    std::lock_guard<std::mutex> lock(mailbox_mutex_);
    if (at < horizon_)
        throw std::logic_error(
            "ShardedEngine::post: handoff timestamp precedes the epoch horizon "
            "(conservative lookahead contract violated)");
    mailbox_.push_back(Handoff{at, from_shard, post_seq_[static_cast<std::size_t>(from_shard)]++,
                               to_shard, std::move(fn)});
}

}  // namespace ezflow::sim
