#include "sim/sharded_engine.h"

#include <stdexcept>
#include <utility>

#include "util/thread_pool.h"

namespace ezflow::sim {

ShardedEngine::ShardedEngine(std::vector<Scheduler*> shards, Options options)
    : shards_(std::move(shards)), options_(options)
{
    if (shards_.empty()) throw std::invalid_argument("ShardedEngine: no shards");
    for (Scheduler* shard : shards_)
        if (shard == nullptr) throw std::invalid_argument("ShardedEngine: null shard");
}

void ShardedEngine::run_until(util::SimTime t)
{
    util::parallel_for(shard_count(), options_.threads, [&](int s) {
        shards_[static_cast<std::size_t>(s)]->run_until(t);
    });
    ++epochs_;
}

}  // namespace ezflow::sim
