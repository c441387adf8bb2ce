#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ezflow::util {

/// Fixed-size std::thread worker pool with a FIFO job queue.
///
/// Used by analysis::SweepRunner and cli::fan_out to fan independent
/// simulations across cores. Jobs must not touch shared mutable state unless they
/// synchronize themselves; the sweep machinery gives every job its own
/// Network and a dedicated result slot, so no job-side locking is needed.
class ThreadPool {
public:
    /// `threads` <= 0 selects std::thread::hardware_concurrency().
    explicit ThreadPool(int threads = 0);
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;
    /// Drains the queue (runs every submitted job), then joins.
    ~ThreadPool();

    void submit(std::function<void()> job);

    /// Block until every submitted job has finished.
    void wait_idle();

    int size() const { return static_cast<int>(workers_.size()); }

private:
    void worker_loop();

    std::mutex mutex_;
    std::condition_variable work_available_;
    std::condition_variable all_done_;
    std::queue<std::function<void()>> jobs_;
    std::size_t in_flight_ = 0;
    bool shutting_down_ = false;
    std::vector<std::thread> workers_;
};

/// Run fn(0) .. fn(count - 1) across `threads` workers and return when all
/// are done. `threads` <= 0 selects hardware concurrency; an effective
/// thread count of 1 (or count <= 1) runs inline on the caller's thread.
/// The first exception thrown by any invocation is rethrown to the caller
/// (after all work completes).
void parallel_for(int count, int threads, const std::function<void(int)>& fn);

}  // namespace ezflow::util
