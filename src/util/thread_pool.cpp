#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <utility>

namespace ezflow::util {

ThreadPool::ThreadPool(int threads)
{
    int n = threads > 0 ? threads : static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 1;
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutting_down_ = true;
    }
    work_available_.notify_all();
    for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> job)
{
    if (!job) throw std::invalid_argument("ThreadPool::submit: empty job");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutting_down_) throw std::logic_error("ThreadPool::submit: pool is shutting down");
        jobs_.push(std::move(job));
    }
    work_available_.notify_one();
}

void ThreadPool::wait_idle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return jobs_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_available_.wait(lock, [this] { return shutting_down_ || !jobs_.empty(); });
            if (jobs_.empty()) return;  // shutting down and drained
            job = std::move(jobs_.front());
            jobs_.pop();
            ++in_flight_;
        }
        job();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --in_flight_;
            if (jobs_.empty() && in_flight_ == 0) all_done_.notify_all();
        }
    }
}

void parallel_for(int count, int threads, const std::function<void(int)>& fn)
{
    if (count <= 0) return;
    int n = threads > 0 ? threads : static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 1;
    n = std::min(n, count);

    std::exception_ptr first_error;
    if (n == 1) {
        // Inline, with the pooled path's contract: every index runs, then
        // the first exception is rethrown.
        for (int i = 0; i < count; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!first_error) first_error = std::current_exception();
            }
        }
        if (first_error) std::rethrow_exception(first_error);
        return;
    }

    std::mutex error_mutex;
    {
        ThreadPool pool(n);
        for (int i = 0; i < count; ++i) {
            pool.submit([i, &fn, &first_error, &error_mutex] {
                try {
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error) first_error = std::current_exception();
                }
            });
        }
        pool.wait_idle();
    }
    if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ezflow::util
