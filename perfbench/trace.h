#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock since an arbitrary process-local origin.
inline double now_s()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point origin = clock::now();
    return std::chrono::duration<double>(clock::now() - origin).count();
}

/// One timed region of the benchmark's own code around a public call
/// into a layer of the library. `parent` indexes the enclosing span in
/// the same recorder (-1 for a root).
struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
};

/// In-memory span recorder. Disabled recorders record nothing and read
/// no clock, so an untraced pass pays only for the untaken branches.
/// Spans are written out once, after the run ends.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /// RAII span: opens on construction, closes on destruction.
    class Scope {
    public:
        Scope(Tracer& tracer, std::string name)
            : tracer_(tracer), id_(tracer.open(std::move(name)))
        {
        }
        ~Scope() { tracer_.close(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& tracer_;
        int id_;
    };

    int open(std::string name)
    {
        if (!enabled_) return -1;
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back(Span{std::move(name), now_s(), 0.0, parent});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void close(int id)
    {
        if (id < 0) return;
        spans_[static_cast<std::size_t>(id)].end_s = now_s();
        open_.pop_back();
    }

    const std::vector<Span>& spans() const { return spans_; }

private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

}  // namespace perfbench
