#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment_factory.h"
#include "analysis/metrics.h"
#include "util/stats.h"

namespace ezflow::analysis {

/// One measurement interval of a sweep, in scenario seconds, plus the
/// flows to summarize inside it. Fairness (Jain's index) is computed over
/// exactly these flows.
struct SweepWindow {
    std::string label;
    double from_s = 0.0;
    double to_s = 0.0;
    std::vector<int> flow_ids;
};

struct SweepConfig {
    std::vector<SweepWindow> windows;
    std::vector<std::uint64_t> seeds;
    /// Keep each cell's first-seed Experiment alive in the result (time
    /// series, agents) for figure drivers that also read one run's
    /// traces; every other seed's run is freed once summarized.
    bool keep_first_experiment = false;
};

/// Per-seed measurements for one grid cell, in config order.
struct SeedResult {
    std::uint64_t seed = 0;
    struct Window {
        /// Parallel to SweepWindow::flow_ids.
        std::vector<Experiment::FlowSummary> flows;
        double fairness = 1.0;
        double aggregate_kbps = 0.0;
    };
    std::vector<Window> windows;
};

/// Across-seed aggregate of one flow in one window; each RunningStats
/// accumulates the per-seed summary values, so mean()/ci95 give the
/// sweep-level estimate and its confidence.
struct FlowAggregate {
    util::RunningStats mean_kbps;
    util::RunningStats stddev_kbps;
    util::RunningStats mean_delay_s;
    util::RunningStats max_delay_s;
};

struct WindowAggregate {
    std::vector<FlowAggregate> flows;  ///< parallel to SweepWindow::flow_ids
    util::RunningStats fairness;
    util::RunningStats aggregate_kbps;
};

/// Everything a sweep of one grid cell produced. Deterministic: the same
/// factory, seeds, and windows yield bit-identical per_seed/windows
/// contents regardless of the thread count (each task runs an
/// independent Network and writes to its own slot; aggregation happens
/// serially in seed order).
struct SweepResult {
    std::string label;                  ///< factory label, for reports
    std::vector<SeedResult> per_seed;   ///< parallel to config.seeds
    std::vector<WindowAggregate> windows;  ///< parallel to config.windows
    /// The run of config.seeds.front(), when kept.
    std::unique_ptr<Experiment> first_experiment;
};

/// The "run" half of a sweep task: build the experiment for `seed`, run
/// it to completion and audit its packet ledger (throws on a leak or a
/// double-count, so the goldens cannot absorb an accounting bug).
std::unique_ptr<Experiment> run_audited(const ExperimentFactory& factory, std::uint64_t seed);

/// The "summarize" half of a sweep task: every window's per-flow
/// summaries, their aggregate goodput and Jain's index over them, read
/// from a finished run: an Experiment, or the RunRecord kept of one
/// (both summarize bit-identically).
template <typename Run>
SeedResult summarize_windows(const Run& run, std::uint64_t seed,
                             const std::vector<SweepWindow>& windows)
{
    SeedResult result;
    result.seed = seed;
    result.windows.reserve(windows.size());
    for (const SweepWindow& window : windows) {
        SeedResult::Window measured;
        measured.flows.reserve(window.flow_ids.size());
        std::vector<double> rates;
        rates.reserve(window.flow_ids.size());
        for (int flow_id : window.flow_ids) {
            const Experiment::FlowSummary summary =
                run.summarize(flow_id, window.from_s, window.to_s);
            measured.aggregate_kbps += summary.mean_kbps;
            rates.push_back(summary.mean_kbps);
            measured.flows.push_back(summary);
        }
        measured.fairness = rates.empty() ? 1.0 : jain_index(rates);
        result.windows.push_back(std::move(measured));
    }
    return result;
}

/// Serial, seed-ordered merge of sweep.per_seed into sweep.windows: the
/// aggregation order is fixed so sweeps are bit-identical across thread
/// counts.
void aggregate(const std::vector<SweepWindow>& windows, SweepResult& sweep);

/// Fans an experiment grid (modes x seeds x scenario knobs, expressed as
/// ExperimentFactory cells x SweepConfig seeds) across a std::thread
/// pool. One independent Network per task; per-seed RNG streams are
/// derived from the task's seed alone, so results do not depend on
/// scheduling.
class SweepRunner {
public:
    /// `threads` <= 0 selects hardware concurrency.
    explicit SweepRunner(int threads = 0) : threads_(threads) {}

    /// Sweep one cell across config.seeds.
    SweepResult run(const ExperimentFactory& factory, const SweepConfig& config) const;

    /// Sweep several cells (e.g. one per mode) over the same seed grid.
    /// The full cells x seeds task list shares one pool, so parallelism
    /// spans the grid, not just one cell. Results are in cell order.
    std::vector<SweepResult> run_grid(const std::vector<ExperimentFactory>& cells,
                                      const SweepConfig& config) const;

    int threads() const { return threads_; }

private:
    int threads_;
};

}  // namespace ezflow::analysis
