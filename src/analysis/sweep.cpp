#include "analysis/sweep.h"

#include <atomic>
#include <cstdio>
#include <stdexcept>

#include "analysis/drop_audit.h"
#include "util/thread_pool.h"

namespace ezflow::analysis {

std::unique_ptr<Experiment> run_audited(const ExperimentFactory& factory, std::uint64_t seed)
{
    std::unique_ptr<Experiment> experiment = factory.make(seed);
    experiment->run();
    // Interceptor runs (EZ-Flow pacers) cannot balance their ledger and
    // are skipped: announce that coverage gap once per process instead
    // of silently returning an all-zero ledger.
    if (audit_drop_accounting(*experiment).skipped()) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true, std::memory_order_relaxed))
            std::fprintf(stderr,
                         "[audit] drop-accounting audit skipped for runs with forward "
                         "interceptors (pacer holds packets outside the MAC queues); "
                         "conservation is unchecked there\n");
    }
    return experiment;
}

void aggregate(const std::vector<SweepWindow>& windows, SweepResult& sweep)
{
    sweep.windows.assign(windows.size(), WindowAggregate{});
    for (std::size_t w = 0; w < windows.size(); ++w)
        sweep.windows[w].flows.assign(windows[w].flow_ids.size(), FlowAggregate{});

    for (const SeedResult& seed_result : sweep.per_seed) {
        for (std::size_t w = 0; w < seed_result.windows.size(); ++w) {
            const SeedResult::Window& measured = seed_result.windows[w];
            WindowAggregate& agg = sweep.windows[w];
            for (std::size_t f = 0; f < measured.flows.size(); ++f) {
                const Experiment::FlowSummary& summary = measured.flows[f];
                // A window the run never measured (no throughput windows /
                // no deliveries inside it) contributes no sample: its 0.0
                // is fabricated, and folding it in would be
                // indistinguishable from a genuine zero. The across-seed
                // count then lands in the result JSON as n=0 — diffable as
                // missing data, not as a measured zero.
                if (summary.throughput_samples > 0) {
                    agg.flows[f].mean_kbps.add(summary.mean_kbps);
                    agg.flows[f].stddev_kbps.add(summary.stddev_kbps);
                }
                if (summary.delay_samples > 0) {
                    agg.flows[f].mean_delay_s.add(summary.mean_delay_s);
                    agg.flows[f].max_delay_s.add(summary.max_delay_s);
                }
            }
            agg.fairness.add(measured.fairness);
            agg.aggregate_kbps.add(measured.aggregate_kbps);
        }
    }
}

SweepResult SweepRunner::run(const ExperimentFactory& factory, const SweepConfig& config) const
{
    std::vector<SweepResult> results = run_grid({factory}, config);
    return std::move(results.front());
}

std::vector<SweepResult> SweepRunner::run_grid(const std::vector<ExperimentFactory>& cells,
                                               const SweepConfig& config) const
{
    if (cells.empty()) throw std::invalid_argument("SweepRunner::run_grid: no cells");
    if (config.seeds.empty()) throw std::invalid_argument("SweepRunner::run_grid: no seeds");

    std::vector<SweepResult> results(cells.size());
    const std::size_t seeds = config.seeds.size();
    for (std::size_t c = 0; c < cells.size(); ++c) {
        results[c].label = cells[c].label();
        results[c].per_seed.resize(seeds);
    }

    // One task per (cell, seed); every task owns its Network and writes
    // only to its pre-sized slot.
    const int task_count = static_cast<int>(cells.size() * seeds);
    util::parallel_for(task_count, threads_, [&](int task) {
        const std::size_t c = static_cast<std::size_t>(task) / seeds;
        const std::size_t s = static_cast<std::size_t>(task) % seeds;
        std::unique_ptr<Experiment> experiment = run_audited(cells[c], config.seeds[s]);
        results[c].per_seed[s] = summarize_windows(*experiment, config.seeds[s], config.windows);
        if (config.keep_first_experiment && s == 0)
            results[c].first_experiment = std::move(experiment);
    });

    for (SweepResult& result : results) aggregate(config.windows, result);
    return results;
}

}  // namespace ezflow::analysis
