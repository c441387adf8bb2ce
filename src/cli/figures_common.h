#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "analysis/result.h"
#include "analysis/sweep.h"
#include "cli/registry.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/thread_pool.h"

// Shared plumbing for the registered figure runners — the successor of
// the old bench/bench_common.h, producing structured FigureResults
// instead of printf tables.
namespace ezflow::cli {

/// Run fn(0) .. fn(count - 1) on the context's sweep threads
/// (util::parallel_for) and return the products in index order, so a
/// runner that assembles its cells from them serially writes the same
/// JSON at any --threads. Each task must own everything it mutates (its
/// Network or Experiment, its Rng, its --csv files). Read every
/// ctx.extra_* flag before fanning out: those calls record the flag in
/// FigureContext::extra_consumed, which is not thread-safe. The first
/// exception a task throws is rethrown once every task has finished.
template <typename Fn>
auto fan_out(const FigureContext& ctx, int count, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, int>>
{
    using Product = std::invoke_result_t<Fn&, int>;
    // std::vector<bool> packs bits: concurrent writes to it would race.
    static_assert(!std::is_same_v<Product, bool>, "fan_out: return a struct, not a bool");
    std::vector<Product> products(static_cast<std::size_t>(std::max(count, 0)));
    util::parallel_for(count, ctx.threads,
                       [&](int i) { products[static_cast<std::size_t>(i)] = fn(i); });
    return products;
}

/// Append one cell per label, in order, each taking the next
/// windows.size() / labels.size() windows: the row-major cells x windows
/// grid a fan_out over (cell, window) indices returns.
inline void add_cells(analysis::FigureResult& result, const std::vector<std::string>& labels,
                      std::vector<analysis::WindowResult> windows)
{
    const std::size_t per_cell = windows.size() / labels.size();
    for (std::size_t c = 0; c < labels.size(); ++c) {
        analysis::RunResult& cell = result.add_cell(labels[c]);
        for (std::size_t w = 0; w < per_cell; ++w)
            cell.windows.push_back(std::move(windows[c * per_cell + w]));
    }
}

/// The sweep cell of `spec` under `mode` with the context's --shards and
/// --streaming applied. shared_runs keys its kept runs by --streaming
/// (the paper scenarios it serves ignore --shards), so any further
/// context knob read here must join that key too.
inline analysis::ExperimentFactory context_cell(const FigureContext& ctx,
                                                analysis::ScenarioSpec spec, analysis::Mode mode)
{
    // --shards overrides the figure's shard budget; connected
    // topologies collapse back to one shard, so this is always safe.
    if (ctx.shards > 0) spec.shards = ctx.shards;
    analysis::ExperimentOptions options;
    options.mode = mode;
    options.streaming = ctx.streaming;
    return analysis::ExperimentFactory(spec, options);
}

/// Fan `specs` x `modes` x the context's seed grid across one thread
/// pool; one ExperimentFactory cell per (spec, mode), results spec-major
/// in mode order.
inline std::vector<analysis::SweepResult> sweep_modes(
    const FigureContext& ctx, const std::vector<analysis::ScenarioSpec>& specs,
    const std::vector<analysis::Mode>& modes, std::vector<analysis::SweepWindow> windows)
{
    std::vector<analysis::ExperimentFactory> cells;
    cells.reserve(specs.size() * modes.size());
    for (const analysis::ScenarioSpec& spec : specs)
        for (analysis::Mode mode : modes) cells.push_back(context_cell(ctx, spec, mode));
    analysis::SweepConfig config;
    config.windows = std::move(windows);
    config.seeds = ctx.seed_grid();
    return analysis::SweepRunner(ctx.threads).run_grid(cells, config);
}

/// One mode's cell of a paper scenario's shared runs: the sweep over the
/// figure's windows (label, per-seed and aggregated summaries) and the
/// kept record of every run, in seed-grid order.
struct SharedCell {
    analysis::SweepResult sweep;
    std::vector<std::shared_ptr<const analysis::RunRecord>> runs;
};

/// Sweep paper scenario `kind` (kScenario1 or kScenario2, at ctx.scale)
/// over `modes` x the context's seed grid, simulating each run at most
/// once per command: Figs. 6-8 and backhaul_gateway view one scenario-1
/// experiment, Figs. 10-11 and Table 3 one scenario-2 experiment. Runs
/// are kept by (kind, ctx.scale, seed, mode, ctx.streaming, ctx.shards);
/// misses fan out on the sweep pool. Results are in mode order and
/// byte-identical to a fresh sweep_modes over the same grid.
std::vector<SharedCell> shared_runs(const FigureContext& ctx, analysis::ScenarioSpec::Kind kind,
                                    const std::vector<analysis::Mode>& modes,
                                    const std::vector<analysis::SweepWindow>& windows);

/// Free every kept run; the CLI calls this as each command returns and
/// after each sweep point.
void clear_shared_runs();

/// Runs shared_runs served from the kept ones instead of simulating,
/// since the process started (a [perf] line reports the difference).
std::uint64_t shared_runs_reused();

/// Start a FigureResult stamped with the context's run options.
inline analysis::FigureResult make_result(const FigureContext& ctx)
{
    analysis::FigureResult result;
    result.figure = ctx.spec->name;
    result.title = ctx.spec->title;
    result.scale = ctx.scale;
    result.seed = ctx.seed;
    result.seeds = ctx.seeds;
    return result;
}

/// The three activity periods of scenario 1 (Fig. 5 timeline), scaled.
struct Scenario1Periods {
    double p1_begin, p1_end;  ///< F1 alone
    double p2_begin, p2_end;  ///< F1 + F2
    double p3_begin, p3_end;  ///< F1 alone again
    double total;

    explicit Scenario1Periods(double scale)
        : p1_begin(5 * scale),
          p1_end(605 * scale),
          p2_begin(605 * scale),
          p2_end(1804 * scale),
          p3_begin(1804 * scale),
          p3_end(2504 * scale),
          total(2504 * scale)
    {
    }

    /// The settled regime of each period (the paper reports means net of a
    /// warmup after every traffic-matrix change), as sweep windows.
    std::vector<analysis::SweepWindow> windows() const
    {
        const double w1 = 0.3 * (p1_end - p1_begin);
        const double w2 = 0.3 * (p2_end - p2_begin);
        return {
            {"F1 alone", p1_begin + w1, p1_end, {1}},
            {"F1 + F2", p2_begin + w2, p2_end, {1, 2}},
            {"F1 alone again", p3_begin + w2, p3_end, {1}},
        };
    }
};

/// The three activity periods of scenario 2 (Fig. 9 timeline), scaled.
struct Scenario2Periods {
    double p1_begin, p1_end;  ///< F1 + F2
    double p2_begin, p2_end;  ///< F1 + F2 + F3
    double p3_begin, p3_end;  ///< F1 alone
    double total;

    explicit Scenario2Periods(double scale)
        : p1_begin(5 * scale),
          p1_end(1805 * scale),
          p2_begin(1805 * scale),
          p2_end(3605 * scale),
          p3_begin(3605 * scale),
          p3_end(4500 * scale),
          total(4500 * scale)
    {
    }

    std::vector<analysis::SweepWindow> windows() const
    {
        const double w1 = 0.3 * (p1_end - p1_begin);
        const double w2 = 0.3 * (p2_end - p2_begin);
        const double w3 = 0.3 * (p3_end - p3_begin);
        return {
            {"F1 + F2", p1_begin + w1, p1_end, {1, 2}},
            {"F1 + F2 + F3", p2_begin + w2, p2_end, {1, 2, 3}},
            {"F1 alone", p3_begin + w3, p3_end, {1}},
        };
    }
};

/// Dump a time series set as CSV when the context carries a --csv dir.
inline void maybe_dump_series(
    const FigureContext& ctx, const std::string& name,
    const std::vector<std::pair<std::string, const util::TimeSeries*>>& series)
{
    if (ctx.csv_dir.empty()) return;
    for (const auto& [label, ts] : series) {
        util::CsvWriter csv(ctx.csv_dir + "/" + name + "_" + label + ".csv", {"time_s", "value"});
        for (std::size_t i = 0; i < ts->size(); ++i)
            csv.add_row(std::vector<double>{util::to_seconds(ts->times()[i]), ts->values()[i]});
    }
}

/// Node id for a paper label like "N12" (-1 when absent).
inline int label_to_node(const std::map<net::NodeId, std::string>& labels,
                         const std::string& label)
{
    for (const auto& [id, l] : labels)
        if (l == label) return id;
    return -1;
}

}  // namespace ezflow::cli
