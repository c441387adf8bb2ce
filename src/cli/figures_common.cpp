#include "cli/figures_common.h"

#include <mutex>
#include <stdexcept>
#include <tuple>

namespace ezflow::cli {

namespace {

using analysis::Mode;
using analysis::RunRecord;
using analysis::ScenarioSpec;

/// Everything a shared run depends on: shared_runs builds the spec
/// (scenario1/scenario2 at the scale) and the options (context_cell)
/// from exactly these fields, so equal keys are equal runs. --shards is
/// not among them: the hand-built paper scenarios ignore spec.shards.
struct RunKey {
    ScenarioSpec::Kind kind;
    double scale;
    std::uint64_t seed;
    Mode mode;
    bool streaming;

    bool operator<(const RunKey& other) const
    {
        return std::tie(kind, scale, seed, mode, streaming) <
               std::tie(other.kind, other.scale, other.seed, other.mode, other.streaming);
    }
};

/// The process-wide store of kept runs. Lookups and inserts lock; the
/// simulations themselves run outside the lock.
struct RunStore {
    std::mutex mutex;
    std::map<RunKey, std::shared_ptr<const RunRecord>> runs;
    std::uint64_t reused = 0;
};

RunStore& store()
{
    static RunStore instance;
    return instance;
}

}  // namespace

std::vector<SharedCell> shared_runs(const FigureContext& ctx, ScenarioSpec::Kind kind,
                                    const std::vector<Mode>& modes,
                                    const std::vector<analysis::SweepWindow>& windows)
{
    if (kind != ScenarioSpec::Kind::kScenario1 && kind != ScenarioSpec::Kind::kScenario2)
        throw std::invalid_argument("shared_runs: only the paper scenarios 1 and 2 are shared");
    const ScenarioSpec spec = kind == ScenarioSpec::Kind::kScenario1
                                  ? ScenarioSpec::scenario1(ctx.scale)
                                  : ScenarioSpec::scenario2(ctx.scale);
    std::vector<analysis::ExperimentFactory> factories;
    for (Mode mode : modes) factories.push_back(context_cell(ctx, spec, mode));

    // Mode-major (mode, seed) slots: the kept runs first, then the misses.
    const std::vector<std::uint64_t> seeds = ctx.seed_grid();
    const auto key = [&](std::size_t slot) {
        return RunKey{kind, ctx.scale, seeds[slot % seeds.size()], modes[slot / seeds.size()],
                      ctx.streaming};
    };
    std::vector<std::shared_ptr<const RunRecord>> runs(modes.size() * seeds.size());
    std::vector<std::size_t> misses;
    RunStore& kept = store();
    {
        const std::lock_guard<std::mutex> lock(kept.mutex);
        for (std::size_t slot = 0; slot < runs.size(); ++slot) {
            const auto it = kept.runs.find(key(slot));
            if (it != kept.runs.end())
                runs[slot] = it->second;
            else
                misses.push_back(slot);
        }
        kept.reused += runs.size() - misses.size();
    }

    std::vector<std::unique_ptr<RunRecord>> fresh =
        fan_out(ctx, static_cast<int>(misses.size()), [&](int i) {
            const std::size_t slot = misses[static_cast<std::size_t>(i)];
            return std::make_unique<RunRecord>(*analysis::run_audited(
                factories[slot / seeds.size()], seeds[slot % seeds.size()]));
        });
    {
        const std::lock_guard<std::mutex> lock(kept.mutex);
        for (std::size_t i = 0; i < misses.size(); ++i) {
            // Re-home each record on this thread at its exact size: left
            // in a worker's malloc arena, the kept series would pin and
            // fragment it for the rest of the command.
            runs[misses[i]] = std::make_shared<const RunRecord>(*fresh[i]);
            fresh[i].reset();
            kept.runs.emplace(key(misses[i]), runs[misses[i]]);
        }
    }

    std::vector<SharedCell> cells(modes.size());
    for (std::size_t m = 0; m < modes.size(); ++m) {
        SharedCell& cell = cells[m];
        cell.sweep.label = factories[m].label();
        for (std::size_t s = 0; s < seeds.size(); ++s) {
            cell.runs.push_back(runs[m * seeds.size() + s]);
            cell.sweep.per_seed.push_back(
                analysis::summarize_windows(*cell.runs.back(), seeds[s], windows));
        }
        analysis::aggregate(windows, cell.sweep);
    }
    return cells;
}

void clear_shared_runs()
{
    RunStore& kept = store();
    const std::lock_guard<std::mutex> lock(kept.mutex);
    kept.runs.clear();
}

std::uint64_t shared_runs_reused()
{
    RunStore& kept = store();
    const std::lock_guard<std::mutex> lock(kept.mutex);
    return kept.reused;
}

}  // namespace ezflow::cli
