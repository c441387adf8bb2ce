#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment_factory.h"
#include "analysis/sweep.h"
#include "cli/figures_common.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace ezflow::analysis {
namespace {

SweepConfig small_config()
{
    SweepConfig config;
    // make_line flows are active on [5, 5 + duration); measure the settled
    // tail of that window.
    config.windows.push_back(SweepWindow{"steady", 7.0, 11.0, {0}});
    config.seeds = {7, 8, 9};
    return config;
}

ExperimentFactory small_factory(Mode mode)
{
    ExperimentOptions options;
    options.mode = mode;
    options.throughput_window = util::kSecond;
    return ExperimentFactory(ScenarioSpec::line(3, 6.0), options);
}

void expect_identical(const SweepResult& a, const SweepResult& b)
{
    ASSERT_EQ(a.per_seed.size(), b.per_seed.size());
    for (std::size_t s = 0; s < a.per_seed.size(); ++s) {
        EXPECT_EQ(a.per_seed[s].seed, b.per_seed[s].seed);
        ASSERT_EQ(a.per_seed[s].windows.size(), b.per_seed[s].windows.size());
        for (std::size_t w = 0; w < a.per_seed[s].windows.size(); ++w) {
            const auto& wa = a.per_seed[s].windows[w];
            const auto& wb = b.per_seed[s].windows[w];
            // Bit-identical, not approximately equal: the sweep must not
            // depend on thread count or scheduling.
            EXPECT_EQ(wa.fairness, wb.fairness);
            EXPECT_EQ(wa.aggregate_kbps, wb.aggregate_kbps);
            ASSERT_EQ(wa.flows.size(), wb.flows.size());
            for (std::size_t f = 0; f < wa.flows.size(); ++f) {
                EXPECT_EQ(wa.flows[f].mean_kbps, wb.flows[f].mean_kbps);
                EXPECT_EQ(wa.flows[f].stddev_kbps, wb.flows[f].stddev_kbps);
                EXPECT_EQ(wa.flows[f].mean_delay_s, wb.flows[f].mean_delay_s);
                EXPECT_EQ(wa.flows[f].max_delay_s, wb.flows[f].max_delay_s);
            }
        }
    }
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t w = 0; w < a.windows.size(); ++w) {
        EXPECT_EQ(a.windows[w].fairness.mean(), b.windows[w].fairness.mean());
        EXPECT_EQ(a.windows[w].aggregate_kbps.mean(), b.windows[w].aggregate_kbps.mean());
    }
}

TEST(SweepRunner, SameSeedGridIsBitIdenticalAcrossThreadCounts)
{
    const SweepConfig config = small_config();
    const std::vector<ExperimentFactory> cells = {small_factory(Mode::kBaseline80211),
                                                  small_factory(Mode::kEzFlow)};
    const std::vector<SweepResult> serial = SweepRunner(1).run_grid(cells, config);
    const std::vector<SweepResult> threaded = SweepRunner(4).run_grid(cells, config);
    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(threaded.size(), 2u);
    expect_identical(serial[0], threaded[0]);
    expect_identical(serial[1], threaded[1]);
    // And re-running the threaded sweep reproduces itself.
    const std::vector<SweepResult> again = SweepRunner(4).run_grid(cells, config);
    expect_identical(threaded[0], again[0]);
    expect_identical(threaded[1], again[1]);
}

TEST(SweepRunner, RunRecordsSummarizeLikeRunGrid)
{
    // The shared-runs path (run + audit, keep a RunRecord, summarize it
    // later) and run_grid share one summarization and one aggregation:
    // one grid cell must come out bit-identical either way, also from a
    // copy of the record made on another thread.
    const SweepConfig config = small_config();
    const ExperimentFactory factory = small_factory(Mode::kEzFlow);
    const SweepResult reference = SweepRunner(1).run(factory, config);

    SweepResult from_records;
    from_records.label = factory.label();
    for (std::uint64_t seed : config.seeds) {
        std::unique_ptr<RunRecord> record;
        std::thread worker(
            [&] { record = std::make_unique<RunRecord>(*run_audited(factory, seed)); });
        worker.join();
        const RunRecord rehomed = *record;
        record.reset();
        from_records.per_seed.push_back(summarize_windows(rehomed, seed, config.windows));
    }
    aggregate(config.windows, from_records);
    EXPECT_EQ(from_records.label, reference.label);
    expect_identical(reference, from_records);
    for (std::size_t s = 0; s < config.seeds.size(); ++s) {
        const auto& a = reference.per_seed[s].windows.front().flows.front();
        const auto& b = from_records.per_seed[s].windows.front().flows.front();
        EXPECT_EQ(a.throughput_samples, b.throughput_samples);
        EXPECT_EQ(a.delay_samples, b.delay_samples);
    }
}

TEST(RunRecord, KeepsTheSeriesFiguresRead)
{
    const ExperimentFactory factory = small_factory(Mode::kEzFlow);
    std::unique_ptr<Experiment> experiment = run_audited(factory, 7);
    const RunRecord record(*experiment);
    EXPECT_EQ(record.labels(), experiment->scenario().labels);
    ASSERT_EQ(record.flows().size(), experiment->scenario().flows.size());
    EXPECT_EQ(record.throughput(0).values(), experiment->throughput(0).series().values());
    EXPECT_EQ(record.delays(0).times(), experiment->sink().flow(0).delay_series.times());
    for (net::NodeId node : experiment->transmitting_nodes())
        EXPECT_EQ(record.cw_trace(node).values(), experiment->cw_tracer().trace(node).values());
    EXPECT_THROW(record.throughput(9), std::invalid_argument);
    EXPECT_THROW(record.cw_trace(99), std::invalid_argument);

    // Streaming runs keep no CW series, as their tracer.
    ExperimentOptions streaming = factory.options();
    streaming.streaming = true;
    const RunRecord streamed(*run_audited(ExperimentFactory(factory.spec(), streaming), 7));
    EXPECT_THROW(streamed.cw_trace(experiment->transmitting_nodes().front()), std::logic_error);
    EXPECT_GT(streamed.summarize(0, 7.0, 11.0).delay_samples, 0);
}

TEST(SweepRunner, SeedsActuallyVaryTheRuns)
{
    const SweepConfig config = small_config();
    const SweepResult result = SweepRunner(2).run(small_factory(Mode::kBaseline80211), config);
    ASSERT_EQ(result.per_seed.size(), 3u);
    std::set<double> distinct;
    for (const SeedResult& seed_result : result.per_seed)
        distinct.insert(seed_result.windows[0].flows[0].mean_kbps);
    EXPECT_GT(distinct.size(), 1u);  // different seeds, different runs
    // The aggregate accumulated one sample per seed.
    EXPECT_EQ(result.windows[0].flows[0].mean_kbps.count(), 3);
    EXPECT_GT(result.windows[0].flows[0].mean_kbps.mean(), 0.0);
}

TEST(SweepRunner, KeepFirstExperimentRetainsOneRunPerCell)
{
    SweepConfig config = small_config();
    ASSERT_GE(config.seeds.size(), 2u);
    config.keep_first_experiment = true;
    const std::vector<SweepResult> results = SweepRunner(2).run_grid(
        {small_factory(Mode::kBaseline80211), small_factory(Mode::kEzFlow)}, config);
    ASSERT_EQ(results.size(), 2u);
    for (const SweepResult& result : results) {
        ASSERT_NE(result.first_experiment, nullptr) << result.label;
        EXPECT_FALSE(result.first_experiment->throughput(0).series().empty());
        // The kept run is the first seed's, and it re-summarizes to
        // exactly that seed's windows.
        Experiment& first = *result.first_experiment;
        EXPECT_EQ(first.network().config().seed, config.seeds[0]) << result.label;
        const SeedResult again = summarize_windows(first, config.seeds[0], config.windows);
        EXPECT_EQ(again.windows[0].flows[0].mean_kbps,
                  result.per_seed[0].windows[0].flows[0].mean_kbps)
            << result.label;
    }
    config.keep_first_experiment = false;
    EXPECT_EQ(SweepRunner(2).run(small_factory(Mode::kBaseline80211), config).first_experiment,
              nullptr);
}

TEST(SweepRunner, RejectsEmptyGrids)
{
    SweepConfig config = small_config();
    const SweepRunner runner(2);
    EXPECT_THROW(runner.run_grid({}, config), std::invalid_argument);
    config.seeds.clear();
    EXPECT_THROW(runner.run(small_factory(Mode::kBaseline80211), config), std::invalid_argument);
}

TEST(SweepRunner, WorkerExceptionsPropagate)
{
    SweepConfig config = small_config();
    config.windows[0].flow_ids = {42};  // no such flow in the scenario
    EXPECT_THROW(SweepRunner(2).run(small_factory(Mode::kBaseline80211), config),
                 std::invalid_argument);
}

TEST(ScenarioSpec, BuildsEveryKind)
{
    EXPECT_EQ(scenario_name(ScenarioSpec::line(4, 10.0)), "line-4hop");
    EXPECT_EQ(scenario_name(ScenarioSpec::testbed(5, 65, 5, 65)), "testbed");
    const net::Scenario line = build_scenario(ScenarioSpec::line(4, 10.0), 7);
    EXPECT_EQ(line.network->node_count(), 5);
    EXPECT_EQ(line.flows.size(), 1u);
    const net::Scenario testbed = build_scenario(ScenarioSpec::testbed(5, 65, 10, 60), 7);
    EXPECT_EQ(testbed.flows.size(), 2u);
    EXPECT_DOUBLE_EQ(testbed.flows[1].start_s, 10.0);
}

TEST(ExperimentFactory, WithModeChangesOnlyTheMode)
{
    const ExperimentFactory base = small_factory(Mode::kBaseline80211);
    const ExperimentFactory ez = base.with_mode(Mode::kEzFlow);
    EXPECT_EQ(ez.options().mode, Mode::kEzFlow);
    EXPECT_EQ(ez.options().payload_bytes, base.options().payload_bytes);
    EXPECT_EQ(ez.spec().line_hops, base.spec().line_hops);
    EXPECT_EQ(base.label(), "line-3hop / 802.11");
    EXPECT_EQ(ez.label(), "line-3hop / EZ-flow");
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    util::parallel_for(257, 4, [&](int i) { ++hits[static_cast<std::size_t>(i)]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRunsInlineWhenSingleThreaded)
{
    std::vector<int> order;
    util::parallel_for(5, 1, [&](int i) { order.push_back(i); });  // no locking needed
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelForPropagatesFirstException)
{
    EXPECT_THROW(util::parallel_for(16, 4,
                                    [](int i) {
                                        if (i % 3 == 0) throw std::runtime_error("boom");
                                    }),
                 std::runtime_error);
}

TEST(ThreadPool, SubmitAndWaitIdle)
{
    util::ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3);
    std::atomic<int> done{0};
    for (int i = 0; i < 20; ++i) pool.submit([&done] { ++done; });
    pool.wait_idle();
    EXPECT_EQ(done.load(), 20);
}

cli::FigureContext context_with_threads(int threads)
{
    cli::FigureContext ctx;
    ctx.threads = threads;
    return ctx;
}

TEST(FanOut, ReturnsProductsInIndexOrder)
{
    for (const int threads : {1, 3, 8}) {
        // The earliest indices sleep longest, so on several workers the
        // tasks finish roughly in reverse order.
        const int count = 24;
        const std::vector<std::string> products =
            cli::fan_out(context_with_threads(threads), count, [&](int i) {
                std::this_thread::sleep_for(std::chrono::microseconds(300 * (count - i)));
                return "task " + std::to_string(i);
            });
        ASSERT_EQ(products.size(), static_cast<std::size_t>(count)) << threads;
        for (int i = 0; i < count; ++i)
            EXPECT_EQ(products[static_cast<std::size_t>(i)], "task " + std::to_string(i))
                << threads << " threads";
    }
}

TEST(FanOut, ZeroAndOneTaskRunInline)
{
    int calls = 0;
    const std::vector<int> none =
        cli::fan_out(context_with_threads(8), 0, [&](int i) { return ++calls + i; });
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(calls, 0);

    const std::thread::id caller = std::this_thread::get_id();
    const std::vector<std::thread::id> one = cli::fan_out(
        context_with_threads(8), 1, [](int) { return std::this_thread::get_id(); });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one.front(), caller);
}

TEST(FanOut, RethrowsFirstExceptionAfterEveryTaskFinished)
{
    for (const int threads : {1, 3, 8}) {
        std::atomic<int> finished{0};
        std::atomic<bool> late_thrower_ran{false};
        try {
            cli::fan_out(context_with_threads(threads), 12, [&](int i) {
                if (i == 0) throw std::runtime_error("first");
                std::this_thread::sleep_for(std::chrono::milliseconds(i == 7 ? 30 : 5));
                if (i == 7) {
                    late_thrower_ran = true;
                    throw std::logic_error("late");
                }
                ++finished;
                return i;
            });
            ADD_FAILURE() << "no exception at " << threads << " threads";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "first") << threads << " threads";
        }
        EXPECT_EQ(finished.load(), 10) << threads << " threads";
        EXPECT_TRUE(late_thrower_ran.load()) << threads << " threads";
    }
}

TEST(Log, ConcurrentWritersEmitWholeLines)
{
    // Sweep workers may log at once: every line must come out whole, and
    // level changes racing with writes must be safe (run under TSan).
    const util::LogLevel saved = util::Log::level();
    testing::internal::CaptureStderr();
    util::parallel_for(8, 4, [](int i) {
        util::Log::set_level(util::LogLevel::kInfo);
        for (int line = 0; line < 20; ++line)
            EZF_LOG(util::LogLevel::kInfo, -1, "worker " << i << " line " << line << " end");
    });
    const std::string out = testing::internal::GetCapturedStderr();
    util::Log::set_level(saved);
    std::istringstream lines(out);
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        ++count;
        EXPECT_EQ(line.rfind("worker ", 0), 0u) << line;
        EXPECT_EQ(line.size() - line.rfind(" end"), 4u) << line;
    }
    EXPECT_EQ(count, 8 * 20);
}

}  // namespace
}  // namespace ezflow::analysis
