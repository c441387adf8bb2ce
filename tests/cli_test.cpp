#include "cli/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/app.h"
#include "cli/figures.h"
#include "cli/figures_common.h"

namespace ezflow::cli {
namespace {

class RegistryTest : public ::testing::Test {
protected:
    void SetUp() override { register_builtin_figures(); }
};

TEST_F(RegistryTest, RegistrationIsIdempotent)
{
    const std::size_t count = FigureRegistry::instance().size();
    register_builtin_figures();
    register_builtin_figures();
    EXPECT_EQ(FigureRegistry::instance().size(), count);
}

TEST_F(RegistryTest, EnumeratesEveryFormerBenchAndExampleTarget)
{
    // Every former standalone main must be reachable by name.
    const std::vector<std::string> expected = {
        // bench figures/tables
        "fig01", "fig04", "fig06", "fig07", "fig08", "fig10", "fig11", "fig12",
        "table1", "table2", "table3", "table4",
        // bench ablations
        "ablation_pacer", "ablation_penalty_q", "ablation_phy_capture", "ablation_rtscts",
        "ablation_sample_window", "ablation_sniff_loss", "ablation_thresholds",
        // examples
        "quickstart", "parking_lot", "backhaul_gateway", "voip_mesh", "adaptive_traffic",
        "model_explorer"};
    for (const std::string& name : expected)
        EXPECT_NE(FigureRegistry::instance().find(name), nullptr) << name;
    EXPECT_GE(FigureRegistry::instance().size(), expected.size());
}

TEST_F(RegistryTest, FindResolvesFormerTargetNames)
{
    const FigureSpec* by_aka = FigureRegistry::instance().find("fig06_scenario1_throughput");
    ASSERT_NE(by_aka, nullptr);
    EXPECT_EQ(by_aka->name, "fig06");
    EXPECT_EQ(by_aka, FigureRegistry::instance().find("fig06"));
    EXPECT_EQ(FigureRegistry::instance().find("no_such_figure"), nullptr);
}

TEST_F(RegistryTest, ListIsNameSortedAndCategorized)
{
    const auto specs = FigureRegistry::instance().list();
    ASSERT_FALSE(specs.empty());
    EXPECT_TRUE(std::is_sorted(specs.begin(), specs.end(),
                               [](const FigureSpec* a, const FigureSpec* b) {
                                   return a->name < b->name;
                               }));
    for (const FigureSpec* spec : specs) {
        EXPECT_FALSE(spec->title.empty()) << spec->name;
        EXPECT_TRUE(spec->category == "figure" || spec->category == "table" ||
                    spec->category == "ablation" || spec->category == "example")
            << spec->name << " has category " << spec->category;
    }
}

TEST_F(RegistryTest, EveryRegisteredFigureIsRunnable)
{
    // `ezflow run --all` runs every entry, so none may be a listing
    // without a runner.
    for (const FigureSpec* spec : FigureRegistry::instance().list())
        EXPECT_TRUE(spec->runnable()) << spec->name;
}

TEST_F(RegistryTest, DuplicateRegistrationThrows)
{
    FigureSpec duplicate;
    duplicate.name = "fig06";
    EXPECT_THROW(FigureRegistry::instance().add(std::move(duplicate)), std::invalid_argument);
    FigureSpec aka_clash;
    aka_clash.name = "brand_new";
    aka_clash.aka = "fig06";
    // An aka colliding with an existing canonical name is also rejected.
    EXPECT_THROW(FigureRegistry::instance().add(std::move(aka_clash)), std::invalid_argument);
}

TEST_F(RegistryTest, SmokeGridsAreFasterThanDefaults)
{
    for (const FigureSpec* spec : FigureRegistry::instance().list()) {
        EXPECT_LE(spec->smoke_scale, spec->default_scale) << spec->name;
        EXPECT_LE(spec->smoke_seeds, spec->default_seeds) << spec->name;
        EXPECT_GT(spec->smoke_scale, 0.0) << spec->name;
        EXPECT_GE(spec->smoke_seeds, 1) << spec->name;
    }
}

TEST_F(RegistryTest, ContextDerivesSeedGridAndExtras)
{
    FigureContext ctx;
    ctx.seed = 100;
    ctx.seeds = 3;
    ctx.extra = {{"hops", "6"}, {"flag", "false"}};
    EXPECT_EQ(ctx.seed_grid(), (std::vector<std::uint64_t>{100, 101, 102}));
    EXPECT_EQ(ctx.extra_int("hops", 4), 6);
    EXPECT_EQ(ctx.extra_int("absent", 4), 4);
    EXPECT_FALSE(ctx.extra_bool("flag", true));
    EXPECT_TRUE(ctx.extra_bool("absent", true));
}

TEST_F(RegistryTest, RunnableFigureProducesStructuredResult)
{
    const FigureSpec* spec = FigureRegistry::instance().find("quickstart");
    ASSERT_NE(spec, nullptr);
    FigureContext ctx;
    ctx.spec = spec;
    ctx.scale = 0.1;  // 30 simulated seconds
    ctx.seed = 7;
    ctx.seeds = 1;
    ctx.threads = 1;
    const analysis::FigureResult result = spec->run(ctx);
    EXPECT_EQ(result.figure, "quickstart");
    ASSERT_EQ(result.cells.size(), 2u);  // 802.11 and EZ-flow
    for (const analysis::RunResult& cell : result.cells) {
        ASSERT_FALSE(cell.windows.empty());
        EXPECT_NE(cell.windows[0].find("goodput_kbps"), nullptr);
    }
    // And it serializes to stable JSON.
    const auto json = result.to_json();
    EXPECT_EQ(analysis::FigureResult::from_json(json).to_json().dump(), json.dump());
}

int run_cli(std::vector<std::string> args)
{
    std::vector<char*> argv;
    argv.reserve(args.size());
    for (std::string& arg : args) argv.push_back(arg.data());
    return run_app(static_cast<int>(argv.size()), argv.data());
}

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(App, SweepGridAcceptsShardsAxis)
{
    // Regression: the sweep grid advertised scale/seeds/seed/threads but
    // rejected shards, so shard-scaling sweeps needed hand-rolled loops.
    const std::string out = testing::TempDir() + "ezflow_sweep_shards";
    std::filesystem::remove_all(out);
    EXPECT_EQ(run_cli({"ezflow", "sweep", "islands", "--grid=shards=1:2", "--smoke", "--quiet",
                       "--json-only", "--out=" + out}),
              0);
    const std::string s1 = slurp(out + "/islands_shards1/islands.json");
    const std::string s2 = slurp(out + "/islands_shards2/islands.json");
    EXPECT_FALSE(s1.empty());
    // Shard count is an execution knob, never a result knob: the two
    // sweep points must be byte-identical.
    EXPECT_EQ(s1, s2);
    std::filesystem::remove_all(out);

    // Unknown axes are still a usage error (exit code 2).
    EXPECT_EQ(run_cli({"ezflow", "sweep", "islands", "--grid=bogus=1:2", "--quiet"}), 2);
}

TEST(App, MalformedFigureFlagIsAUsageError)
{
    // Figure-specific numeric flags parse strictly, like the core ones:
    // no number at all and a trailing remainder are both usage errors
    // (exit code 2), caught before any simulation runs.
    EXPECT_EQ(run_cli({"ezflow", "run", "grid_cross", "--smoke", "--quiet", "--cols=abc"}), 2);
    EXPECT_EQ(run_cli({"ezflow", "run", "grid_cross", "--smoke", "--quiet", "--cols=4x"}), 2);
}

TEST(App, PerfLinesAreDeltasPerFigure)
{
    // Every figure reports, and a sharded figure's shard count does not
    // stick to the figures after it.
    testing::internal::CaptureStdout();
    const int rc = run_cli({"ezflow", "run", "islands", "grid_cross", "ablation_pacer", "fig12",
                            "--smoke", "--shards=4"});
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("[perf] islands: 4 shards"), std::string::npos) << out;
    EXPECT_NE(out.find("[perf] grid_cross: "), std::string::npos) << out;
    EXPECT_EQ(out.find("[perf] grid_cross: 4 shards"), std::string::npos) << out;
    // ablation_pacer builds its networks outside SweepRunner.
    const std::size_t pacer = out.find("[perf] ablation_pacer: ");
    ASSERT_NE(pacer, std::string::npos) << out;
    EXPECT_NE(out.substr(pacer, out.find('\n', pacer) - pacer).find("(3 runs)"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("[perf] fig12: "), std::string::npos) << out;
    EXPECT_NE(out.find("no network runs"), std::string::npos) << out;

    // A figure served wholly from the command's shared runs says so; it
    // did run networks, just not itself.
    testing::internal::CaptureStdout();
    EXPECT_EQ(run_cli({"ezflow", "run", "fig06", "fig07", "--smoke"}), 0);
    const std::string shared = testing::internal::GetCapturedStdout();
    const std::size_t fig07 = shared.find("[perf] fig07: ");
    ASSERT_NE(fig07, std::string::npos) << shared;
    const std::string line = shared.substr(fig07, shared.find('\n', fig07) - fig07);
    EXPECT_NE(line.find(" 0 events (4 runs reused)"), std::string::npos) << line;
    EXPECT_EQ(shared.find("no network runs"), std::string::npos) << shared;
}

/// The [perf] line of `figure` in a run's captured stdout.
std::string perf_line(const std::string& out, const std::string& figure)
{
    const std::size_t at = out.find("[perf] " + figure + ": ");
    return at == std::string::npos ? "" : out.substr(at, out.find('\n', at) - at);
}

TEST(App, SharedScenarioFiguresMatchGoldensInAnyOrder)
{
    // Figs. 6-8 and backhaul_gateway view one scenario-1 experiment,
    // Figs. 10-11 and Table 3 one scenario-2 experiment. In forward order
    // the two-mode figures run first; in the second order the EZ-only
    // figures miss first and the later ones hit partly, then wholly.
    const std::vector<std::vector<std::string>> orders = {
        {"fig06", "fig07", "fig08", "backhaul_gateway", "fig10", "fig11", "table3"},
        {"fig11", "fig08", "table3", "backhaul_gateway", "fig10", "fig07", "fig06"},
    };
    for (std::size_t o = 0; o < orders.size(); ++o) {
        const std::string out = testing::TempDir() + "ezflow_shared_" + std::to_string(o);
        std::filesystem::remove_all(out);
        std::vector<std::string> args = {"ezflow", "run"};
        args.insert(args.end(), orders[o].begin(), orders[o].end());
        for (const char* flag : {"--smoke", "--quiet", "--json-only", "--threads=4"})
            args.emplace_back(flag);
        args.push_back("--out=" + out);
        ASSERT_EQ(run_cli(args), 0) << o;
        for (const std::string& figure : orders[o]) {
            const std::string golden =
                slurp(std::string(EZFLOW_GOLDENS_DIR) + "/" + figure + ".json");
            ASSERT_FALSE(golden.empty()) << figure;
            EXPECT_EQ(slurp(out + "/" + figure + ".json"), golden) << figure << ", order " << o;
        }
        std::filesystem::remove_all(out);
    }
}

TEST(App, EachCommandSimulatesItsOwnRuns)
{
    // The shared runs live for one command: a second command in the same
    // process simulates again, so in-process timings compare real runs.
    for (const char* threads : {"--threads=1", "--threads=4"}) {
        testing::internal::CaptureStdout();
        EXPECT_EQ(run_cli({"ezflow", "run", "fig08", "--smoke", threads}), 0);
        const std::string line = perf_line(testing::internal::GetCapturedStdout(), "fig08");
        EXPECT_NE(line.find("(2 runs)"), std::string::npos) << threads << ": " << line;
    }
    // Likewise every point of a sweep, so a threads axis times real runs.
    testing::internal::CaptureStdout();
    EXPECT_EQ(run_cli({"ezflow", "sweep", "fig08", "--grid=threads=1:4", "--smoke"}), 0);
    const std::string out = testing::internal::GetCapturedStdout();
    const std::size_t second = out.find("[sweep] fig08_threads4");
    ASSERT_NE(second, std::string::npos) << out;
    EXPECT_NE(perf_line(out, "fig08").find("(2 runs)"), std::string::npos) << out;
    EXPECT_NE(perf_line(out.substr(second), "fig08").find("(2 runs)"), std::string::npos) << out;
}

TEST(SharedRuns, KeyedByEveryKnobTheRunDependsOn)
{
    register_builtin_figures();
    FigureContext ctx;
    ctx.spec = FigureRegistry::instance().find("fig06");
    ctx.scale = 0.02;
    ctx.seed = 3;
    ctx.seeds = 1;
    ctx.threads = 2;
    const std::vector<analysis::SweepWindow> windows = {{"all", 0.0, 60.0, {1, 2}}};
    const std::vector<analysis::Mode> both = {analysis::Mode::kBaseline80211,
                                              analysis::Mode::kEzFlow};
    const auto reused_by = [&](const FigureContext& c, const std::vector<analysis::Mode>& modes) {
        const std::uint64_t before = shared_runs_reused();
        shared_runs(c, analysis::ScenarioSpec::Kind::kScenario1, modes, windows);
        return shared_runs_reused() - before;
    };
    clear_shared_runs();
    EXPECT_EQ(reused_by(ctx, {analysis::Mode::kEzFlow}), 0u);
    EXPECT_EQ(reused_by(ctx, both), 1u);  // the EZ-flow run is kept
    EXPECT_EQ(reused_by(ctx, both), 2u);

    FigureContext other = ctx;
    other.seeds = 2;  // seeds 3 and 4: seed 3 is kept
    EXPECT_EQ(reused_by(other, both), 2u);
    other = ctx;
    other.streaming = true;
    EXPECT_EQ(reused_by(other, both), 0u);
    other = ctx;
    other.shards = 2;  // the paper scenarios ignore the shard budget
    EXPECT_EQ(reused_by(other, both), 2u);
    other = ctx;
    other.scale = 0.03;
    EXPECT_EQ(reused_by(other, both), 0u);
    EXPECT_EQ(reused_by(ctx, both), 2u);

    clear_shared_runs();
    EXPECT_EQ(reused_by(ctx, both), 0u);
    EXPECT_THROW(shared_runs(ctx, analysis::ScenarioSpec::Kind::kLine, both, windows),
                 std::invalid_argument);
    clear_shared_runs();
}

TEST(App, FigureFlagsAreReadBeforeFanningOut)
{
    // quickstart reads --hops, then fans its two runs out: the flag is
    // consumed (no unused-flag warning) and the JSON matches one thread.
    const std::string out = testing::TempDir() + "ezflow_fanout_flags";
    std::filesystem::remove_all(out);
    for (const char* threads : {"1", "4"}) {
        testing::internal::CaptureStderr();
        const int rc = run_cli({"ezflow", "run", "quickstart", "--smoke", "--quiet", "--json-only",
                                "--hops=3", std::string("--threads=") + threads,
                                "--out=" + out + "/t" + threads});
        const std::string errors = testing::internal::GetCapturedStderr();
        EXPECT_EQ(rc, 0) << threads;
        EXPECT_EQ(errors.find("warning"), std::string::npos) << errors;
    }
    const std::string serial = slurp(out + "/t1/quickstart.json");
    EXPECT_NE(serial.find("N2.buf_mean"), std::string::npos);
    EXPECT_EQ(serial.find("N3.buf_mean"), std::string::npos);  // --hops=3 took effect
    EXPECT_EQ(serial, slurp(out + "/t4/quickstart.json"));
    std::filesystem::remove_all(out);

    // A malformed value is still a usage error naming the flag.
    testing::internal::CaptureStderr();
    testing::internal::CaptureStdout();
    const int rc = run_cli({"ezflow", "run", "quickstart", "--smoke", "--quiet", "--hops=abc",
                            "--threads=4"});
    testing::internal::GetCapturedStdout();
    const std::string errors = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 2);
    EXPECT_NE(errors.find("--hops"), std::string::npos) << errors;
}

TEST(App, CsvDumpsFromFannedOutRunsMatchAcrossThreadCounts)
{
    // fig01 and fig04 write their --csv series from inside their tasks.
    const std::string root = testing::TempDir() + "ezflow_fanout_csv";
    std::filesystem::remove_all(root);
    for (const char* threads : {"1", "4"})
        ASSERT_EQ(run_cli({"ezflow", "run", "fig01", "fig04", "--smoke", "--quiet", "--json-only",
                           std::string("--threads=") + threads,
                           "--csv=" + root + "/t" + threads}),
                  0);
    int files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(root + "/t1")) {
        const std::string name = entry.path().filename();
        EXPECT_EQ(slurp(entry.path()), slurp(root + "/t4/" + name)) << name;
        ++files;
    }
    // fig01: the relays of its 3- and 4-hop chains; fig04: three relays
    // in each of its four cases.
    EXPECT_EQ(files, 2 + 3 + 4 * 3);
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(root + "/t4"),
                            std::filesystem::directory_iterator{}),
              files);
    std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace ezflow::cli
