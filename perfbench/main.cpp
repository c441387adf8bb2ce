// perfbench: the repository benchmark. Runs one workload for a
// fixed wall-clock budget, checks every operation's output, and prints
// the end-to-end metrics (or, traced, the per-layer metrics) as one JSON
// object on the last line of standard output. See README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--goldens DIR] [--report-dir DIR] [--commit SHA]
//   perfbench --selftest [--goldens DIR]
//
// Every pass runs in a forked child process, so a crash, a hang or a
// thrown error in the library is counted as failed operations instead of
// taking the benchmark down, and each pass's peak RSS is its own.

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using ezflow::util::Json;

/// Wall-clock ceiling for one invocation, set-up and checks included.
constexpr double kHardLimitS = 170.0;
/// Passes measured at the least, whatever --seconds says.
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 400;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    bool selftest = false;
    std::string goldens = "goldens";
    std::string report_dir = ".bench_build/reports";
    std::string commit = "unknown";
};

Args parse_args(int argc, char** argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") {
            args.selftest = true;
            continue;
        }
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args.seconds = std::stoi(value);
            if (args.seconds < 1 || args.seconds > 120)
                throw std::invalid_argument("--seconds must be in [1, 120]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") throw std::invalid_argument("--trace must be 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--goldens") {
            args.goldens = value;
        } else if (flag == "--report-dir") {
            args.report_dir = value;
        } else if (flag == "--commit") {
            args.commit = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!args.selftest && !have_workload) throw std::invalid_argument("--workload is required");
    return args;
}

int online_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
    return static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
}

Budget make_budget()
{
    Budget budget;
    budget.nproc = online_cpus();
    budget.sweep_threads = std::min(4, budget.nproc);
    budget.shard_threads = std::min(4, budget.nproc);
    return budget;
}

/// CPU model and clock from /proc/cpuinfo ("unknown" / 0 when absent).
std::pair<std::string, double> cpu_model_mhz()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line, model = "unknown";
    double mhz = 0.0;
    auto value_of = [](const std::string& l) {
        const auto colon = l.find(':');
        std::string v = colon == std::string::npos ? "" : l.substr(colon + 1);
        v.erase(0, v.find_first_not_of(" \t"));
        return v;
    };
    while (std::getline(in, line)) {
        if (model == "unknown" && line.rfind("model name", 0) == 0) model = value_of(line);
        if (mhz == 0.0 && line.rfind("cpu MHz", 0) == 0) mhz = std::atof(value_of(line).c_str());
    }
    return {model, mhz};
}

Json host_stamp(const Args& args, const Budget& budget)
{
    const auto [model, mhz] = cpu_model_mhz();
    Json host = Json::object();
    host.set("nproc", budget.nproc);
    host.set("sweep_threads", budget.sweep_threads);
    host.set("shard_threads", budget.shard_threads);
    host.set("cpu_model", model);
    host.set("cpu_mhz", mhz);
#if defined(__clang__)
    host.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    host.set("compiler", std::string("g++ ") + __VERSION__);
#else
    host.set("compiler", "unknown");
#endif
    host.set("build_type", PERFBENCH_BUILD_TYPE);
    host.set("commit", args.commit);
    return host;
}

struct ChildOutcome {
    bool ok = false;
    PassResult result;
    std::string error;
};

/// Run `body` in a forked child and collect its PassResult over a pipe.
/// The child is killed at `deadline_s` (on the now_s() clock); the parent
/// always reaps it before returning.
ChildOutcome run_in_child(const std::function<PassResult()>& body, double deadline_s)
{
    ChildOutcome outcome;
    int fds[2];
    if (pipe(fds) != 0) {
        outcome.error = std::string("pipe: ") + std::strerror(errno);
        return outcome;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        outcome.error = std::string("fork: ") + std::strerror(errno);
        return outcome;
    }
    if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
        close(fds[0]);
        std::string payload;
        try {
            payload = body().to_json().dump(0);
        } catch (const std::exception& e) {
            Json err = Json::object();
            err.set("error", e.what());
            payload = err.dump(0);
        }
        std::size_t off = 0;
        while (off < payload.size()) {
            const ssize_t n = write(fds[1], payload.data() + off, payload.size() - off);
            if (n <= 0) _exit(3);
            off += static_cast<std::size_t>(n);
        }
        close(fds[1]);
        _exit(0);
    }
    close(fds[1]);
    std::string payload;
    bool timed_out = false;
    char buf[65536];
    for (;;) {
        const double left = deadline_s - now_s();
        if (left <= 0) {
            timed_out = true;
            break;
        }
        pollfd pfd{fds[0], POLLIN, 0};
        const int ready = poll(&pfd, 1, static_cast<int>(std::min(left, 1.0) * 1000) + 1);
        if (ready < 0 && errno != EINTR) break;
        if (ready <= 0) continue;
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        payload.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    if (timed_out) kill(pid, SIGKILL);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (timed_out) {
        outcome.error = "pass timed out and was killed";
    } else if (WIFSIGNALED(status)) {
        outcome.error = std::string("pass died on signal ") + strsignal(WTERMSIG(status));
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        outcome.error = "pass exited with status " + std::to_string(WEXITSTATUS(status));
    } else {
        try {
            const Json json = Json::parse(payload);
            if (const Json* err = json.find("error")) {
                outcome.error = "pass threw: " + err->as_string();
            } else {
                outcome.result = PassResult::from_json(json);
                outcome.ok = true;
            }
        } catch (const std::exception& e) {
            outcome.error = std::string("unreadable pass result: ") + e.what();
        }
    }
    return outcome;
}

double median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartiles as Python's statistics.quantiles(v, n=4) (exclusive method).
std::pair<double, double> quartiles(std::vector<double> v)
{
    if (v.size() < 2) return {median(v), median(v)};
    std::sort(v.begin(), v.end());
    auto at = [&](double p) {
        const double m = p * static_cast<double>(v.size() + 1);
        const int last = static_cast<int>(v.size()) - 1;
        const int j = std::clamp(static_cast<int>(std::floor(m)), 1, last);
        const double delta = m - j;
        return v[static_cast<std::size_t>(j - 1)] +
               delta * (v[static_cast<std::size_t>(j)] - v[static_cast<std::size_t>(j - 1)]);
    };
    return {at(0.25), at(0.75)};
}

struct MetricDef {
    const char* name;
    const char* unit;
};

const std::vector<MetricDef>& end_to_end_defs()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"}};
    return defs;
}

const std::vector<MetricDef>& per_layer_defs()
{
    static const std::vector<MetricDef> defs = {
        {"sim.events", "count"},
        {"sim.events_per_wall_s", "1/s"},
        {"sim.events_per_delivered_pkt", "count"},
        {"sim.arena_slots", "count"},
        {"sim.epochs", "count"},
        {"sim.events_per_epoch", "count"},
        {"sim.epoch_us", "us"},
        {"sim.shard_imbalance", "ratio"},
        {"sim.handoffs", "count"},
        {"phy.receptions_per_tx", "count"},
        {"phy.reach_per_tx", "count"},
        {"phy.first_step_s", "s"},
        {"phy.frame_pool_reuse_ratio", "ratio"},
        {"phy.transmissions", "count"},
        {"phy.decode_ratio", "ratio"},
        {"mac.data_attempts", "count"},
        {"mac.success_ratio", "ratio"},
        {"mac.retry_drops", "count"},
        {"mac.contention_expiries", "count"},
        {"mac.slots_batched", "count"},
        {"mac.queue_drops_full", "count"},
        {"net.build_s", "s"},
        {"net.nodes", "count"},
        {"net.flows", "count"},
        {"net.shards", "count"},
        {"net.forwarded", "count"},
        {"net.delivered", "count"},
        {"net.hops_per_delivery", "count"},
        {"traffic.generated", "count"},
        {"traffic.dropped_at_source", "count"},
        {"traffic.gated_skips", "count"},
        {"traffic.sink_packets", "count"},
        {"traffic.reordered", "count"},
        {"core.boe_matches", "count"},
        {"core.boe_match_ratio", "ratio"},
        {"core.caa_decisions", "count"},
        {"core.caa_increases", "count"},
        {"analysis.experiment_setup_s", "s"},
        {"analysis.summarize_s", "s"},
        {"analysis.serialize_s", "s"},
        {"analysis.figure_s.figure", "s"},
        {"analysis.figure_s.table", "s"},
        {"analysis.figure_s.ablation", "s"},
        {"analysis.figure_s.example", "s"},
        {"model.walk_s", "s"},
        {"util.user_cpu_s", "s"},
        {"util.sys_cpu_s", "s"},
        {"trace.overhead_s", "s"},
    };
    return defs;
}

Json metric_json(double value, const char* unit)
{
    Json m = Json::object();
    m.set("value", value);
    m.set("unit", unit);
    return m;
}

std::string fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

int run_benchmark(const Args& args)
{
    const double started = now_s();
    const double deadline = started + kHardLimitS;
    const Budget budget = make_budget();
    const std::unique_ptr<Workload> workload =
        make_workload(args.workload, args.seed, budget, args.goldens);
    const Json host = host_stamp(args, budget);

    std::printf("perfbench: workload %s, seed %llu, %d s, trace %d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
    std::printf("host: %s\n", host.dump(0).c_str());
    std::printf("input: %s\n", workload->input_size().c_str());

    int attempted = 0, failed = 0, unchecked = 0;
    std::vector<std::string> failures;
    auto count_outcome = [&](const ChildOutcome& outcome) {
        if (!outcome.ok) {
            attempted += workload->ops_per_pass();
            failed += workload->ops_per_pass();
            failures.push_back(outcome.error);
            return;
        }
        attempted += outcome.result.attempted;
        failed += outcome.result.failed;
        unchecked += outcome.result.unchecked;
        for (const std::string& f : outcome.result.failures) failures.push_back(f);
    };

    // Untimed reference: the same inputs run serially.
    std::vector<std::string> reference;
    if (workload->has_reference()) {
        const ChildOutcome ref = run_in_child([&] { return workload->reference(); }, deadline);
        count_outcome(ref);
        reference = ref.ok ? ref.result.digests
                           : std::vector<std::string>(
                                 static_cast<std::size_t>(workload->ops_per_pass()),
                                 "(reference pass failed)");
    }

    // One warm-up pass fills caches and settles the clock; its operations
    // are checked and counted, its timings are not used.
    count_outcome(run_in_child([&] { return workload->pass(false, reference); }, deadline));

    // Measured passes until the budget is spent. A traced invocation
    // alternates untraced and traced passes so it can report its own
    // tracing overhead.
    std::vector<PassResult> plain, traced;
    const double measure_start = now_s();
    const int min_each = args.trace ? 2 : kMinPasses;
    double longest_pass_s = 0.0;
    for (int i = 0; i < kMaxPasses; ++i) {
        const bool enough = static_cast<int>(plain.size()) >= min_each &&
                            (!args.trace || static_cast<int>(traced.size()) >= min_each);
        if (enough && now_s() - measure_start >= args.seconds) break;
        // Start no pass that would likely be killed at the ceiling.
        if (now_s() + 2 * longest_pass_s >= deadline) break;
        const bool trace_this = args.trace && i % 2 == 1;
        const double pass_start = now_s();
        const ChildOutcome outcome =
            run_in_child([&] { return workload->pass(trace_this, reference); }, deadline);
        longest_pass_s = std::max(longest_pass_s, now_s() - pass_start);
        count_outcome(outcome);
        if (outcome.ok) (trace_this ? traced : plain).push_back(outcome.result);
    }
    if (plain.empty() || (args.trace && traced.empty())) {
        std::fprintf(stderr, "perfbench: no pass completed\n");
        for (const std::string& f : failures) std::fprintf(stderr, "  %s\n", f.c_str());
        return 1;
    }

    auto column = [](const std::vector<PassResult>& passes, auto field) {
        std::vector<double> v;
        for (const PassResult& p : passes) v.push_back(field(p));
        return v;
    };
    const std::vector<std::pair<std::string, std::vector<double>>> e2e = {
        {"setup_s", column(plain, [](const PassResult& p) { return p.setup_s; })},
        {"wall_s", column(plain, [](const PassResult& p) { return p.wall_s; })},
        {"cpu_s", column(plain, [](const PassResult& p) { return p.user_s + p.sys_s; })},
        {"peak_rss_mb", column(plain, [](const PassResult& p) { return p.maxrss_mb; })},
    };
    std::printf("passes: %zu untraced%s, each metric the median per pass [q1, q3]\n", plain.size(),
                args.trace ? (", " + std::to_string(traced.size()) + " traced").c_str() : "");
    for (std::size_t k = 0; k < e2e.size(); ++k) {
        const auto [q1, q3] = quartiles(e2e[k].second);
        std::printf("  %-12s %12s %-3s [%s, %s]\n", e2e[k].first.c_str(),
                    fmt(median(e2e[k].second)).c_str(), end_to_end_defs()[k].unit, fmt(q1).c_str(),
                    fmt(q3).c_str());
    }

    Json metrics = Json::object();
    Json report = Json::object();
    if (!args.trace) {
        for (std::size_t k = 0; k < e2e.size(); ++k)
            metrics.set(e2e[k].first,
                        metric_json(median(e2e[k].second), end_to_end_defs()[k].unit));
    } else {
        std::map<std::string, std::vector<double>> values;
        for (const PassResult& p : traced)
            for (const auto& [name, v] : layer_metrics(p)) values[name].push_back(v);
        const double overhead =
            median(column(traced, [](const PassResult& p) { return p.wall_s; })) -
            median(column(plain, [](const PassResult& p) { return p.wall_s; }));
        values["trace.overhead_s"] = {overhead};
        std::printf("per-layer (median of traced passes; -1 = not reachable from outside):\n");
        for (const MetricDef& def : per_layer_defs()) {
            const double v = median(values.at(def.name));
            metrics.set(def.name, metric_json(v, def.unit));
            std::printf("  %-30s %14s %s\n", def.name, fmt(v).c_str(), def.unit);
        }
    }

    std::printf("ops: attempted %d, failed %d, unchecked %d\n", attempted, failed, unchecked);
    for (const std::string& f : failures) std::printf("  FAIL %s\n", f.c_str());

    Json result = Json::object();
    result.set("correct", failed == 0);
    result.set("attempted", attempted);
    result.set("failed", failed);
    result.set("metrics", metrics);

    // The full report (host stamp, every pass with its counts and spans)
    // next to the build.
    Json passes = Json::array();
    for (const auto* list : {&plain, &traced})
        for (const PassResult& p : *list) passes.push_back(p.to_json());
    report.set("passes", passes);
    report.set("host", host);
    report.set("workload", args.workload);
    report.set("input", workload->input_size());
    report.set("seed", static_cast<std::uint64_t>(args.seed));
    report.set("result", result);
    Json failures_json = Json::array();
    for (const std::string& f : failures) failures_json.push_back(f);
    report.set("failures", failures_json);
    std::error_code ec;
    std::filesystem::create_directories(args.report_dir, ec);
    const std::string report_path = args.report_dir + "/" + args.workload + "-seed" +
                                    std::to_string(args.seed) + "-trace" +
                                    (args.trace ? "1" : "0") + ".json";
    std::ofstream(report_path) << report.dump() << "\n";
    std::printf("report: %s (%.1f s total)\n", report_path.c_str(), now_s() - started);

    std::printf("%s\n", result.dump(0).c_str());
    return 0;
}

// ---------------------------------------------------------------------------
// Self-test: the benchmark's own checks, on tiny versions of the workloads.

int run_selftest(const Args& args)
{
    const double deadline = now_s() + kHardLimitS;
    const Budget budget = make_budget();
    int problems = 0;
    auto expect = [&](bool ok, const std::string& what) {
        std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
        if (!ok) ++problems;
    };

    for (const std::string& name : workload_names()) {
        std::printf("%s (tiny):\n", name.c_str());
        const std::unique_ptr<Workload> workload =
            make_workload(name, /*seed=*/3, budget, args.goldens, Size::kTiny);
        std::vector<std::string> reference;
        if (workload->has_reference()) {
            const ChildOutcome ref = run_in_child([&] { return workload->reference(); }, deadline);
            expect(ref.ok, "reference pass completes" + (ref.ok ? "" : ": " + ref.error));
            reference = ref.result.digests;
        }
        const ChildOutcome plain =
            run_in_child([&] { return workload->pass(false, reference); }, deadline);
        const ChildOutcome traced =
            run_in_child([&] { return workload->pass(true, reference); }, deadline);
        expect(plain.ok && traced.ok, "untraced and traced passes complete");
        if (!plain.ok || !traced.ok) continue;
        const PassResult& p = plain.result;
        const PassResult& t = traced.result;
        expect(p.attempted > 0 && p.attempted == t.attempted, "both passes attempt the same ops");
        if (p.failed == 0 && t.failed == 0) {
            expect(p.digests == t.digests,
                   "traced and untraced passes give identical verdicts and digests");
            expect(p.counts == t.counts, "traced and untraced passes give identical raw counts");
        } else {
            // The program itself is nondeterministic here (a sharded run
            // that differs from its serial reference), so tracing cannot
            // be told apart from the defect: say so rather than guess.
            std::printf("  skip traced-vs-untraced identity: a pass failed its output check (%s)\n",
                        (p.failed ? p.failures : t.failures).front().c_str());
        }
        expect(p.spans.empty() && !t.spans.empty(), "only the traced pass records spans");
        for (const Span& s : t.spans)
            if (s.end_s < s.start_s || s.parent >= static_cast<int>(t.spans.size())) {
                expect(false, "span '" + s.name + "' is well formed");
                break;
            }

        const std::map<std::string, double> m = layer_metrics(t);
        for (const MetricDef& def : per_layer_defs())
            if (std::string(def.name) != "trace.overhead_s" && m.count(def.name) == 0)
                expect(false, std::string("per-layer metric ") + def.name + " is derived");
        if (p.counts.empty()) continue;  // paper_smoke: counts are out of reach
        const auto& c = t.counts;
        auto at = [&](const char* key) {
            const auto it = c.find(key);
            return it == c.end() ? 0.0 : it->second;
        };
        expect(at("net.delivered") > 0, "the workload delivers packets");
        expect(at("net.delivered") == at("traffic.sink_packets"),
               "net.delivered == traffic.sink_packets");
        const double receptions = at("phy.decoded") + at("phy.corrupted") + at("phy.missed_busy");
        expect(std::fabs(m.at("phy.receptions_per_tx") * m.at("phy.transmissions") - receptions) <=
                   1e-6 * receptions,
               "phy.receptions_per_tx x phy.transmissions == decoded + corrupted + missed_busy");
        // ACKs count as sent when they leave the air, so a frozen run
        // may hold a few on the air that only the channel has counted.
        const double on_air = at("phy.transmissions") - at("phy.frames_sent");
        expect(on_air >= 0 && on_air <= 1e-3 * at("phy.transmissions"),
               "data attempts + acks + block acks ~ phy.transmissions (phy.reach_per_tx weights)");
        expect(m.at("phy.reach_per_tx") >= m.at("phy.receptions_per_tx"),
               "phy.reach_per_tx >= phy.receptions_per_tx");
        expect(std::fabs(m.at("phy.decode_ratio") * receptions - at("phy.decoded")) <=
                   1e-6 * receptions,
               "phy.decode_ratio x receptions == decoded");
        expect(m.at("mac.success_ratio") > 0 && m.at("mac.success_ratio") <= 1.0,
               "0 < mac.success_ratio <= 1");
        expect(at("traffic.generated") >=
                   at("traffic.dropped_at_source") + at("traffic.sink_packets"),
               "traffic.generated >= dropped_at_source + sink_packets");
        double shard_sum = 0.0;
        for (const auto& [k, v] : c)
            if (k.rfind("sim.shard_events.", 0) == 0) shard_sum += v;
        expect(shard_sum == at("sim.events"), "per-shard events sum to sim.events");
    }
    std::printf("selftest: %s (%d problem%s)\n", problems == 0 ? "PASS" : "FAIL", problems,
                problems == 1 ? "" : "s");
    return problems == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv)
{
    try {
        const perfbench::Args args = perfbench::parse_args(argc, argv);
        return args.selftest ? perfbench::run_selftest(args) : perfbench::run_benchmark(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
