#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "analysis/drop_audit.h"
#include "analysis/experiment.h"
#include "analysis/experiment_factory.h"
#include "analysis/result.h"
#include "analysis/result_diff.h"
#include "cli/registry.h"
#include "core/agent.h"
#include "net/topo_gen.h"

namespace perfbench {

using namespace ezflow;
using util::Json;

namespace {

std::uint64_t splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// The i-th input seed a workload derives from the --seed argument.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i)
{
    return splitmix64(seed * 0x100000001b3ull + i) % 1000000007ull + 1;
}

struct Cpu {
    double user_s;
    double sys_s;
};

double seconds(const timeval& tv)
{
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

Cpu cpu_now()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return Cpu{seconds(ru.ru_utime), seconds(ru.ru_stime)};
}

double maxrss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// FNV-1a over 64-bit words; doubles enter by bit pattern, so the digest
/// is bit-exact.
class Digest {
public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }
    void add_double(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
        return buf;
    }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Digest of everything a figure would derive from one run: the settled
/// window summaries, sink records, source ledgers and every node's
/// net/mac counters. PHY reception counters are left out: a sharded
/// connected cut mirrors boundary signals as ghosts, which the serial
/// reference never creates.
std::string run_digest(analysis::Experiment& experiment,
                       const std::vector<analysis::Experiment::FlowSummary>& summaries)
{
    Digest d;
    for (const auto& s : summaries) {
        d.add_double(s.mean_kbps);
        d.add_double(s.stddev_kbps);
        d.add_double(s.mean_delay_s);
        d.add_double(s.max_delay_s);
        d.add(static_cast<std::uint64_t>(s.throughput_samples));
        d.add(static_cast<std::uint64_t>(s.delay_samples));
    }
    for (const net::FlowPlan& plan : experiment.scenario().flows) {
        const traffic::Sink::FlowRecord& rec = experiment.sink().flow(plan.flow_id);
        d.add(rec.packets);
        d.add(rec.bytes);
        d.add(rec.duplicates);
        d.add(rec.reordered);
        d.add(static_cast<std::uint64_t>(rec.delay_us.count()));
        d.add_double(rec.delay_us.sum());
    }
    for (const auto& source : experiment.sources()) {
        const traffic::Source::Stats& st = source->stats();
        d.add(st.generated);
        d.add(st.accepted);
        d.add(st.dropped_at_source);
    }
    net::Network& net = experiment.network();
    for (net::NodeId id = 0; id < net.node_count(); ++id) {
        const net::Node& node = net.node(id);
        d.add(node.forwarded());
        d.add(node.delivered());
        d.add(node.forward_queue_drops());
        d.add(node.source_queue_drops());
        d.add(node.drops_unroutable());
        d.add(node.mac().data_attempts());
        d.add(node.mac().retransmissions());
        d.add(node.mac().successes());
        d.add(node.mac().retry_drops());
    }
    return d.hex();
}

/// Sum every layer's public counters of one finished experiment.
void add_counts(analysis::Experiment& experiment, std::map<std::string, double>& c)
{
    net::Network& net = experiment.network();
    const int shards = net.shard_count();
    c["sim.events"] += static_cast<double>(net.total_processed());
    for (int s = 0; s < shards; ++s) {
        c["sim.arena_slots"] += static_cast<double>(net.shard_scheduler(s).arena_slots());
        c["sim.shard_events." + std::to_string(s)] += static_cast<double>(net.shard_processed(s));
        const phy::FramePool& pool = net.shard_channel(s).frame_pool();
        c["phy.pool_created"] += static_cast<double>(pool.created());
        c["phy.pool_reused"] += static_cast<double>(pool.reused());
    }
    if (const sim::ShardedEngine* engine = shards > 1 ? net.sharded_engine() : nullptr) {
        c["sim.epochs"] += static_cast<double>(engine->epochs());
        c["sim.handoffs"] += static_cast<double>(engine->handoffs());
    }
    c["net.shards"] = std::max(c["net.shards"], static_cast<double>(shards));
    // Only shard 0's coordinator is public (Network::contention()); a
    // sharded run's contention counters are out of reach from outside.
    if (shards == 1) {
        c["mac.contention_expiries"] += static_cast<double>(net.contention().expiries());
        c["mac.slots_batched"] += static_cast<double>(net.contention().slots_batched());
    } else {
        c["mac.contention_unreachable"] = 1.0;
    }
    c["phy.transmissions"] += static_cast<double>(net.total_transmissions());
    c["net.nodes"] += net.node_count();
    c["net.flows"] += static_cast<double>(experiment.scenario().flows.size());
    for (net::NodeId id = 0; id < net.node_count(); ++id) {
        const net::Node& node = net.node(id);
        c["phy.decoded"] += static_cast<double>(node.phy().frames_decoded());
        c["phy.corrupted"] += static_cast<double>(node.phy().frames_corrupted());
        c["phy.missed_busy"] += static_cast<double>(node.phy().frames_missed_busy());
        c["mac.data_attempts"] += static_cast<double>(node.mac().data_attempts());
        c["mac.successes"] += static_cast<double>(node.mac().successes());
        c["mac.retry_drops"] += static_cast<double>(node.mac().retry_drops());
        // Frames this node put on the air (RTS/CTS is off in every
        // workload), each heard by every PHY in its reachability set.
        const double sent = static_cast<double>(node.mac().data_attempts() +
                                                node.mac().acks_sent() +
                                                node.mac().block_acks_sent());
        c["phy.frames_sent"] += sent;
        c["phy.reach_x_sent"] +=
            sent * static_cast<double>(net.shard_channel(net.shard_of(id)).reachable_count(id));
        for (const auto& queue : node.mac().queues().queues())
            c["mac.queue_drops_full"] += static_cast<double>(queue->dropped_full());
        c["net.forwarded"] += static_cast<double>(node.forwarded());
        c["net.delivered"] += static_cast<double>(node.delivered());
    }
    for (const auto& source : experiment.sources()) {
        const traffic::Source::Stats& st = source->stats();
        c["traffic.generated"] += static_cast<double>(st.generated);
        c["traffic.dropped_at_source"] += static_cast<double>(st.dropped_at_source);
        c["traffic.gated_skips"] += static_cast<double>(st.gated_skips);
    }
    for (const net::FlowPlan& plan : experiment.scenario().flows) {
        const traffic::Sink::FlowRecord& rec = experiment.sink().flow(plan.flow_id);
        c["traffic.sink_packets"] += static_cast<double>(rec.packets);
        c["net.delivered_hops"] +=
            static_cast<double>(rec.packets) * static_cast<double>(plan.path.size() - 1);
        c["traffic.reordered"] += static_cast<double>(rec.reordered);
    }
    for (net::NodeId id : experiment.transmitting_nodes()) {
        const core::EzFlowAgent* agent = experiment.agent(id);
        if (agent == nullptr) continue;
        for (const auto& [successor, state] : agent->successors()) {
            c["core.boe_matches"] += static_cast<double>(state->boe.matches());
            c["core.boe_misses"] += static_cast<double>(state->boe.misses());
            if (state->caa) {
                c["core.caa_decisions"] += static_cast<double>(state->caa->decisions());
                c["core.caa_increases"] += static_cast<double>(state->caa->increases());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario workloads: grid10k (serial), islands4 and clusters4 (sharded).

struct Cell {
    analysis::ScenarioSpec spec;
    analysis::Mode mode;
    std::uint64_t seed;
};

class ScenarioWorkload final : public Workload {
public:
    ScenarioWorkload(std::string input_size, std::vector<Cell> cells, double duration_s,
                     int shard_threads)
        : input_size_(std::move(input_size)),
          cells_(std::move(cells)),
          duration_s_(duration_s),
          shard_threads_(shard_threads)
    {
    }

    std::string input_size() const override { return input_size_; }
    int ops_per_pass() const override { return static_cast<int>(cells_.size()); }
    bool has_reference() const override { return true; }

    PassResult reference() override { return run_cells(/*serial=*/true, /*traced=*/false, {}); }

    PassResult pass(bool traced, const std::vector<std::string>& reference) override
    {
        return run_cells(/*serial=*/false, traced, reference);
    }

private:
    /// The flows start at t = 0; the first simulated step is short, so it
    /// isolates the lazy per-topology work done by the first frames.
    static constexpr double kFirstStepS = 0.05;

    PassResult run_cells(bool serial, bool traced, const std::vector<std::string>& reference)
    {
        PassResult out;
        Tracer tracer(traced);
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const Cell& cell = cells_[i];
            analysis::ScenarioSpec spec = cell.spec;
            if (serial) spec.shards = 1;
            analysis::ExperimentOptions options;
            options.mode = cell.mode;
            options.streaming = true;

            Tracer::Scope cell_span(tracer, "cell");
            const double t0 = now_s();
            net::Scenario scenario = [&] {
                Tracer::Scope span(tracer, "net.build_s");
                return analysis::build_scenario(spec, cell.seed);
            }();
            std::unique_ptr<analysis::Experiment> experiment;
            {
                Tracer::Scope span(tracer, "analysis.experiment_setup_s");
                experiment = std::make_unique<analysis::Experiment>(std::move(scenario), options);
            }
            experiment->network().set_shard_threads(serial ? 1 : shard_threads_);
            out.setup_s += now_s() - t0;

            const Cpu c0 = cpu_now();
            const double w0 = now_s();
            {
                Tracer::Scope span(tracer, "phy.first_step_s");
                experiment->run_until_s(kFirstStepS);
            }
            {
                Tracer::Scope span(tracer, "sim.run_s");
                experiment->run_until_s(duration_s_);
            }
            std::vector<analysis::Experiment::FlowSummary> summaries;
            {
                Tracer::Scope span(tracer, "analysis.summarize_s");
                for (const net::FlowPlan& plan : experiment->scenario().flows)
                    summaries.push_back(
                        experiment->summarize(plan.flow_id, 0.3 * duration_s_, duration_s_));
            }
            const double w1 = now_s();
            const Cpu c1 = cpu_now();
            out.wall_s += w1 - w0;
            out.user_s += c1.user_s - c0.user_s;
            out.sys_s += c1.sys_s - c0.sys_s;

            // Correctness checks (outside the measured run).
            Tracer::Scope check_span(tracer, "check");
            ++out.attempted;
            const std::string label = analysis::scenario_name(spec) + " / " +
                                      analysis::mode_name(cell.mode) + " seed " +
                                      std::to_string(cell.seed);
            bool ok = true;
            try {
                if (analysis::audit_drop_accounting(*experiment).skipped()) ++out.unchecked;
            } catch (const std::exception& e) {
                ok = false;
                out.failures.push_back(label + ": drop audit: " + e.what());
            }
            const std::string digest = run_digest(*experiment, summaries);
            out.digests.push_back(digest);
            if (!reference.empty() && (i >= reference.size() || reference[i] != digest)) {
                ok = false;
                out.failures.push_back(label + ": output digest " + digest +
                                       " differs from the serial reference " +
                                       (i < reference.size() ? reference[i] : "(none)"));
            }
            if (!ok) ++out.failed;
            add_counts(*experiment, out.counts);
        }
        out.maxrss_mb = maxrss_mb();
        out.spans = tracer.spans();
        return out;
    }

    std::string input_size_;
    std::vector<Cell> cells_;
    double duration_s_;
    int shard_threads_;
};

// ---------------------------------------------------------------------------
// paper_smoke: every runnable non-sharded figure at its --smoke grid,
// bit-exact against goldens/.

/// Figures whose runners are the Section 6 slotted model, not the simulator.
bool is_model_figure(const std::string& name)
{
    return name == "fig12" || name == "table4" || name == "model_explorer";
}

bool is_sharded_figure(const std::string& name)
{
    return name == "islands" || name == "grid_clusters";
}

class PaperSmokeWorkload final : public Workload {
public:
    PaperSmokeWorkload(std::uint64_t seed, int threads, std::string goldens_dir, Size size)
        : seed_(seed), threads_(threads), goldens_dir_(std::move(goldens_dir)), size_(size)
    {
    }

    std::string input_size() const override
    {
        return "every runnable non-sharded registered figure at its --smoke grid, figure order "
               "shuffled by seed, SweepRunner threads " +
               std::to_string(threads_) + (size_ == Size::kTiny ? " (tiny: first 3 figures)" : "");
    }

    /// Only consulted when a pass dies before reporting: one operation
    /// per golden of a non-sharded figure.
    int ops_per_pass() const override
    {
        int count = 0;
        for (const auto& entry : std::filesystem::directory_iterator(goldens_dir_)) {
            const std::string stem = entry.path().stem().string();
            if (entry.path().extension() == ".json" && !is_sharded_figure(stem)) ++count;
        }
        return size_ == Size::kTiny ? std::min(count, 3) : count;
    }

    PassResult pass(bool traced, const std::vector<std::string>&) override
    {
        PassResult out;
        Tracer tracer(traced);

        // Set-up: registry and golden load. The registry fills once per
        // process, so it is timed once. One golden load takes about 2 ms,
        // too short to time steadily once, so it is repeated and the
        // median kept.
        double register_s = 0.0;
        {
            Tracer::Scope span(tracer, "setup");
            const double t0 = now_s();
            cli::register_builtin_figures();
            register_s = now_s() - t0;
        }
        std::vector<const cli::FigureSpec*> specs;
        std::map<std::string, analysis::FigureResult> goldens;
        std::map<std::string, std::string> load_errors;
        std::vector<double> load_times;
        for (int repeat = 0; repeat < kGoldenLoads; ++repeat) {
            specs.clear();
            goldens.clear();
            load_errors.clear();
            Tracer::Scope span(tracer, "setup");
            const double t0 = now_s();
            for (const cli::FigureSpec* spec : cli::FigureRegistry::instance().list()) {
                if (!spec->runnable() || is_sharded_figure(spec->name)) continue;
                specs.push_back(spec);
                try {
                    std::ifstream in(goldens_dir_ + "/" + spec->name + ".json");
                    if (!in) throw std::runtime_error("no golden file");
                    std::stringstream buffer;
                    buffer << in.rdbuf();
                    goldens.emplace(spec->name,
                                    analysis::FigureResult::from_json(Json::parse(buffer.str())));
                } catch (const std::exception& e) {
                    load_errors[spec->name] = e.what();
                }
            }
            if (size_ == Size::kTiny && specs.size() > 3) specs.resize(3);
            // Fisher-Yates with the seed: the order figures run in.
            std::uint64_t state = seed_;
            for (std::size_t i = specs.size(); i > 1; --i) {
                state = splitmix64(state);
                std::swap(specs[i - 1], specs[state % i]);
            }
            load_times.push_back(now_s() - t0);
        }
        std::sort(load_times.begin(), load_times.end());
        out.setup_s = register_s + load_times[load_times.size() / 2];

        // The measured run: each figure as `ezflow run --smoke` runs it,
        // serialized to its result JSON.
        std::vector<std::string> outputs(specs.size());
        std::vector<std::string> run_errors(specs.size());
        const Cpu c0 = cpu_now();
        const double w0 = now_s();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const cli::FigureSpec& spec = *specs[i];
            cli::FigureContext ctx;
            ctx.spec = &spec;
            ctx.scale = spec.smoke_scale;
            ctx.seeds = spec.smoke_seeds;
            ctx.threads = threads_;
            Tracer::Scope figure_span(tracer, is_model_figure(spec.name)
                                                  ? "model.walk_s"
                                                  : "analysis.figure_s." + spec.category);
            try {
                const analysis::FigureResult result = spec.run(ctx);
                Tracer::Scope span(tracer, "analysis.serialize_s");
                outputs[i] = result.to_json().dump() + "\n";
            } catch (const std::exception& e) {
                run_errors[i] = e.what();
            }
        }
        const double w1 = now_s();
        const Cpu c1 = cpu_now();
        out.wall_s = w1 - w0;
        out.user_s = c1.user_s - c0.user_s;
        out.sys_s = c1.sys_s - c0.sys_s;

        // Checks: bit-exact against the golden, as `ezflow diff --bit-exact`.
        {
        Tracer::Scope check_span(tracer, "check");
        analysis::DiffOptions bit_exact;
        bit_exact.bit_exact = true;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const std::string& name = specs[i]->name;
            ++out.attempted;
            std::string error = run_errors[i];
            if (error.empty() && load_errors.count(name) > 0)
                error = "golden: " + load_errors[name];
            if (error.empty()) {
                try {
                    const analysis::FigureResult candidate =
                        analysis::FigureResult::from_json(Json::parse(outputs[i]));
                    const analysis::DiffReport report =
                        analysis::diff_results(goldens.at(name), candidate, bit_exact);
                    if (!report.passed())
                        error = std::to_string(report.findings.size()) +
                                " bit-exact findings, first: " + report.findings.front().path;
                } catch (const std::exception& e) {
                    error = e.what();
                }
            }
            if (!error.empty()) {
                ++out.failed;
                out.failures.push_back(name + ": " + error);
            }
        }
        }
        out.maxrss_mb = maxrss_mb();
        out.spans = tracer.spans();
        return out;
    }

private:
    static constexpr int kGoldenLoads = 9;

    std::uint64_t seed_;
    int threads_;
    std::string goldens_dir_;
    Size size_;
};

std::string seeds_text(const std::vector<Cell>& cells)
{
    std::set<std::uint64_t> seeds;
    for (const Cell& cell : cells) seeds.insert(cell.seed);
    std::string text;
    for (std::uint64_t s : seeds) text += (text.empty() ? "" : ",") + std::to_string(s);
    return text;
}

std::unique_ptr<Workload> make_grid10k(std::uint64_t seed, Size size)
{
    const bool tiny = size == Size::kTiny;
    net::GridSpec grid;
    grid.cols = tiny ? 10 : 100;
    grid.rows = tiny ? 10 : 100;
    grid.cross_flows = 8;
    grid.start_s = 0.0;
    grid.duration_s = tiny ? 1.0 : 4.0;
    const std::vector<Cell> cells = {
        {analysis::ScenarioSpec::grid_cross(grid), analysis::Mode::kBaseline80211,
         derive_seed(seed, 0)}};
    const std::string text = std::to_string(grid.cols) + "x" + std::to_string(grid.rows) +
                             " grid, 8 crossing flows, 802.11, " +
                             std::to_string(static_cast<int>(grid.duration_s)) +
                             " simulated s, streaming recorders, serial, seed " + seeds_text(cells);
    return std::make_unique<ScenarioWorkload>(text, cells, grid.duration_s, 1);
}

std::unique_ptr<Workload> make_islands4(std::uint64_t seed, const Budget& budget, Size size)
{
    const bool tiny = size == Size::kTiny;
    net::IslandsSpec islands;
    islands.islands = 4;
    islands.cols = tiny ? 4 : 25;
    islands.rows = tiny ? 4 : 25;
    islands.sources = 4;
    islands.start_s = 0.0;
    islands.duration_s = tiny ? 1.0 : 5.0;
    islands.max_shards = 4;
    analysis::ScenarioSpec spec = analysis::ScenarioSpec::islands_spec(islands);
    spec.shards = 4;
    std::vector<Cell> cells;
    const int seeds = tiny ? 1 : 4;
    for (int i = 0; i < seeds; ++i)
        for (analysis::Mode mode : {analysis::Mode::kBaseline80211, analysis::Mode::kEzFlow})
            cells.push_back({spec, mode, derive_seed(seed, static_cast<std::uint64_t>(i))});
    const std::string text =
        "4 islands of " + std::to_string(islands.cols) + "x" + std::to_string(islands.rows) +
        ", 4 sources each, 802.11 + EZ-flow, " +
        std::to_string(static_cast<int>(islands.duration_s)) +
        " simulated s, streaming, shard budget 4 on " + std::to_string(budget.shard_threads) +
        " threads, seeds " + seeds_text(cells) + " one after another";
    return std::make_unique<ScenarioWorkload>(text, cells, islands.duration_s,
                                              budget.shard_threads);
}

std::unique_ptr<Workload> make_clusters4(std::uint64_t seed, const Budget& budget, Size size)
{
    const bool tiny = size == Size::kTiny;
    net::ClustersSpec clusters;
    clusters.clusters = 4;
    clusters.cols = tiny ? 4 : 16;
    clusters.rows = tiny ? 4 : 16;
    clusters.sources = 2;
    clusters.start_s = 0.0;
    clusters.duration_s = tiny ? 0.5 : 2.0;
    clusters.max_shards = 4;
    analysis::ScenarioSpec spec = analysis::ScenarioSpec::clusters_spec(clusters);
    spec.shards = 4;
    std::vector<Cell> cells;
    for (analysis::Mode mode : {analysis::Mode::kBaseline80211, analysis::Mode::kEzFlow})
        cells.push_back({spec, mode, derive_seed(seed, 0)});
    const std::string text =
        "4 connected clusters of " + std::to_string(clusters.cols) + "x" +
        std::to_string(clusters.rows) + ", 2 sources each, 802.11 + EZ-flow, " +
        util::Json(clusters.duration_s).dump() +
        " simulated s, streaming, shard budget 4 on " + std::to_string(budget.shard_threads) +
        " threads, seed " + seeds_text(cells);
    return std::make_unique<ScenarioWorkload>(text, cells, clusters.duration_s,
                                              budget.shard_threads);
}

double count_or(const std::map<std::string, double>& counts, const std::string& key)
{
    const auto it = counts.find(key);
    return it == counts.end() ? 0.0 : it->second;
}

const Json& field(const Json& object, const std::string& key)
{
    const Json* value = object.find(key);
    if (value == nullptr) throw std::runtime_error("pass result lacks '" + key + "'");
    return *value;
}

double ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

}  // namespace

// ---------------------------------------------------------------------------

Json PassResult::to_json() const
{
    Json j = Json::object();
    j.set("setup_s", setup_s);
    j.set("wall_s", wall_s);
    j.set("user_s", user_s);
    j.set("sys_s", sys_s);
    j.set("maxrss_mb", maxrss_mb);
    j.set("attempted", attempted);
    j.set("failed", failed);
    j.set("unchecked", unchecked);
    Json failures_json = Json::array();
    for (const std::string& f : failures) failures_json.push_back(f);
    j.set("failures", failures_json);
    Json digests_json = Json::array();
    for (const std::string& d : digests) digests_json.push_back(d);
    j.set("digests", digests_json);
    Json counts_json = Json::object();
    for (const auto& [k, v] : counts) counts_json.set(k, v);
    j.set("counts", counts_json);
    Json spans_json = Json::array();
    for (const Span& s : spans) {
        Json span = Json::object();
        span.set("name", s.name);
        span.set("start_s", s.start_s);
        span.set("end_s", s.end_s);
        span.set("parent", s.parent);
        spans_json.push_back(span);
    }
    j.set("spans", spans_json);
    return j;
}

PassResult PassResult::from_json(const Json& j)
{
    PassResult p;
    p.setup_s = field(j, "setup_s").as_number();
    p.wall_s = field(j, "wall_s").as_number();
    p.user_s = field(j, "user_s").as_number();
    p.sys_s = field(j, "sys_s").as_number();
    p.maxrss_mb = field(j, "maxrss_mb").as_number();
    p.attempted = static_cast<int>(field(j, "attempted").as_number());
    p.failed = static_cast<int>(field(j, "failed").as_number());
    p.unchecked = static_cast<int>(field(j, "unchecked").as_number());
    for (const Json& f : field(j, "failures").elements()) p.failures.push_back(f.as_string());
    for (const Json& d : field(j, "digests").elements()) p.digests.push_back(d.as_string());
    for (const auto& [k, v] : field(j, "counts").members()) p.counts[k] = v.as_number();
    for (const Json& s : field(j, "spans").elements())
        p.spans.push_back(Span{field(s, "name").as_string(), field(s, "start_s").as_number(),
                               field(s, "end_s").as_number(),
                               static_cast<int>(field(s, "parent").as_number())});
    return p;
}

const std::vector<std::string>& workload_names()
{
    static const std::vector<std::string> names = {"paper_smoke", "grid10k", "islands4",
                                                   "clusters4"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const Budget& budget, const std::string& goldens_dir,
                                        Size size)
{
    if (name == "paper_smoke")
        return std::make_unique<PaperSmokeWorkload>(seed, budget.sweep_threads, goldens_dir, size);
    if (name == "grid10k") return make_grid10k(seed, size);
    if (name == "islands4") return make_islands4(seed, budget, size);
    if (name == "clusters4") return make_clusters4(seed, budget, size);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::map<std::string, double> layer_metrics(const PassResult& pass)
{
    std::map<std::string, double> m;
    const auto& c = pass.counts;
    const std::map<std::string, double> spans = [&] {
        std::map<std::string, double> totals;
        for (const Span& s : pass.spans) totals[s.name] += s.end_s - s.start_s;
        return totals;
    }();
    auto span = [&](const std::string& name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second;
    };

    const double events = count_or(c, "sim.events");
    const double epochs = count_or(c, "sim.epochs");
    const double delivered = count_or(c, "net.delivered");
    const double receptions = count_or(c, "phy.decoded") + count_or(c, "phy.corrupted") +
                              count_or(c, "phy.missed_busy");
    const double tx = count_or(c, "phy.transmissions");
    double shard_max = 0.0, shard_sum = 0.0;
    int shard_n = 0;
    for (const auto& [k, v] : c) {
        if (k.rfind("sim.shard_events.", 0) != 0) continue;
        shard_max = std::max(shard_max, v);
        shard_sum += v;
        ++shard_n;
    }
    const double run_s = span("phy.first_step_s") + span("sim.run_s");
    m["sim.events"] = events;
    m["sim.events_per_delivered_pkt"] = ratio(events, delivered);
    m["sim.arena_slots"] = count_or(c, "sim.arena_slots");
    m["sim.epochs"] = epochs;
    m["sim.events_per_epoch"] = ratio(events, epochs);
    m["sim.epoch_us"] = ratio(run_s * 1e6, epochs);
    m["sim.shard_imbalance"] = shard_n > 0 ? ratio(shard_max, shard_sum / shard_n) : 0.0;
    m["sim.handoffs"] = count_or(c, "sim.handoffs");
    m["sim.events_per_wall_s"] = ratio(events, run_s);
    m["phy.receptions_per_tx"] = ratio(receptions, tx);
    m["phy.reach_per_tx"] =
        ratio(count_or(c, "phy.reach_x_sent"), count_or(c, "phy.frames_sent"));
    m["phy.first_step_s"] = span("phy.first_step_s");
    m["phy.frame_pool_reuse_ratio"] =
        ratio(count_or(c, "phy.pool_reused"),
              count_or(c, "phy.pool_reused") + count_or(c, "phy.pool_created"));
    m["phy.transmissions"] = tx;
    m["phy.decode_ratio"] = ratio(count_or(c, "phy.decoded"), receptions);
    m["mac.data_attempts"] = count_or(c, "mac.data_attempts");
    m["mac.success_ratio"] =
        ratio(count_or(c, "mac.successes"), count_or(c, "mac.data_attempts"));
    m["mac.retry_drops"] = count_or(c, "mac.retry_drops");
    const bool contention = c.count("mac.contention_unreachable") == 0;
    m["mac.contention_expiries"] = contention ? count_or(c, "mac.contention_expiries") : -1.0;
    m["mac.slots_batched"] = contention ? count_or(c, "mac.slots_batched") : -1.0;
    m["mac.queue_drops_full"] = count_or(c, "mac.queue_drops_full");
    m["net.build_s"] = span("net.build_s");
    m["net.nodes"] = count_or(c, "net.nodes");
    m["net.flows"] = count_or(c, "net.flows");
    m["net.shards"] = count_or(c, "net.shards");
    m["net.forwarded"] = count_or(c, "net.forwarded");
    m["net.delivered"] = delivered;
    m["net.hops_per_delivery"] = ratio(count_or(c, "net.delivered_hops"), delivered);
    for (const char* key : {"traffic.generated", "traffic.dropped_at_source",
                            "traffic.gated_skips", "traffic.sink_packets",
                            "traffic.reordered", "core.boe_matches", "core.caa_decisions",
                            "core.caa_increases"})
        m[key] = count_or(c, key);
    m["core.boe_match_ratio"] =
        ratio(count_or(c, "core.boe_matches"),
              count_or(c, "core.boe_matches") + count_or(c, "core.boe_misses"));
    m["analysis.experiment_setup_s"] = span("analysis.experiment_setup_s");
    m["analysis.summarize_s"] = span("analysis.summarize_s");
    // paper_smoke: the figures build, run and summarize their experiments
    // inside FigureSpec::run, out of reach from outside.
    if (c.empty())
        for (auto& [name, value] : m) value = -1.0;
    m["analysis.serialize_s"] = span("analysis.serialize_s");
    for (const char* category : {"figure", "table", "ablation", "example"})
        m[std::string("analysis.figure_s.") + category] =
            span(std::string("analysis.figure_s.") + category);
    m["model.walk_s"] = span("model.walk_s");
    m["util.user_cpu_s"] = pass.user_s;
    m["util.sys_cpu_s"] = pass.sys_s;
    return m;
}

}  // namespace perfbench
