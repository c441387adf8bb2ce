// Ablation studies: the modelling and parameter sensitivity checks that
// back the paper's design arguments. Ported from the former standalone
// bench mains; each produces a structured FigureResult.

#include <algorithm>
#include <map>
#include <memory>

#include "cli/figures.h"
#include "cli/figures_common.h"
#include "core/pacer.h"
#include "net/topologies.h"
#include "traffic/sink.h"
#include "traffic/source.h"
#include "util/table.h"

namespace ezflow::cli {

namespace {

using namespace ezflow::analysis;

// -- ablation_pacer: CWmin control vs routing-layer rate pacing ----------

RunResult pacer_cw_variant(const FigureContext& ctx, Mode mode, double duration_s)
{
    ExperimentOptions options;
    options.mode = mode;
    Experiment exp(net::make_line(4, duration_s, ctx.seed), options);
    exp.run();
    const double from = 0.5 * duration_s;
    const auto summary = exp.summarize(0, from, duration_s);
    RunResult cell{mode_name(mode), {}};
    WindowResult& window = cell.add_window("settled");
    window.set("goodput_kbps", metric_point(summary.mean_kbps));
    window.set("mac_b1", metric_point(exp.buffers().mean_occupancy(
                             1, util::from_seconds(from), util::from_seconds(duration_s))));
    window.set("delay_s", metric_point(summary.mean_delay_s));
    return cell;
}

RunResult pacer_paced_variant(const FigureContext& ctx, double duration_s)
{
    net::Scenario scenario = net::make_line(4, duration_s, ctx.seed);
    net::Network& network = *scenario.network;
    auto agents = core::install_paced_ezflow(network, core::PacedEzFlowAgent::Options{});
    traffic::Sink sink(network);
    sink.attach_flow(0);
    BufferTracer tracer(network, {1}, 100 * util::kMillisecond);
    tracer.start();
    traffic::CbrSource source(network, 0, 1000, 2e6);
    source.activate(util::from_seconds(5), util::from_seconds(duration_s));
    network.run_until(util::from_seconds(duration_s));
    const double from = 0.5 * duration_s;
    const auto& rec = sink.flow(0);
    RunResult cell{"EZ-flow (paced)", {}};
    WindowResult& window = cell.add_window("settled");
    window.set("goodput_kbps", metric_point(sink.goodput_kbps(0, util::from_seconds(from),
                                                              util::from_seconds(duration_s))));
    window.set("mac_b1", metric_point(tracer.mean_occupancy(1, util::from_seconds(from),
                                                            util::from_seconds(duration_s))));
    window.set("delay_s",
               metric_point(rec.delay_series.mean_between(util::from_seconds(from),
                                                          util::from_seconds(duration_s)) /
                            static_cast<double>(util::kSecond)));
    return cell;
}

FigureResult run_ablation_pacer(const FigureContext& ctx)
{
    const double duration_s = 4000.0 * ctx.scale;
    FigureResult result = make_result(ctx);
    result.cells = fan_out(ctx, 3, [&](int i) {
        if (i == 2) return pacer_paced_variant(ctx, duration_s);
        return pacer_cw_variant(ctx, i == 0 ? Mode::kBaseline80211 : Mode::kEzFlow, duration_s);
    });
    return result;
}

// -- ablation_penalty_q: static penalty of [9] vs self-tuning EZ-Flow ----

WindowResult penalty_run(const FigureContext& ctx, const std::string& window_label, int hops,
                         Mode mode, double q)
{
    const double duration_s = 4000.0 * ctx.scale;
    ExperimentOptions options;
    options.mode = mode;
    options.penalty.relay_cw = 1 << 4;
    options.penalty.q = q;
    Experiment exp(net::make_line(hops, duration_s, ctx.seed), options);
    exp.run();
    const double warmup = 0.4 * duration_s;
    double b_worst = 0.0;
    for (int n = 1; n < hops; ++n)
        b_worst = std::max(b_worst,
                           exp.buffers().mean_occupancy(n, util::from_seconds(warmup),
                                                        util::from_seconds(duration_s + 5)));
    WindowResult window{window_label, {}};
    window.set("b_worst", metric_point(b_worst));
    window.set("goodput_kbps", metric_point(exp.summarize(0, warmup, duration_s).mean_kbps));
    return window;
}

FigureResult run_ablation_penalty_q(const FigureContext& ctx)
{
    const std::vector<int> hop_counts = {3, 4, 5};
    struct Variant {
        std::string label;
        Mode mode;
        double q;
    };
    // Per chain: every static q, then self-tuning EZ-flow.
    std::vector<Variant> variants;
    for (const double q : {1.0, 1.0 / 4.0, 1.0 / 16.0, 1.0 / 64.0})
        variants.push_back({"penalty q=1/" + std::to_string(int(1.0 / q)), Mode::kPenalty, q});
    variants.push_back({"EZ-flow (self-tuned)", Mode::kEzFlow, 1.0});
    const int per_cell = static_cast<int>(variants.size());
    auto windows = fan_out(ctx, static_cast<int>(hop_counts.size()) * per_cell, [&](int i) {
        const Variant& v = variants[static_cast<std::size_t>(i % per_cell)];
        return penalty_run(ctx, v.label, hop_counts[static_cast<std::size_t>(i / per_cell)],
                           v.mode, v.q);
    });
    FigureResult result = make_result(ctx);
    std::vector<std::string> labels;
    for (const int hops : hop_counts) labels.push_back(std::to_string(hops) + "-hop chain");
    add_cells(result, labels, std::move(windows));
    return result;
}

// -- ablation_phy_capture: SIR capture vs the Fig. 1 dichotomy -----------

WindowResult capture_run(const FigureContext& ctx, int hops, double capture_threshold,
                         double duration_s)
{
    net::Network::Config config = net::testbed_config(ctx.seed);
    config.phy.capture_threshold = capture_threshold;
    net::Network network(config);
    std::vector<net::NodeId> path;
    for (int i = 0; i <= hops; ++i) path.push_back(network.add_node({200.0 * i, 0.0}));
    network.add_flow(0, path);
    traffic::Sink sink(network);
    sink.attach_flow(0);
    BufferTracer tracer(network, {path.begin() + 1, path.end() - 1}, 100 * util::kMillisecond);
    tracer.start();
    traffic::CbrSource source(network, 0, 1000, 2e6);
    source.activate(util::from_seconds(5), util::from_seconds(duration_s));
    network.run_until(util::from_seconds(duration_s));
    const double from = 0.4 * duration_s;
    WindowResult window{std::to_string(hops) + "-hop", {}};
    window.set("b1", metric_point(tracer.mean_occupancy(1, util::from_seconds(from),
                                                        util::from_seconds(duration_s))));
    window.set("b_last", metric_point(tracer.mean_occupancy(hops - 1, util::from_seconds(from),
                                                            util::from_seconds(duration_s))));
    window.set("goodput_kbps", metric_point(sink.goodput_kbps(0, util::from_seconds(from),
                                                              util::from_seconds(duration_s))));
    return window;
}

FigureResult run_ablation_phy_capture(const FigureContext& ctx)
{
    const double duration_s = 1800.0 * ctx.scale;
    const std::vector<double> thresholds = {10.0, 1e9};
    const std::vector<int> hop_counts = {3, 4};
    const int per_cell = static_cast<int>(hop_counts.size());
    auto windows = fan_out(ctx, static_cast<int>(thresholds.size()) * per_cell, [&](int i) {
        return capture_run(ctx, hop_counts[static_cast<std::size_t>(i % per_cell)],
                           thresholds[static_cast<std::size_t>(i / per_cell)], duration_s);
    });
    FigureResult result = make_result(ctx);
    add_cells(result, {"capture 10 dB (ns-2)", "capture disabled"}, std::move(windows));
    return result;
}

// -- ablation_rtscts: is RTS/CTS an alternative to EZ-Flow? --------------

WindowResult rtscts_run(const FigureContext& ctx, const std::string& window_label,
                        double cs_range, bool rts, bool ezflow, double duration_s)
{
    net::Network::Config config = net::default_config(ctx.seed);
    config.phy.cs_range_m = cs_range;
    config.mac.rts_cts_enabled = rts;
    net::Network network(config);
    std::vector<net::NodeId> path;
    for (int i = 0; i <= 4; ++i) path.push_back(network.add_node({200.0 * i, 0.0}));
    network.add_flow(0, path);

    std::map<net::NodeId, std::unique_ptr<core::EzFlowAgent>> agents;
    if (ezflow) agents = core::install_ezflow(network, core::CaaConfig{});

    traffic::Sink sink(network);
    sink.attach_flow(0);
    BufferTracer tracer(network, {1}, 100 * util::kMillisecond);
    tracer.start();
    traffic::CbrSource source(network, 0, 1000, 2e6);
    source.activate(util::from_seconds(5), util::from_seconds(duration_s));
    network.run_until(util::from_seconds(duration_s));
    const double from = 0.4 * duration_s;
    WindowResult window{window_label, {}};
    window.set("goodput_kbps", metric_point(sink.goodput_kbps(0, util::from_seconds(from),
                                                              util::from_seconds(duration_s))));
    window.set("b1", metric_point(tracer.mean_occupancy(1, util::from_seconds(from),
                                                        util::from_seconds(duration_s))));
    return window;
}

FigureResult run_ablation_rtscts(const FigureContext& ctx)
{
    const double duration_s = 3000.0 * ctx.scale;
    const std::vector<double> cs_ranges = {550.0, 250.0};
    struct Variant {
        const char* label;
        bool rts;
        bool ezflow;
    };
    const std::vector<Variant> variants = {{"802.11 basic", false, false},
                                           {"802.11 + RTS/CTS", true, false},
                                           {"EZ-flow (no RTS)", false, true}};
    const int per_cell = static_cast<int>(variants.size());
    auto windows = fan_out(ctx, static_cast<int>(cs_ranges.size()) * per_cell, [&](int i) {
        const Variant& v = variants[static_cast<std::size_t>(i % per_cell)];
        return rtscts_run(ctx, v.label, cs_ranges[static_cast<std::size_t>(i / per_cell)], v.rts,
                          v.ezflow, duration_s);
    });
    FigureResult result = make_result(ctx);
    add_cells(result, {"CS ns-2 (550 m)", "CS testbed (1-hop)"}, std::move(windows));
    return result;
}

// -- ablation_sample_window: CAA decision window sweep -------------------

WindowResult sample_window_run(const FigureContext& ctx, int sample_window, double duration_s)
{
    ExperimentOptions options;
    options.mode = Mode::kEzFlow;
    options.caa.sample_window = sample_window;
    // F2 joins for the middle third of the run.
    net::Scenario scenario = net::make_testbed(5.0, duration_s, duration_s / 3.0,
                                               2.0 * duration_s / 3.0, ctx.seed);
    Experiment exp(std::move(scenario), options);
    exp.run_until_s(duration_s);
    const double warmup = 0.15 * duration_s;
    const auto summary = exp.summarize(1, warmup, duration_s);
    const auto* agent = exp.agent(0);
    std::uint64_t changes = 0;
    if (agent != nullptr) {
        for (const auto& [succ, state] : agent->successors())
            changes += state->caa->increases() + state->caa->decreases();
    }
    WindowResult window{"window " + std::to_string(sample_window), {}};
    window.set("b1", metric_point(exp.buffers().mean_occupancy(1, util::from_seconds(warmup),
                                                               util::from_seconds(duration_s))));
    window.set("goodput_kbps", metric_point(summary.mean_kbps));
    window.set("delay_s", metric_point(summary.mean_delay_s));
    window.set("cw_changes", metric_point(static_cast<double>(changes)));
    return window;
}

FigureResult run_ablation_sample_window(const FigureContext& ctx)
{
    const double duration_s = 6000.0 * ctx.scale;
    const std::vector<int> sample_windows = {5, 20, 50, 200, 1000};
    FigureResult result = make_result(ctx);
    add_cells(result, {"4-hop + joining flow"},
              fan_out(ctx, static_cast<int>(sample_windows.size()), [&](int i) {
                  return sample_window_run(ctx, sample_windows[static_cast<std::size_t>(i)],
                                           duration_s);
              }));
    return result;
}

// -- ablation_sniff_loss: robustness of the BOE to missed sniffs ---------

WindowResult sniff_loss_run(const FigureContext& ctx, double loss, double duration_s)
{
    ExperimentOptions options;
    options.mode = Mode::kEzFlow;
    options.boe_sniff_loss = loss;
    Experiment exp(net::make_line(4, duration_s, ctx.seed), options);
    exp.run();
    const double warmup = 0.4 * duration_s;
    const auto summary = exp.summarize(0, warmup, duration_s);
    const auto* agent = exp.agent(0);
    WindowResult window{"loss " + util::Table::num(loss, 2), {}};
    window.set("b1", metric_point(exp.buffers().mean_occupancy(
                   1, util::from_seconds(warmup), util::from_seconds(duration_s + 5))));
    window.set("goodput_kbps", metric_point(summary.mean_kbps));
    window.set("delay_s", metric_point(summary.mean_delay_s));
    window.set("source_cw", metric_point(agent != nullptr ? agent->cw_toward(1) : -1));
    return window;
}

FigureResult run_ablation_sniff_loss(const FigureContext& ctx)
{
    const double duration_s = 6000.0 * ctx.scale;
    const std::vector<double> losses = {0.0, 0.5, 0.8, 0.95};
    FigureResult result = make_result(ctx);
    add_cells(result, {"4-hop chain / EZ-flow"},
              fan_out(ctx, static_cast<int>(losses.size()), [&](int i) {
                  return sniff_loss_run(ctx, losses[static_cast<std::size_t>(i)], duration_s);
              }));
    return result;
}

// -- ablation_thresholds: bmin/bmax sensitivity --------------------------

WindowResult thresholds_run(const FigureContext& ctx, double bmin, double bmax, double duration_s)
{
    ExperimentOptions options;
    options.mode = Mode::kEzFlow;
    options.caa.bmin = bmin;
    options.caa.bmax = bmax;
    Experiment exp(net::make_line(4, duration_s, ctx.seed), options);
    exp.run();
    const double warmup = 0.4 * duration_s;
    const auto summary = exp.summarize(0, warmup, duration_s);
    WindowResult window{"bmax " + util::Table::num(bmax, 0), {}};
    window.set("b1", metric_point(exp.buffers().mean_occupancy(
                   1, util::from_seconds(warmup), util::from_seconds(duration_s + 5))));
    window.set("goodput_kbps", metric_point(summary.mean_kbps));
    window.set("delay_s", metric_point(summary.mean_delay_s));
    return window;
}

FigureResult run_ablation_thresholds(const FigureContext& ctx)
{
    const double duration_s = 600.0 * ctx.scale * 10.0;  // default scale 0.1 -> 600 s
    const std::vector<double> bmins = {0.05, 0.5, 2.0};
    const std::vector<double> bmaxes = {10.0, 20.0, 40.0};
    const int per_cell = static_cast<int>(bmaxes.size());
    auto windows = fan_out(ctx, static_cast<int>(bmins.size()) * per_cell, [&](int i) {
        return thresholds_run(ctx, bmins[static_cast<std::size_t>(i / per_cell)],
                              bmaxes[static_cast<std::size_t>(i % per_cell)], duration_s);
    });
    FigureResult result = make_result(ctx);
    std::vector<std::string> labels;
    for (const double bmin : bmins) labels.push_back("bmin " + util::Table::num(bmin, 2));
    add_cells(result, labels, std::move(windows));
    return result;
}

}  // namespace

void register_ablation_figures()
{
    FigureRegistry& registry = FigureRegistry::instance();
    registry.add(FigureSpec{
        "ablation_pacer", "", "ablation", "CWmin control vs routing-layer rate pacing",
        "Conclusion — the pacing variant for dense neighbourhoods",
        "Both EZ-flow variants drain the first relay's MAC buffer that plain 802.11 saturates; "
        "the paced variant keeps its backlog in the routing layer without touching the MAC.",
        0.1, 1, 0.02, 1, run_ablation_pacer});
    registry.add(FigureSpec{
        "ablation_penalty_q", "", "ablation", "static penalty of [9] vs self-tuning EZ-Flow",
        "Sec. 2.3 — q is topology-dependent; EZ-flow discovers it online",
        "No single q works everywhere — q = 1 saturates relays, very small q wastes capacity "
        "on short chains. EZ-flow matches the best static q per topology without knowing it.",
        0.1, 1, 0.015, 1, run_ablation_penalty_q});
    registry.add(FigureSpec{
        "ablation_phy_capture", "", "ablation", "capture threshold vs the Fig. 1 dichotomy",
        "modelling ablation — why SIR capture is required to reproduce the paper",
        "With 10 dB capture, 3-hop stays drained while 4-hop's first relay saturates. With "
        "capture disabled the structure degrades and congestion appears in the wrong places.",
        0.1, 1, 0.03, 1, run_ablation_phy_capture});
    registry.add(FigureSpec{
        "ablation_rtscts", "", "ablation", "is RTS/CTS an alternative to EZ-Flow?",
        "Sec. 5.1 — the paper disables RTS/CTS; EZ-flow attacks the cause instead",
        "Under 550 m carrier sense the handshake only costs airtime. Under 1-hop sensing it "
        "softens hidden-terminal losses but does not drain the relay buffers; EZ-flow does.",
        0.1, 1, 0.02, 1, run_ablation_rtscts});
    registry.add(FigureSpec{
        "ablation_sample_window", "", "ablation", "CAA decision window sweep",
        "Sec. 3.3 / Alg. 1 — decisions every 50 BOE samples",
        "Tiny windows over-react (more cw churn for no gain); huge windows adapt sluggishly "
        "when the second flow joins. The paper's 50 sits in the flat middle.",
        0.1, 1, 0.015, 1, run_ablation_sample_window});
    registry.add(FigureSpec{
        "ablation_sniff_loss", "", "ablation", "EZ-Flow under missed sniffs",
        "Sec. 3.2 — robustness to forwarded packets that are not overheard",
        "Stabilization persists across the sweep — the relay buffer stays drained and goodput "
        "flat even when 95% of sniffs are lost; only the convergence time stretches.",
        0.1, 1, 0.02, 1, run_ablation_sniff_loss});
    registry.add(FigureSpec{
        "ablation_thresholds", "", "ablation", "bmin/bmax sensitivity on the 4-hop chain",
        "Sec. 3.3 — small bmin is essential; bmax trades reactivity for calm",
        "The paper's (0.05, 20) keeps the relay drained at full goodput. Large bmin makes "
        "nodes regain aggressiveness too easily; the bmax choice matters much less.",
        0.1, 1, 0.02, 1, run_ablation_thresholds});
}

}  // namespace ezflow::cli
