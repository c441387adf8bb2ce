// The pluggable-PHY figure family: what the interference-accurate models
// add beyond the paper's binary-range reference. `fading` drives the
// 4-hop chain through Jakes/Rayleigh fading over the cumulative-SINR
// ledger; `rate_adapt` puts Minstrel rate adaptation on a noisy 2-hop
// relay at growing hop distances, where the per-rate SNR decode floors
// turn link distance into a rate ladder.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cli/figures.h"
#include "cli/figures_common.h"
#include "core/pacer.h"
#include "net/topologies.h"
#include "phy/channel.h"
#include "phy/rate_manager.h"
#include "traffic/sink.h"
#include "traffic/source.h"
#include "util/table.h"

namespace ezflow::cli {

namespace {

using namespace ezflow::analysis;

// -- fading: Rayleigh outage on the 4-hop chain --------------------------

FigureResult run_fading(const FigureContext& ctx)
{
    const double duration_s = 1500.0 * ctx.scale;
    // Noise floor such that the 200 m links run at ~22 dB mean SNR: only
    // deep fades (|h|^2 < ~0.06, about 6% of frames) drop below the 10 dB
    // ledger threshold, so outage — not the mean — is what doppler adds.
    const double noise_w = ctx.extra_double("noise", 4e-12);
    FigureResult result = make_result(ctx);
    const std::vector<SweepWindow> windows = {
        SweepWindow{"settled", 0.3 * duration_s, duration_s, {0}}};
    const std::vector<double> dopplers_hz = {0.0, 2.5, 10.0};
    const std::vector<Mode> modes = {Mode::kBaseline80211, Mode::kEzFlow};
    std::vector<ScenarioSpec> specs;
    for (const double doppler_hz : dopplers_hz) {
        ScenarioSpec& spec = specs.emplace_back(ScenarioSpec::line(4, duration_s));
        spec.models.propagation = phy::PhyModelConfig::Propagation::kJakes;
        spec.models.interference = phy::PhyModelConfig::Interference::kSinrLedger;
        spec.models.jakes_doppler_hz = doppler_hz;
        spec.models.noise_floor_w = noise_w;
    }
    const auto sweeps = sweep_modes(ctx, specs, modes, windows);
    for (std::size_t c = 0; c < sweeps.size(); ++c) {
        RunResult cell = run_result_from_sweep(sweeps[c], windows);
        cell.label = "doppler " + util::Table::num(dopplers_hz[c / modes.size()], 1) + " Hz / " +
                     cell.label;
        result.cells.push_back(std::move(cell));
    }
    return result;
}

// -- rate_adapt: Minstrel vs fixed rate on a noisy 2-hop relay -----------

WindowResult rate_adapt_run(const FigureContext& ctx, double hop_m, bool minstrel, bool ezflow,
                           double duration_s)
{
    net::Network::Config config = net::default_config(ctx.seed);
    // SINR ledger with the per-rate decode floors as the only thresholds:
    // with a 6e-11 W noise floor the DSSS ladder binds by distance —
    // 11 Mb/s decodes to ~170 m, 5.5 Mb/s to ~202 m, 2 Mb/s to ~240 m,
    // 1 Mb/s to the 250 m delivery range.
    config.phy.capture_threshold_db = 0.0;
    config.phy.noise_floor_w = 6e-11;
    config.models.interference = phy::PhyModelConfig::Interference::kSinrLedger;
    if (minstrel) config.models.rate = phy::PhyModelConfig::Rate::kMinstrel;
    net::Network network(config);
    std::vector<net::NodeId> path;
    for (int i = 0; i < 3; ++i) path.push_back(network.add_node({hop_m * i, 0.0}));
    network.add_flow(0, path);

    std::map<net::NodeId, std::unique_ptr<core::EzFlowAgent>> agents;
    if (ezflow) agents = core::install_ezflow(network, core::CaaConfig{});

    traffic::Sink sink(network);
    sink.attach_flow(0);
    BufferTracer tracer(network, {1}, 100 * util::kMillisecond);
    tracer.start();
    traffic::CbrSource source(network, 0, 1000, 4e6);
    source.activate(util::from_seconds(5), util::from_seconds(duration_s));
    network.run_until(util::from_seconds(duration_s));

    const double from = 0.4 * duration_s;
    WindowResult window{"hop " + util::Table::num(hop_m, 0) + " m", {}};
    window.set("goodput_kbps", metric_point(sink.goodput_kbps(0, util::from_seconds(from),
                                                              util::from_seconds(duration_s))));
    window.set("b1", metric_point(tracer.mean_occupancy(1, util::from_seconds(from),
                                                        util::from_seconds(duration_s))));
    auto* manager = dynamic_cast<phy::MinstrelRate*>(network.channel().rate_manager());
    window.set("rate_0_1_mbps",
               metric_point(manager != nullptr
                                ? static_cast<double>(manager->best_rate_bps(0, 1)) / 1e6
                                : static_cast<double>(network.config().phy.bitrate_bps) / 1e6));
    return window;
}

FigureResult run_rate_adapt(const FigureContext& ctx)
{
    const double duration_s = 1800.0 * ctx.scale;
    struct Variant {
        const char* label;
        bool minstrel;
        bool ezflow;
    };
    const std::vector<Variant> variants = {{"802.11 / fixed 1 Mb/s", false, false},
                                           {"802.11 / minstrel", true, false},
                                           {"EZ-flow / minstrel", true, true}};
    const std::vector<double> hops_m = {150.0, 190.0, 230.0};
    const int per_cell = static_cast<int>(hops_m.size());
    auto windows = fan_out(ctx, static_cast<int>(variants.size()) * per_cell, [&](int i) {
        const Variant& v = variants[static_cast<std::size_t>(i / per_cell)];
        return rate_adapt_run(ctx, hops_m[static_cast<std::size_t>(i % per_cell)], v.minstrel,
                              v.ezflow, duration_s);
    });
    FigureResult result = make_result(ctx);
    std::vector<std::string> labels;
    for (const Variant& v : variants) labels.push_back(v.label);
    add_cells(result, labels, std::move(windows));
    return result;
}

}  // namespace

void register_phy_model_figures()
{
    FigureRegistry& registry = FigureRegistry::instance();
    registry.add(FigureSpec{
        "fading", "", "figure", "Rayleigh fading outage on the 4-hop chain",
        "PHY-model extension — Jakes fading over the cumulative-SINR ledger",
        "Doppler 0 matches the clean chain; at 2.5 and 10 Hz deep fades corrupt ~6% of frames "
        "per link, retransmissions grow and goodput sags — while EZ-flow keeps the relay "
        "buffers bounded under the extra churn. Extra flags: --noise.",
        0.1, 2, 0.03, 2, run_fading});
    registry.add(FigureSpec{
        "rate_adapt", "", "figure", "Minstrel rate adaptation vs hop distance",
        "PHY-model extension — per-rate SNR decode floors + Minstrel probing",
        "At 150 m Minstrel settles at 11 Mb/s and multiplies goodput over the fixed-rate "
        "baseline; at 190 m it drops to 5.5, at 230 m to 2 — degrading gracefully to the "
        "fixed baseline as distance eats the SNR margin.",
        0.1, 1, 0.03, 1, run_rate_adapt});
}

}  // namespace ezflow::cli
