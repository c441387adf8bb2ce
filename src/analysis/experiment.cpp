#include "analysis/experiment.h"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace ezflow::analysis {

std::string mode_name(Mode mode)
{
    switch (mode) {
        case Mode::kBaseline80211: return "802.11";
        case Mode::kEzFlow: return "EZ-flow";
        case Mode::kPenalty: return "penalty-q";
    }
    throw std::logic_error("mode_name: unknown mode");
}

Experiment::Experiment(net::Scenario scenario, ExperimentOptions options)
    : scenario_(std::move(scenario)), options_(options)
{
    net::Network& net = *scenario_.network;

    // Collect transmitting nodes (sources + relays) and cw-trace targets.
    std::set<net::NodeId> transmitters;
    std::vector<CwTracer::Target> cw_targets;
    for (const net::FlowPlan& plan : scenario_.flows) {
        for (std::size_t i = 0; i + 1 < plan.path.size(); ++i) {
            if (transmitters.insert(plan.path[i]).second)
                cw_targets.push_back(CwTracer::Target{plan.path[i], plan.path[i + 1]});
        }
    }
    transmitters_.assign(transmitters.begin(), transmitters.end());

    // Policy under test.
    switch (options_.mode) {
        case Mode::kBaseline80211:
            break;
        case Mode::kEzFlow:
            agents_ = core::install_ezflow(net, options_.caa, options_.boe_history,
                                           options_.boe_sniff_loss,
                                           /*record_traces=*/!options_.streaming);
            break;
        case Mode::kPenalty:
            core::apply_penalty_policy(net, options_.penalty);
            break;
    }

    // Traffic and measurement plumbing.
    sink_ = std::make_unique<traffic::Sink>(net);
    sink_->set_streaming(options_.streaming);
    for (const net::FlowPlan& plan : scenario_.flows) {
        sink_->attach_flow(plan.flow_id);
        throughput_[plan.flow_id] =
            std::make_unique<ThroughputMeter>(net, plan.flow_id, options_.throughput_window);
        throughput_[plan.flow_id]->start();
        auto source = std::make_unique<traffic::CbrSource>(net, plan.flow_id, options_.payload_bytes,
                                                           options_.cbr_rate_bps);
        source->activate(util::from_seconds(plan.start_s), util::from_seconds(plan.stop_s));
        sources_.push_back(std::move(source));
    }
    buffer_tracer_ = std::make_unique<BufferTracer>(net, transmitters_,
                                                    options_.buffer_sample_period,
                                                    options_.streaming);
    buffer_tracer_->start();
    cw_tracer_ = std::make_unique<CwTracer>(net, cw_targets, options_.cw_sample_period,
                                            options_.streaming);
    cw_tracer_->start();

    if (!scenario_.faults.empty()) {
        fault_injector_ = std::make_unique<sim::FaultInjector>(net, scenario_.faults);
        fault_injector_->arm();
    }
}

void Experiment::run()
{
    double stop_s = 0.0;
    for (const net::FlowPlan& plan : scenario_.flows) stop_s = std::max(stop_s, plan.stop_s);
    run_until_s(stop_s + 1.0);
}

void Experiment::run_until_s(double t_s)
{
    scenario_.network->run_until(util::from_seconds(t_s));
}

ThroughputMeter& Experiment::throughput(int flow_id)
{
    const auto it = throughput_.find(flow_id);
    if (it == throughput_.end()) throw std::invalid_argument("Experiment::throughput: unknown flow");
    return *it->second;
}

const core::EzFlowAgent* Experiment::agent(net::NodeId node) const
{
    const auto it = agents_.find(node);
    return it == agents_.end() ? nullptr : it->second.get();
}

namespace {

/// One flow's summary over [from_s, to_s): the computation behind both
/// Experiment::summarize and RunRecord::summarize.
Experiment::FlowSummary summarize_series(const util::TimeSeries& throughput,
                                         const util::TimeSeries& delays,
                                         const util::RunningStats& delay_us, bool streaming,
                                         double from_s, double to_s)
{
    const util::SimTime from = util::from_seconds(from_s);
    const util::SimTime to = util::from_seconds(to_s);
    Experiment::FlowSummary summary;
    summary.mean_kbps = throughput.mean_between(from, to);
    summary.stddev_kbps = throughput.stddev_between(from, to);
    summary.throughput_samples = throughput.count_between(from, to);
    if (streaming) {
        // No delay series in streaming mode; report the whole-run stats.
        summary.delay_samples = delay_us.count();
        if (delay_us.count() > 0) {
            summary.mean_delay_s = delay_us.mean() / static_cast<double>(util::kSecond);
            summary.max_delay_s = delay_us.max() / static_cast<double>(util::kSecond);
        }
        return summary;
    }
    summary.delay_samples = delays.count_between(from, to);
    summary.mean_delay_s = delays.mean_between(from, to) / static_cast<double>(util::kSecond);
    summary.max_delay_s = delays.max_between(from, to) / static_cast<double>(util::kSecond);
    return summary;
}

}  // namespace

Experiment::FlowSummary Experiment::summarize(int flow_id, double from_s, double to_s) const
{
    const auto it = throughput_.find(flow_id);
    if (it == throughput_.end()) throw std::invalid_argument("Experiment::summarize: unknown flow");
    const traffic::Sink::FlowRecord& record = sink_->flow(flow_id);
    return summarize_series(it->second->series(), record.delay_series, record.delay_us,
                            options_.streaming, from_s, to_s);
}

double Experiment::fairness(const std::vector<int>& flow_ids, double from_s, double to_s) const
{
    std::vector<double> rates;
    rates.reserve(flow_ids.size());
    for (int id : flow_ids) {
        const auto it = throughput_.find(id);
        if (it == throughput_.end()) throw std::invalid_argument("Experiment::fairness: unknown flow");
        rates.push_back(
            it->second->mean_kbps(util::from_seconds(from_s), util::from_seconds(to_s)));
    }
    return jain_index(rates);
}

RunRecord::RunRecord(Experiment& experiment)
    : streaming_(experiment.options().streaming),
      labels_(experiment.scenario().labels),
      flows_(experiment.scenario().flows)
{
    for (const net::FlowPlan& plan : flows_) {
        const traffic::Sink::FlowRecord& record = experiment.sink().flow(plan.flow_id);
        flow_series_[plan.flow_id] = Flow{experiment.throughput(plan.flow_id).series(),
                                          record.delay_series, record.delay_us};
    }
    if (!streaming_) {
        for (net::NodeId node : experiment.transmitting_nodes())
            cw_traces_.emplace(node, experiment.cw_tracer().trace(node));
    }
}

const RunRecord::Flow& RunRecord::flow(int flow_id) const
{
    const auto it = flow_series_.find(flow_id);
    if (it == flow_series_.end()) throw std::invalid_argument("RunRecord: unknown flow");
    return it->second;
}

Experiment::FlowSummary RunRecord::summarize(int flow_id, double from_s, double to_s) const
{
    const Flow& f = flow(flow_id);
    return summarize_series(f.throughput, f.delays, f.delay_us, streaming_, from_s, to_s);
}

const util::TimeSeries& RunRecord::throughput(int flow_id) const
{
    return flow(flow_id).throughput;
}

const util::TimeSeries& RunRecord::delays(int flow_id) const { return flow(flow_id).delays; }

const util::TimeSeries& RunRecord::cw_trace(net::NodeId node) const
{
    if (streaming_) throw std::logic_error("RunRecord::cw_trace: no series in streaming mode");
    const auto it = cw_traces_.find(node);
    if (it == cw_traces_.end()) throw std::invalid_argument("RunRecord::cw_trace: untracked node");
    return it->second;
}

}  // namespace ezflow::analysis
