#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/recorder.h"
#include "core/agent.h"
#include "core/penalty.h"
#include "net/topologies.h"
#include "sim/fault_injector.h"
#include "traffic/sink.h"
#include "traffic/source.h"

namespace ezflow::analysis {

/// Channel-access policy under test.
enum class Mode {
    kBaseline80211,  ///< plain IEEE 802.11 DCF (the paper's baseline)
    kEzFlow,         ///< EZ-Flow agents at every transmitting node
    kPenalty,        ///< the static penalty-q policy of [9] (ablation)
};

std::string mode_name(Mode mode);

struct ExperimentOptions {
    Mode mode = Mode::kBaseline80211;
    core::CaaConfig caa{};             ///< EZ-Flow parameters (mode kEzFlow)
    core::PenaltyConfig penalty{};     ///< penalty parameters (mode kPenalty)
    double cbr_rate_bps = 2e6;         ///< saturating CBR, as in the paper
    int payload_bytes = 1000;
    util::SimTime throughput_window = 10 * util::kSecond;
    util::SimTime buffer_sample_period = 100 * util::kMillisecond;
    util::SimTime cw_sample_period = util::kSecond;
    double boe_sniff_loss = 0.0;       ///< ablation: fraction of sniffs missed
    std::size_t boe_history = 1000;    ///< BOE sent-list length (paper: 1000)
    /// Streaming measurement: recorders keep whole-run summaries
    /// (RunningStats) instead of per-event series, so peak memory is
    /// O(nodes + flows) regardless of run length. summarize() then
    /// reports whole-run delay stats instead of windowed ones; series
    /// accessors (delay_series, tracer trace(), goodput_kbps) are
    /// unavailable. For long perf runs (islands / 10k grids), not for
    /// figure generation.
    bool streaming = false;
};

/// Owns a scenario plus everything needed to run and measure it:
/// CBR sources per flow plan, a sink at each destination, buffer and cw
/// tracers on every transmitting node, and a throughput meter per flow.
class Experiment {
public:
    Experiment(net::Scenario scenario, ExperimentOptions options);
    Experiment(const Experiment&) = delete;
    Experiment& operator=(const Experiment&) = delete;

    /// Run until the latest flow stop time plus a small drain margin.
    void run();
    /// Run until `t_s` seconds of simulated time.
    void run_until_s(double t_s);

    net::Network& network() { return *scenario_.network; }
    const net::Scenario& scenario() const { return scenario_; }
    traffic::Sink& sink() { return *sink_; }
    BufferTracer& buffers() { return *buffer_tracer_; }
    CwTracer& cw_tracer() { return *cw_tracer_; }
    ThroughputMeter& throughput(int flow_id);
    const core::EzFlowAgent* agent(net::NodeId node) const;
    const ExperimentOptions& options() const { return options_; }

    /// Mean/stddev goodput (kb/s) and mean delay (s) over [from_s, to_s).
    /// The sample counts distinguish a measured zero from an unmeasured
    /// window (throughput windows / deliveries inside the interval): the
    /// value fields are 0.0 either way, and aggregation must not treat a
    /// window that was never measured as a genuine zero.
    struct FlowSummary {
        double mean_kbps = 0.0;
        double stddev_kbps = 0.0;
        double mean_delay_s = 0.0;
        double max_delay_s = 0.0;
        std::int64_t throughput_samples = 0;
        std::int64_t delay_samples = 0;
    };
    FlowSummary summarize(int flow_id, double from_s, double to_s) const;

    /// Jain's index over the given flows' goodput in [from_s, to_s).
    double fairness(const std::vector<int>& flow_ids, double from_s, double to_s) const;

    /// Nodes that transmit data (sources + relays), in id order.
    const std::vector<net::NodeId>& transmitting_nodes() const { return transmitters_; }

    /// The flows' traffic sources, in scenario flow-plan order (stats()
    /// settles closed-form accounting, hence non-const).
    const std::vector<std::unique_ptr<traffic::Source>>& sources() { return sources_; }

    /// The armed fault injector, or null when the scenario carries no
    /// fault plan.
    const sim::FaultInjector* fault_injector() const { return fault_injector_.get(); }

private:
    net::Scenario scenario_;
    ExperimentOptions options_;
    std::unique_ptr<traffic::Sink> sink_;
    std::vector<std::unique_ptr<traffic::Source>> sources_;
    std::map<int, std::unique_ptr<ThroughputMeter>> throughput_;
    std::unique_ptr<BufferTracer> buffer_tracer_;
    std::unique_ptr<CwTracer> cw_tracer_;
    std::map<net::NodeId, std::unique_ptr<core::EzFlowAgent>> agents_;
    std::vector<net::NodeId> transmitters_;
    std::unique_ptr<sim::FaultInjector> fault_injector_;
};

/// What figures read of one finished Experiment once its Network is gone:
/// the scenario's node labels and flow plan, each flow's goodput and
/// delay series, and the contention-window traces of its transmitting
/// nodes. Summaries read from a record are bit-identical to the
/// Experiment's own. Copying a record allocates every series at its exact
/// size on the copying thread.
class RunRecord {
public:
    /// Copy the measurements of a finished run.
    explicit RunRecord(Experiment& experiment);

    const std::map<net::NodeId, std::string>& labels() const { return labels_; }
    const std::vector<net::FlowPlan>& flows() const { return flows_; }

    /// As Experiment::summarize.
    Experiment::FlowSummary summarize(int flow_id, double from_s, double to_s) const;
    /// As Experiment::throughput(flow_id).series().
    const util::TimeSeries& throughput(int flow_id) const;
    /// As Experiment::sink().flow(flow_id).delay_series.
    const util::TimeSeries& delays(int flow_id) const;
    /// As Experiment::cw_tracer().trace(node): throws in streaming mode.
    const util::TimeSeries& cw_trace(net::NodeId node) const;

private:
    struct Flow {
        util::TimeSeries throughput;  ///< kb/s per throughput window
        util::TimeSeries delays;      ///< per-delivery network delay (empty when streaming)
        util::RunningStats delay_us;  ///< whole-run network delay
    };
    const Flow& flow(int flow_id) const;

    bool streaming_;
    std::map<net::NodeId, std::string> labels_;
    std::vector<net::FlowPlan> flows_;
    std::map<int, Flow> flow_series_;
    std::map<net::NodeId, util::TimeSeries> cw_traces_;  ///< empty when streaming
};

}  // namespace ezflow::analysis
