#include "phy/channel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "phy/geometry.h"

namespace ezflow::phy {

Channel::Channel(sim::Scheduler& scheduler, util::Rng rng, PhyParams params)
    : scheduler_(scheduler), rng_(std::move(rng)), params_(params)
{
}

void Channel::attach(NodePhy& phy)
{
    if (!index_by_id_.emplace(phy.id(), phys_.size()).second)
        throw std::invalid_argument("Channel::attach: duplicate node id");
    phys_.push_back(&phy);
    phy.set_channel(this);
    reach_.clear();  // topology grew: rebuild lazily on the next transmit
}

void Channel::detach(NodePhy& phy)
{
    const auto it = index_by_id_.find(phy.id());
    if (it == index_by_id_.end() || phys_[it->second] != &phy)
        throw std::invalid_argument("Channel::detach: phy not attached");
    const std::size_t gone = it->second;
    phys_.erase(phys_.begin() + static_cast<std::ptrdiff_t>(gone));
    index_by_id_.erase(it);
    for (auto& [id, index] : index_by_id_)
        if (index > gone) --index;
    phy.set_channel(nullptr);
}

bool Channel::is_attached(const NodePhy& phy) const
{
    const auto it = index_by_id_.find(phy.id());
    return it != index_by_id_.end() && phys_[it->second] == &phy;
}

void Channel::set_models(const PhyModelConfig& config, std::uint64_t network_seed)
{
    if (config.is_reference()) return;  // exact no-op: golden-pinned path
    set_propagation_model(make_propagation(config, network_seed));
    set_rate_manager(make_rate_manager(config));
    set_interference_mode(config.interference);
    if (config.noise_floor_w >= 0.0) params_.noise_floor_w = config.noise_floor_w;
}

void Channel::set_propagation_model(std::unique_ptr<PropagationModel> model)
{
    propagation_ = std::move(model);
    reach_.clear();  // power law changed: precomputed powers are stale
}

double Channel::link_power(net::NodeId tx, net::NodeId rx, double distance_m)
{
    if (propagation_ == nullptr) {
        // Reference two-ray ground power (all scenario distances sit beyond
        // the ~86 m crossover, so the d^-4 regime applies; the constant
        // factor cancels in every capture-SIR comparison). Clamp tiny
        // distances to keep the power finite for co-located nodes.
        const double d_eff = std::max(distance_m, 1.0);
        return 1.0 / (d_eff * d_eff * d_eff * d_eff);
    }
    return propagation_->link_power_w(tx, rx, 1.0, distance_m, scheduler_.now());
}

double Channel::frame_capture_threshold(const Frame& frame) const
{
    if (interference_ == PhyModelConfig::Interference::kReference)
        return params_.capture_threshold;
    // Cumulative-SINR mode: the frame must clear both the capture threshold
    // and its modulation's decode floor, whichever is harsher.
    const std::int64_t rate = frame.bitrate_bps > 0 ? frame.bitrate_bps : params_.bitrate_bps;
    const double db = std::max(params_.capture_threshold_db, min_decode_snr_db(rate));
    return std::pow(10.0, db / 10.0);
}

void Channel::ensure_reach()
{
    if (reach_.size() == phys_.size()) return;
    const bool static_power = propagation_ == nullptr || propagation_->time_invariant();
    const double radius = params_.conflict_radius_m();
    std::vector<Position> positions;
    positions.reserve(phys_.size());
    for (const NodePhy* phy : phys_) positions.push_back(phy->position());
    // Candidates arrive in ascending attach index, so each list keeps the
    // order (and, with the same filter, the contents) of a scan over
    // every attached PHY.
    const CellIndex index(positions, radius);
    std::vector<std::size_t> candidates;
    reach_.assign(phys_.size(), {});
    for (std::size_t s = 0; s < phys_.size(); ++s) {
        const NodePhy& sender = *phys_[s];
        index.candidates(positions[s], candidates);
        for (const std::size_t c : candidates) {
            NodePhy* phy = phys_[c];
            if (phy == &sender) continue;
            const double d = distance(sender.position(), phy->position());
            if (d > radius) continue;
            // Time-variant propagation (fading) re-derives power at
            // transmit time from the stored distance; otherwise the power
            // is precomputed here, once per topology.
            const double power_w = static_power ? link_power(sender.id(), phy->id(), d) : 0.0;
            reach_[s].push_back(
                ReachEntry{phy, d <= params_.tx_range_m, d <= params_.cs_range_m, power_w, d});
        }
    }
}

const std::vector<Channel::ReachEntry>& Channel::reach_list(net::NodeId tx)
{
    const auto it = index_by_id_.find(tx);
    if (it == index_by_id_.end()) throw std::invalid_argument("Channel::reach_list: unknown node");
    ensure_reach();
    return reach_[it->second];
}

void Channel::set_link_error_model(net::NodeId tx, net::NodeId rx,
                                   std::unique_ptr<ErrorModel> model)
{
    if (model == nullptr)
        throw std::invalid_argument("Channel::set_link_error_model: model required");
    model->reset(scheduler_.now(), rng_);
    error_models_.insert_or_assign(tx, rx, std::move(model));
}

void Channel::set_link_loss(net::NodeId tx, net::NodeId rx, double loss_probability)
{
    set_link_error_model(tx, rx, std::make_unique<StaticLoss>(loss_probability));
}

double Channel::link_loss(net::NodeId tx, net::NodeId rx) const
{
    const auto* model = error_models_.find(tx, rx);
    return model == nullptr ? 0.0 : (*model)->mean_loss();
}

double Channel::sample_link_loss(net::NodeId tx, net::NodeId rx)
{
    auto* model = error_models_.find(tx, rx);
    if (model == nullptr) return 0.0;
    return (*model)->loss_probability(scheduler_.now(), rng_);
}

void Channel::end_transmission(FrameRecord& record)
{
    // One end event normally covers every receiver and then the sender;
    // a split (see transmit) stops this event early and leaves the rest
    // to the next one.
    const std::size_t count = record.receivers_.size();
    const std::size_t stop =
        record.next_split_ < record.splits_.size() ? record.splits_[record.next_split_++] : count;
    while (record.next_receiver_ < stop) {
        NodePhy* phy = record.receivers_[record.next_receiver_++];
        phy->signal_end(record.signal_id_, record.frame_);
    }
    if (stop == count) record.sender_->tx_end(record.frame_);
}

void Channel::schedule_end_event(SimTime at, const FrameRef& ref)
{
    scheduler_.schedule_at(at, [ref] { end_transmission(*ref.record_); });
}

void Channel::transmit(NodePhy& sender, Frame frame)
{
    const SimTime end_at = scheduler_.now() + params_.tx_duration(frame);
    const std::uint64_t signal_id = next_signal_id_++;
    ++transmissions_;
    if (frame.type == FrameType::kData) ++data_transmissions_;

    // Single-copy fan-out: the frame moves into one pooled record that
    // also lists the receivers, and a single end event — capturing one
    // pointer-sized handle, so it stays in the scheduler's inline buffer
    // — fires every receiver's signal_end in fan-out order and then the
    // sender's tx_end. The record, not reach_, owns the list: attach and
    // detach may rebuild reach_ while the frame is on the air.
    const FrameRef ref = frame_pool_.make(std::move(frame));
    FrameRecord& record = *ref.record_;
    record.sender_ = &sender;
    record.signal_id_ = signal_id;
    const Frame& shared = record.frame_;

    const bool sinr = interference_ == PhyModelConfig::Interference::kSinrLedger;
    const double threshold = frame_capture_threshold(shared);
    const double noise_w = sinr ? params_.noise_floor_w : 0.0;
    const bool dynamic_power = propagation_ != nullptr && !propagation_->time_invariant();

    ensure_reach();
    const auto it = index_by_id_.find(sender.id());
    if (it == index_by_id_.end()) throw std::logic_error("Channel::transmit: sender not attached");
    for (const ReachEntry& r : reach_[it->second]) {
        NodePhy* phy = r.phy;
        RxEvent rx;
        rx.signal_id = signal_id;
        rx.frame = &shared;
        rx.power_w = dynamic_power ? link_power(sender.id(), phy->id(), r.distance_m) : r.power_w;
        rx.noise_w = noise_w;
        rx.capture_threshold = threshold;
        rx.in_delivery = r.in_delivery;
        rx.sensed = r.sensed;
        rx.error = false;
        rx.mpdu_error_bits = 0;
        if (r.in_delivery) {
            const std::size_t n_sub = shared.subframes.size();
            if (n_sub > 0) {
                // Aggregated frame: the per-link error model corrupts each
                // MPDU independently (one roll per subframe from the same
                // sampled loss), and `error` collapses to the legacy
                // whole-frame verdict only when every subframe is lost.
                const double loss = sample_link_loss(sender.id(), phy->id());
                std::uint64_t bits = 0;
                for (std::size_t i = 0; i < n_sub && i < 64; ++i)
                    if (rng_.bernoulli(loss)) bits |= (1ull << i);
                rx.mpdu_error_bits = bits;
                rx.error = bits == (n_sub >= 64 ? ~0ull : (1ull << n_sub) - 1);
            } else {
                rx.error = rng_.bernoulli(sample_link_loss(sender.id(), phy->id()));
            }
        }
        const std::uint64_t mark = scheduler_.next_event_seq();
        phy->signal_start(rx);
        // Ordering. The goldens pin one end per receiver, each scheduled
        // right after that receiver's signal_start, with the sender's
        // tx_end last; same-instant events fire FIFO. The first end event
        // takes the first receiver's place and fires the receivers in the
        // same order, so the two agree unless a signal_start schedules an
        // event for exactly end_at, which must fire between the previous
        // receiver's end and this one's. Such an event exists:
        // signal_start's busy edge (update_busy -> phy_busy_changed(true))
        // freezes a contending DCF, and the freeze re-aims the shared
        // ContentionCoordinator timer at the next registrant's stage or
        // expiry, which can equal end_at. The re-aim waits while a
        // coordinator expiry is transmitting, but a SIFS-timed ACK, CTS or
        // data-after-CTS re-aims at once (ACKs in the --smoke suite hit
        // this). So it is ordered explicitly: when one appears, the
        // current end event stops before this receiver and a new one,
        // scheduled after the intruder, takes the rest. No event runs
        // between the mark and the check, so every intruder is seen.
        if (record.receivers_.empty()) {
            schedule_end_event(end_at, ref);
        } else if (scheduler_.scheduled_since(mark, end_at)) {
            record.splits_.push_back(static_cast<std::uint32_t>(record.receivers_.size()));
            schedule_end_event(end_at, ref);
        }
        record.receivers_.push_back(phy);
    }
    if (record.receivers_.empty()) schedule_end_event(end_at, ref);  // tx_end alone
}

}  // namespace ezflow::phy
