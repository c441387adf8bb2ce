#include "net/node.h"

#include <stdexcept>
#include <utility>

namespace ezflow::net {

Node::Node(NodeId id, phy::Position position, sim::Scheduler& scheduler,
           mac::ContentionCoordinator& coordinator, util::Rng rng, const mac::MacParams& mac_params,
           const StaticRouting& routing)
    : id_(id),
      phy_(id, position, scheduler),
      mac_(phy_, scheduler, coordinator, std::move(rng), mac_params),
      routing_(routing)
{
    mac_.set_callbacks(this);
}

void Node::set_forward_interceptor(ForwardInterceptor interceptor)
{
    if (interceptor_ && interceptor)
        throw std::logic_error("Node::set_forward_interceptor: already installed");
    interceptor_ = std::move(interceptor);
}

bool Node::send(Packet packet)
{
    if (!up_) {
        ++drops_node_down_;
        return false;
    }
    const NodeId next = routing_.next_hop_or_none(packet.flow_id, id_);
    if (next == StaticRouting::kNoNextHop) {
        // Suspended (partitioned) flow, or repair in flight. Sources
        // check routability before generating, so this is the rare race
        // window between a repair and an already-scheduled emission.
        ++drops_unroutable_;
        return false;
    }
    const mac::QueueKey key{next, /*own_traffic=*/true};
    if (interceptor_ && interceptor_(key, packet)) return true;
    const bool accepted = mac_.enqueue(key, std::move(packet));
    if (!accepted) ++source_queue_drops_;
    return accepted;
}

mac::MacQueue* Node::own_traffic_queue(int flow_id)
{
    const NodeId next = routing_.next_hop_or_none(flow_id, id_);
    if (next == StaticRouting::kNoNextHop) return nullptr;
    return mac_.queues().find(mac::QueueKey{next, /*own_traffic=*/true});
}

void Node::teardown()
{
    if (!up_) return;
    up_ = false;
    // Order matters: the MAC must be quiet before the radio dies so the
    // PHY wipe never triggers busy-edge callbacks into a live state
    // machine, and queue flushes (which may wake gated sources) already
    // see the node as down.
    mac_.quiesce();
    phy_.power_off();
    // Reorder-parked MPDUs die with the node: they were received but
    // never released upward, so they leave the system through the same
    // node-down bucket as flushed queue backlog.
    for (auto& [src, stream] : reorder_) drops_node_down_ += stream.held.size();
    reorder_.clear();
}

void Node::revive()
{
    if (up_) return;
    up_ = true;
    phy_.power_on();
    mac_.revive();
}

void Node::handle_packet(const Packet& packet)
{
    if (packet.dst == id_) {
        ++delivered_;
        for (const auto& handler : delivery_) handler(packet);
        return;
    }
    const NodeId next = routing_.next_hop_or_none(packet.flow_id, id_);
    if (next == StaticRouting::kNoNextHop) {
        // The flow was suspended or re-routed around this node while the
        // packet was in flight: it dies here, accounted.
        ++drops_unroutable_;
        return;
    }
    ++forwarded_;
    const mac::QueueKey key{next, /*own_traffic=*/false};
    if (interceptor_ && interceptor_(key, packet)) return;
    if (!mac_.enqueue(key, packet)) ++forward_queue_drops_;
}

void Node::mac_rx(const phy::Frame& frame)
{
    if (!frame.has_packet) throw std::logic_error("Node::mac_rx: data frame without packet");
    handle_packet(frame.packet);
}

void Node::mac_rx_aggregated(const phy::Frame& frame, std::uint64_t ok_bits,
                             std::uint32_t release_below)
{
    ReorderStream& stream = reorder_[frame.tx_node];
    // Park the newly received MPDUs (the MAC's scoreboard already
    // filtered duplicates, so each sequence lands here at most once).
    for (std::size_t i = 0; i < frame.subframes.size() && i < 64; ++i) {
        if (((ok_bits >> i) & 1) == 0) continue;
        const phy::Mpdu& mpdu = frame.subframes[i];
        if (mpdu.seq < stream.next_seq) continue;  // defensive: already released
        stream.held.emplace(mpdu.seq, mpdu.packet);
    }
    // BAR-free window advance: the sender's advertised start proves every
    // lower sequence is settled there (acked or abandoned), so release
    // what we hold below it — in order — and skip the holes for good.
    if (release_below > stream.next_seq) {
        const auto end = stream.held.lower_bound(release_below);
        for (auto it = stream.held.begin(); it != end; ++it) handle_packet(it->second);
        stream.held.erase(stream.held.begin(), end);
        stream.next_seq = release_below;
    }
    // Drain the contiguous in-order run from the buffer.
    for (auto it = stream.held.find(stream.next_seq); it != stream.held.end();
         it = stream.held.find(stream.next_seq)) {
        handle_packet(it->second);
        stream.held.erase(it);
        ++stream.next_seq;
    }
}

std::uint64_t Node::reorder_buffered() const
{
    std::uint64_t total = 0;
    for (const auto& [src, stream] : reorder_) total += stream.held.size();
    return total;
}

void Node::mac_sniffed(const phy::Frame& frame)
{
    for (const auto& handler : sniffers_) handler(frame);
}

void Node::mac_first_tx(const mac::QueueKey& key, const Packet& packet)
{
    for (const auto& handler : first_tx_) handler(key, packet);
}

void Node::mac_tx_success(const mac::QueueKey& key, const Packet& packet)
{
    for (const auto& handler : tx_success_) handler(key, packet);
}

void Node::mac_tx_drop(const mac::QueueKey& key, const Packet& packet)
{
    (void)key;
    (void)packet;
}

}  // namespace ezflow::net
