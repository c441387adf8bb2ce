#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "mac/dcf.h"
#include "net/packet.h"
#include "net/routing.h"
#include "phy/phy.h"

namespace ezflow::net {

/// A mesh node: one radio (PHY + DCF MAC) plus the forwarding plane.
///
/// Received data packets addressed to this node are either delivered to the
/// local sink (end of path) or re-enqueued toward the flow's next hop, in
/// the per-successor forwarding queue the paper prescribes. Locally
/// generated traffic uses a separate "own traffic" queue so forwarded
/// packets are never starved by the source role (Section 3.1).
class Node final : public mac::MacCallbacks {
public:
    using DeliveryHandler = std::function<void(const Packet&)>;
    using SniffHandler = std::function<void(const phy::Frame&)>;
    using FirstTxHandler = std::function<void(const mac::QueueKey&, const Packet&)>;
    using TxEventHandler = std::function<void(const mac::QueueKey&, const Packet&)>;
    /// Returns true when it consumed the packet (e.g. a routing-layer
    /// pacing queue took it instead of the MAC).
    using ForwardInterceptor = std::function<bool(const mac::QueueKey&, const Packet&)>;

    Node(NodeId id, phy::Position position, sim::Scheduler& scheduler,
         mac::ContentionCoordinator& coordinator, util::Rng rng, const mac::MacParams& mac_params,
         const StaticRouting& routing);

    NodeId id() const { return id_; }
    phy::NodePhy& phy() { return phy_; }
    const phy::NodePhy& phy() const { return phy_; }
    mac::DcfMac& mac() { return mac_; }
    const mac::DcfMac& mac() const { return mac_; }

    /// Inject a locally generated packet (source role; moved into the
    /// own-traffic queue). Returns false when the queue dropped it.
    bool send(Packet packet);

    /// The MAC interface queue locally generated traffic enters, or
    /// nullptr before the first send. Backpressure-gated sources register
    /// their vacancy callbacks on it.
    mac::MacQueue* own_traffic_queue(int flow_id);

    /// Account `count` source-side drops a gated source skipped in
    /// closed form (the per-packet reference would have routed each
    /// through send() individually).
    void count_gated_source_drops(std::uint64_t count) { source_queue_drops_ += count; }

    /// Upper-layer delivery for packets whose end-to-end destination is
    /// this node. Multiple handlers may subscribe (sink, meters, taps);
    /// each sees every delivered packet.
    void add_delivery_handler(DeliveryHandler handler) { delivery_.push_back(std::move(handler)); }

    /// Promiscuous observers (EZ-Flow BOE, debug taps). All registered
    /// handlers see every decoded frame not addressed to this node.
    void add_sniff_handler(SniffHandler handler) { sniffers_.push_back(std::move(handler)); }
    /// Observers of first on-air transmission attempts (BOE send hook).
    void add_first_tx_handler(FirstTxHandler handler) { first_tx_.push_back(std::move(handler)); }
    /// Observers of MAC completion events (success after ACK / retry drop).
    void add_tx_success_handler(TxEventHandler handler) { tx_success_.push_back(std::move(handler)); }

    /// Intercept outgoing packets (source and forwarded) before they reach
    /// the MAC. Used by the rate-pacing EZ-Flow variant (core/pacer.h).
    /// At most one interceptor can be installed.
    void set_forward_interceptor(ForwardInterceptor interceptor);
    /// Whether an interceptor is installed — the pacer holds packets
    /// outside the MAC queues, so the end-to-end drop audit must stand
    /// down when this is true.
    bool has_interceptor() const { return static_cast<bool>(interceptor_); }

    // --- fault injection (orchestrated by Network::set_node_down/up) ---
    /// Quiesce the MAC (flushing queues into drops_node_down) and kill
    /// the radio. The caller detaches the PHY from the channel.
    void teardown();
    /// Power the radio back on and revive the MAC. The caller reattaches
    /// the PHY to the channel first.
    void revive();
    bool is_up() const { return up_; }

    // Forwarding statistics.
    std::uint64_t forwarded() const { return forwarded_; }
    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t forward_queue_drops() const { return forward_queue_drops_; }
    std::uint64_t source_queue_drops() const { return source_queue_drops_; }
    /// Packets refused because this node was down (send/forward into a
    /// quiesced MAC); queue flushes count separately, per queue.
    std::uint64_t drops_node_down() const { return drops_node_down_; }
    /// Packets abandoned because the flow had no next hop here (flow
    /// suspended after a partition, or repair in progress).
    std::uint64_t drops_unroutable() const { return drops_unroutable_; }
    /// Packets parked in the per-originator reorder buffers: received out
    /// of order from an A-MPDU and awaiting their predecessors (counts as
    /// in-flight backlog for the drop audit's conservation laws).
    std::uint64_t reorder_buffered() const;

    // --- mac::MacCallbacks ---
    void mac_rx(const phy::Frame& frame) override;
    void mac_sniffed(const phy::Frame& frame) override;
    void mac_first_tx(const mac::QueueKey& key, const Packet& packet) override;
    void mac_tx_success(const mac::QueueKey& key, const Packet& packet) override;
    void mac_tx_drop(const mac::QueueKey& key, const Packet& packet) override;
    void mac_rx_aggregated(const phy::Frame& frame, std::uint64_t ok_bits,
                           std::uint32_t release_below) override;

private:
    /// Deliver locally or forward toward the next hop — the single-packet
    /// receive path shared by mac_rx and the reorder-buffer release.
    void handle_packet(const Packet& packet);

    /// Per-originator reorder stream: MPDUs of one A-MPDU sender are
    /// released upward strictly in sequence order. `next_seq` is the
    /// lowest sequence not yet released; `held` parks out-of-order
    /// arrivals until their predecessors arrive or the sender's advertised
    /// window start (release_below) flushes past an abandoned hole.
    struct ReorderStream {
        std::uint32_t next_seq = 0;
        std::map<std::uint32_t, Packet> held;
    };
    NodeId id_;
    phy::NodePhy phy_;
    mac::DcfMac mac_;
    const StaticRouting& routing_;

    std::vector<DeliveryHandler> delivery_;
    std::vector<SniffHandler> sniffers_;
    std::vector<FirstTxHandler> first_tx_;
    std::vector<TxEventHandler> tx_success_;
    ForwardInterceptor interceptor_;
    std::map<NodeId, ReorderStream> reorder_;

    bool up_ = true;
    std::uint64_t forwarded_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t forward_queue_drops_ = 0;
    std::uint64_t source_queue_drops_ = 0;
    std::uint64_t drops_node_down_ = 0;
    std::uint64_t drops_unroutable_ = 0;
};

}  // namespace ezflow::net
