// Transport-neutral vocabulary shared by the protocol layer and every
// concrete transport. These types describe *what* moves between nodes,
// not *how*: the discrete-event simulator (net/simulator.hpp) and the
// real socket transport (net/event_loop.hpp) both address `NodeId`s,
// deliver `Message`s, and account traffic in a `TrafficStats`. They live
// in src/ariadne (below src/net in the layer DAG) so the protocol layer
// compiles against this header alone — never against a concrete
// transport — and they stay in namespace sariadne::net because they name
// the network-facing contract, wherever a transport implements it.
#pragma once

#include <array>
#include <cstdint>

#include "ariadne/wire.hpp"

namespace sariadne::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xFFFFFFFFu;

/// Milliseconds on the transport's clock: virtual time on the simulator,
/// real steady-clock time on the socket event loop.
using SimTime = double;

struct Message {
    NodeId source = kNoNode;
    /// The protocol message itself: the simulator moves it unchanged, the
    /// socket transport frames it with ariadne::wire::encode.
    ariadne::wire::Payload payload;
    std::uint32_t size_bytes = 0;  ///< modeled wire size (traffic accounting)
    /// Per-send sequence id, assigned by the transport: every unicast or
    /// broadcast initiation gets a fresh id, and a fault-injected duplicate
    /// delivery carries the id of the send it echoes. Receivers deduplicate
    /// on it; retransmissions are distinct sends and get distinct ids.
    std::uint64_t wire_seq = 0;

    ariadne::wire::MsgType type() const noexcept {
        return ariadne::wire::type_of(payload);
    }
};

/// Deliveries per message type: a fixed array indexed by MsgType.
class PerTypeCounts {
public:
    std::uint64_t& operator[](ariadne::wire::MsgType type) noexcept {
        return counts_[ariadne::wire::index(type)];
    }
    std::uint64_t operator[](ariadne::wire::MsgType type) const noexcept {
        return counts_[ariadne::wire::index(type)];
    }
    friend bool operator==(const PerTypeCounts&,
                           const PerTypeCounts&) = default;

private:
    std::array<std::uint64_t, ariadne::wire::kMsgTypeCount> counts_{};
};

/// Traffic counters, aggregated over the run. The simulator fills every
/// field; the socket transport has no radio, so the link/fault series stay
/// zero there and `bytes_transmitted` counts real socket bytes.
struct TrafficStats {
    std::uint64_t unicasts = 0;          ///< unicast sends
    std::uint64_t broadcasts = 0;        ///< broadcast initiations
    std::uint64_t deliveries = 0;        ///< messages handed to the protocol
    std::uint64_t link_transmissions = 0;///< per-hop radio transmissions
    std::uint64_t bytes_transmitted = 0; ///< size-weighted link transmissions
    std::uint64_t dropped_unreachable = 0;
    std::uint64_t faults_dropped = 0;    ///< deliveries lost to the FaultPlan
    std::uint64_t faults_duplicated = 0; ///< deliveries echoed by the FaultPlan
    std::uint64_t faults_crashes = 0;    ///< scheduled node downs executed
    std::uint64_t faults_recoveries = 0; ///< scheduled node ups executed
    PerTypeCounts per_type;              ///< deliveries by message type

    /// Replay determinism check: two runs with the same seed and fault
    /// plan must produce identical traffic.
    friend bool operator==(const TrafficStats&, const TrafficStats&) = default;
};

}  // namespace sariadne::net
