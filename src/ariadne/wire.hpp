// Ariadne protocol messages — the one vocabulary every layer speaks. The
// protocol (ariadne/protocol.cpp) builds and dispatches these structs,
// the simulator moves them unchanged inside net::Message, and the socket
// transport (net/event_loop.*) frames them through this codec. The codec
// is also the surface the protocol fuzz target attacks.
//
// Format (all integers little-endian):
//
//   magic 'S' 'A' | version u8 (=1) | type u8 | payload fields
//
// Strings are u32 length + bytes; vectors are u32 count + elements;
// doubles travel as their IEEE-754 bit pattern in a u64. Every length is
// validated against the remaining input before it is consumed, so a
// hostile length cannot trigger an allocation larger than the datagram
// that claims it. Decoding never throws — try_decode returns
// Result<WireMessage> with ErrorCode::kParse for any malformed input
// (see sariadne-analyze's wire-decode rule).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "directory/types.hpp"
#include "support/result.hpp"

namespace sariadne::ariadne::wire {

inline constexpr std::uint8_t kMagic0 = 'S';
inline constexpr std::uint8_t kMagic1 = 'A';
inline constexpr std::uint8_t kVersion = 1;

/// Wire ids of the protocol's message types. Values are wire format —
/// append only, never renumber. The trailing comments are the names
/// to_string() gives them in metric labels and logs.
enum class MsgType : std::uint8_t {
    kDirAdv = 1,           ///< "dir-adv"
    kElectCall = 2,        ///< "elect-call"
    kElectCandidate = 3,   ///< "elect-cand"
    kElectAppoint = 4,     ///< "elect-appoint"
    kPublish = 5,          ///< "pub"
    kPubAck = 6,           ///< "pub-ack"
    kPubNack = 7,          ///< "pub-nack"
    kRequest = 8,          ///< "req"
    kResponse = 9,         ///< "resp"
    kForward = 10,         ///< "fwd"
    kForwardResponse = 11, ///< "fwd-resp"
    kSummaryPush = 12,     ///< "summary-push"
    kSummaryPull = 13,     ///< "summary-pull"
    kHandover = 14,        ///< "handover"
    kPublishBatch = 15,    ///< "pub-batch"
    kSummaryBitmap = 16,   ///< "summary-bitmap"
    kSummaryDelta = 17,    ///< "summary-delta"
};

inline constexpr std::size_t kMsgTypeCount = 17;

/// Dense 0-based slot of a message type, for per-type arrays.
constexpr std::size_t index(MsgType type) noexcept {
    return static_cast<std::size_t>(type) - 1;
}

/// The message type's name in metric labels (`sim.deliveries{type=...}`)
/// and example output.
constexpr const char* to_string(MsgType type) noexcept {
    switch (type) {
        case MsgType::kDirAdv: return "dir-adv";
        case MsgType::kElectCall: return "elect-call";
        case MsgType::kElectCandidate: return "elect-cand";
        case MsgType::kElectAppoint: return "elect-appoint";
        case MsgType::kPublish: return "pub";
        case MsgType::kPubAck: return "pub-ack";
        case MsgType::kPubNack: return "pub-nack";
        case MsgType::kRequest: return "req";
        case MsgType::kResponse: return "resp";
        case MsgType::kForward: return "fwd";
        case MsgType::kForwardResponse: return "fwd-resp";
        case MsgType::kSummaryPush: return "summary-push";
        case MsgType::kSummaryPull: return "summary-pull";
        case MsgType::kHandover: return "handover";
        case MsgType::kPublishBatch: return "pub-batch";
        case MsgType::kSummaryBitmap: return "summary-bitmap";
        case MsgType::kSummaryDelta: return "summary-delta";
    }
    return "unknown";
}

// --- payloads -------------------------------------------------------------

struct DirAdv {
    std::uint32_t directory = 0;
    friend bool operator==(const DirAdv&, const DirAdv&) = default;
};

struct ElectCall {
    std::uint32_t initiator = 0;
    friend bool operator==(const ElectCall&, const ElectCall&) = default;
};

struct ElectCandidate {
    std::uint32_t candidate = 0;
    double fitness = 0;
    friend bool operator==(const ElectCandidate&,
                           const ElectCandidate&) = default;
};

struct ElectAppoint {
    friend bool operator==(const ElectAppoint&, const ElectAppoint&) = default;
};

struct PublishDoc {
    std::string document;
    std::uint64_t pub_id = 0;  ///< 0 = fire-and-forget (no ack expected)
    friend bool operator==(const PublishDoc&, const PublishDoc&) = default;
};

struct PubAck {
    std::uint64_t pub_id = 0;
    friend bool operator==(const PubAck&, const PubAck&) = default;
};

/// Bounce for a `pub` that landed on a node that lost the directory role:
/// carries the document back so the provider can re-route at once.
struct PubNack {
    std::uint64_t pub_id = 0;
    std::string document;
    friend bool operator==(const PubNack&, const PubNack&) = default;
};

struct Request {
    std::uint64_t request_id = 0;
    std::uint32_t client = 0;
    std::string document;
    friend bool operator==(const Request&, const Request&) = default;
};

/// One match hit as it travels in responses: the directory's own hit
/// type, so answers need no conversion. The distance goes on the wire as
/// a u32 bit pattern.
using Hit = directory::MatchHit;
static_assert(sizeof(int) == 4, "Hit::semantic_distance travels as 32 bits");

struct Response {
    std::uint64_t request_id = 0;
    std::vector<Hit> hits;
    bool satisfied = false;
    double compute_ms = 0;
    std::uint32_t directories_asked = 0;
    friend bool operator==(const Response&, const Response&) = default;
};

struct Forward {
    std::uint64_t request_id = 0;
    std::uint32_t origin = 0;
    std::string document;
    friend bool operator==(const Forward&, const Forward&) = default;
};

/// A peer directory's answer to a Forward, per requested capability.
struct ForwardResponse {
    std::uint64_t request_id = 0;
    std::vector<std::vector<Hit>> per_capability;
    double compute_ms = 0;
    friend bool operator==(const ForwardResponse&,
                           const ForwardResponse&) = default;
};

struct SummaryPush {
    std::uint32_t from = 0;
    std::vector<std::uint64_t> summary_wire;  ///< BloomFilter::serialize()
    friend bool operator==(const SummaryPush&, const SummaryPush&) = default;
};

struct SummaryPull {
    friend bool operator==(const SummaryPull&, const SummaryPull&) = default;
};

struct Handover {
    std::string state_xml;
    friend bool operator==(const Handover&, const Handover&) = default;
};

/// Bulk publish: many documents in one datagram so the directory can take
/// the batched ingest path (one service-table critical section, shard-run
/// DAG locking, at most one summary rebuild). Each member keeps its own
/// pub_id so acks/nacks stay per-document.
struct PublishBatch {
    std::vector<PublishDoc> docs;
    friend bool operator==(const PublishBatch&, const PublishBatch&) = default;
};

/// Full exact-summary snapshot. The image is the summary codec's own
/// bounded format (summary/summary_wire.hpp) carried opaquely: the outer
/// frame validates only the byte length, the inner decoder re-validates
/// structure, so a hostile image is rejected at exactly one layer.
struct SummaryBitmap {
    std::uint32_t from = 0;
    std::vector<std::uint8_t> image;  ///< summary::encode_summary()
    friend bool operator==(const SummaryBitmap&,
                           const SummaryBitmap&) = default;
};

/// Since-version word runs against the receiver's held summary; falls
/// back to SummaryBitmap when the delta would outweigh the snapshot.
struct SummaryDelta {
    std::uint32_t from = 0;
    std::vector<std::uint8_t> image;  ///< summary::encode_delta()
    friend bool operator==(const SummaryDelta&, const SummaryDelta&) = default;
};

/// Every protocol message, its alternatives listed in MsgType order: the
/// alternative a payload holds *is* its message type (type_of).
using Payload =
    std::variant<DirAdv, ElectCall, ElectCandidate, ElectAppoint, PublishDoc,
                 PubAck, PubNack, Request, Response, Forward, ForwardResponse,
                 SummaryPush, SummaryPull, Handover, PublishBatch,
                 SummaryBitmap, SummaryDelta>;

static_assert(std::variant_size_v<Payload> == kMsgTypeCount);

/// Relies on the alternative order above; encode(WireMessage) checks it
/// for every message it is given, and the decode-robustness tests give it
/// a sample of every type.
constexpr MsgType type_of(const Payload& payload) noexcept {
    return static_cast<MsgType>(payload.index() + 1);
}

/// A decoded datagram. `type` always equals type_of(payload).
struct WireMessage {
    MsgType type = MsgType::kDirAdv;
    Payload payload;
    friend bool operator==(const WireMessage&, const WireMessage&) = default;
};

/// Serializes one message; the header's type byte is type_of(payload).
std::vector<std::uint8_t> encode(const Payload& payload);

/// encode(payload), appended to `out` (whose existing bytes are kept), so
/// a caller can serialize behind its own framing without a second copy.
void encode_into(const Payload& payload, std::vector<std::uint8_t>& out);

/// Serializes a message. `type` must match the payload alternative
/// (SARIADNE_EXPECTS enforces it).
std::vector<std::uint8_t> encode(const WireMessage& message);

/// Parses one complete datagram. Never throws: malformed, truncated, or
/// trailing-garbage input yields ErrorCode::kParse with a description of
/// the offending field.
Result<WireMessage> try_decode(std::span<const std::uint8_t> bytes) noexcept;

}  // namespace sariadne::ariadne::wire
