// lint:wire-decode — this translation unit is a wire-decode path: it must
// not contain a `throw`; every failure is reported through Result.
#include "ariadne/wire.hpp"

#include <bit>
#include <cstring>

#include "support/contracts.hpp"

namespace sariadne::ariadne::wire {

namespace {

// --- encoding helpers ---------------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
    out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

void put_double(std::vector<std::uint8_t>& out, double v) {
    put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
    put_u32(out, static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

void put_hit(std::vector<std::uint8_t>& out, const Hit& hit) {
    put_u32(out, hit.service);
    put_string(out, hit.service_name);
    put_string(out, hit.capability_name);
    put_u32(out, static_cast<std::uint32_t>(hit.semantic_distance));
}

// --- decoding helpers ---------------------------------------------------

/// Bounded cursor over the datagram. Every read checks the remaining
/// length first and reports the field that fell short, so a hostile
/// length field can neither run past the buffer nor size an allocation
/// beyond what the datagram actually carries.
class Reader {
public:
    explicit Reader(std::span<const std::uint8_t> bytes) noexcept
        : data_(bytes.data()), size_(bytes.size()) {}

    bool failed() const noexcept { return failed_; }
    const std::string& context() const noexcept { return context_; }
    std::size_t remaining() const noexcept { return size_ - pos_; }

    std::uint8_t u8(const char* field) noexcept {
        if (!require(1, field)) return 0;
        return data_[pos_++];
    }

    std::uint32_t u32(const char* field) noexcept {
        if (!require(4, field)) return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
        }
        pos_ += 4;
        return v;
    }

    std::uint64_t u64(const char* field) noexcept {
        if (!require(8, field)) return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
        }
        pos_ += 8;
        return v;
    }

    double f64(const char* field) noexcept {
        return std::bit_cast<double>(u64(field));
    }

    bool boolean(const char* field) {
        const std::uint8_t v = u8(field);
        if (!failed_ && v > 1) fail(field, "boolean byte not 0/1");
        return v == 1;
    }

    std::string string(const char* field) {
        const std::uint32_t len = u32(field);
        if (failed_) return {};
        if (len > remaining()) {
            fail(field, "string length exceeds remaining input");
            return {};
        }
        std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
        pos_ += len;
        return s;
    }

    /// Validates a vector count against the minimum wire size of one
    /// element before the caller allocates anything.
    std::uint32_t count(const char* field, std::size_t min_element_bytes) {
        const std::uint32_t n = u32(field);
        if (failed_) return 0;
        if (min_element_bytes != 0 &&
            n > remaining() / min_element_bytes) {
            fail(field, "element count exceeds remaining input");
            return 0;
        }
        return n;
    }

    void fail(const char* field, const char* why) {
        if (failed_) return;
        failed_ = true;
        context_ = std::string(field) + ": " + why;
    }

private:
    bool require(std::size_t n, const char* field) noexcept {
        if (failed_) return false;
        if (size_ - pos_ < n) {
            failed_ = true;
            context_ = std::string(field) + ": truncated input";
            return false;
        }
        return true;
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string context_;
};

Hit read_hit(Reader& in) {
    Hit hit;
    hit.service = in.u32("hit.service");
    hit.service_name = in.string("hit.service_name");
    hit.capability_name = in.string("hit.capability_name");
    hit.semantic_distance =
        static_cast<std::int32_t>(in.u32("hit.semantic_distance"));
    return hit;
}

std::vector<Hit> read_hits(Reader& in, const char* field) {
    // A hit is at least 12 bytes (u32 + two empty strings + u32).
    const std::uint32_t n = in.count(field, 12);
    std::vector<Hit> hits;
    hits.reserve(n);
    for (std::uint32_t i = 0; i < n && !in.failed(); ++i) {
        hits.push_back(read_hit(in));
    }
    return hits;
}

/// Length-prefixed opaque byte image (summary snapshots/deltas). The
/// length is validated like a string's, so a hostile count cannot size an
/// allocation beyond the datagram.
std::vector<std::uint8_t> read_image(Reader& in, const char* field) {
    const std::uint32_t len = in.u32(field);
    std::vector<std::uint8_t> image;
    if (in.failed()) return image;
    if (len > in.remaining()) {
        in.fail(field, "image length exceeds remaining input");
        return image;
    }
    image.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i) {
        image.push_back(in.u8(field));
    }
    return image;
}

ErrorInfo parse_error(std::string message) {
    return ErrorInfo{ErrorCode::kParse,
                     "wire decode failed: " + std::move(message)};
}

}  // namespace

void encode_into(const Payload& message, std::vector<std::uint8_t>& out) {
    put_u8(out, kMagic0);
    put_u8(out, kMagic1);
    put_u8(out, kVersion);
    put_u8(out, static_cast<std::uint8_t>(type_of(message)));

    std::visit(
        [&](const auto& payload) {
            using P = std::decay_t<decltype(payload)>;
            if constexpr (std::is_same_v<P, DirAdv>) {
                put_u32(out, payload.directory);
            } else if constexpr (std::is_same_v<P, ElectCall>) {
                put_u32(out, payload.initiator);
            } else if constexpr (std::is_same_v<P, ElectCandidate>) {
                put_u32(out, payload.candidate);
                put_double(out, payload.fitness);
            } else if constexpr (std::is_same_v<P, PublishDoc>) {
                put_u64(out, payload.pub_id);
                put_string(out, payload.document);
            } else if constexpr (std::is_same_v<P, PubAck>) {
                put_u64(out, payload.pub_id);
            } else if constexpr (std::is_same_v<P, PubNack>) {
                put_u64(out, payload.pub_id);
                put_string(out, payload.document);
            } else if constexpr (std::is_same_v<P, Request>) {
                put_u64(out, payload.request_id);
                put_u32(out, payload.client);
                put_string(out, payload.document);
            } else if constexpr (std::is_same_v<P, Response>) {
                put_u64(out, payload.request_id);
                put_u32(out, static_cast<std::uint32_t>(payload.hits.size()));
                for (const Hit& hit : payload.hits) put_hit(out, hit);
                put_u8(out, payload.satisfied ? 1 : 0);
                put_double(out, payload.compute_ms);
                put_u32(out, payload.directories_asked);
            } else if constexpr (std::is_same_v<P, Forward>) {
                put_u64(out, payload.request_id);
                put_u32(out, payload.origin);
                put_string(out, payload.document);
            } else if constexpr (std::is_same_v<P, ForwardResponse>) {
                put_u64(out, payload.request_id);
                put_u32(out, static_cast<std::uint32_t>(
                                 payload.per_capability.size()));
                for (const auto& hits : payload.per_capability) {
                    put_u32(out, static_cast<std::uint32_t>(hits.size()));
                    for (const Hit& hit : hits) put_hit(out, hit);
                }
                put_double(out, payload.compute_ms);
            } else if constexpr (std::is_same_v<P, SummaryPush>) {
                put_u32(out, payload.from);
                put_u32(out, static_cast<std::uint32_t>(
                                 payload.summary_wire.size()));
                for (const std::uint64_t word : payload.summary_wire) {
                    put_u64(out, word);
                }
            } else if constexpr (std::is_same_v<P, Handover>) {
                put_string(out, payload.state_xml);
            } else if constexpr (std::is_same_v<P, PublishBatch>) {
                put_u32(out, static_cast<std::uint32_t>(payload.docs.size()));
                for (const PublishDoc& doc : payload.docs) {
                    put_u64(out, doc.pub_id);
                    put_string(out, doc.document);
                }
            } else if constexpr (std::is_same_v<P, SummaryBitmap>) {
                put_u32(out, payload.from);
                put_u32(out, static_cast<std::uint32_t>(payload.image.size()));
                out.insert(out.end(), payload.image.begin(),
                           payload.image.end());
            } else if constexpr (std::is_same_v<P, SummaryDelta>) {
                put_u32(out, payload.from);
                put_u32(out, static_cast<std::uint32_t>(payload.image.size()));
                out.insert(out.end(), payload.image.begin(),
                           payload.image.end());
            }
            // ElectAppoint and SummaryPull carry no fields.
        },
        message);
}

std::vector<std::uint8_t> encode(const Payload& message) {
    std::vector<std::uint8_t> out;
    encode_into(message, out);
    return out;
}

std::vector<std::uint8_t> encode(const WireMessage& message) {
    SARIADNE_EXPECTS(message.type == type_of(message.payload));
    return encode(message.payload);
}

Result<WireMessage> try_decode(std::span<const std::uint8_t> bytes) noexcept {
    Reader in(bytes);
    const std::uint8_t m0 = in.u8("magic[0]");
    const std::uint8_t m1 = in.u8("magic[1]");
    if (!in.failed() && (m0 != kMagic0 || m1 != kMagic1)) {
        return parse_error("magic: not an Ariadne datagram");
    }
    const std::uint8_t version = in.u8("version");
    if (!in.failed() && version != kVersion) {
        return parse_error("version: unsupported (" +
                           std::to_string(int{version}) + ")");
    }
    const std::uint8_t type_byte = in.u8("type");
    if (in.failed()) return parse_error(in.context());
    if (type_byte < static_cast<std::uint8_t>(MsgType::kDirAdv) ||
        type_byte > static_cast<std::uint8_t>(MsgType::kSummaryDelta)) {
        return parse_error("type: unknown message type " +
                           std::to_string(int{type_byte}));
    }

    WireMessage message;
    message.type = static_cast<MsgType>(type_byte);
    switch (message.type) {
        case MsgType::kDirAdv: {
            DirAdv p;
            p.directory = in.u32("dir-adv.directory");
            message.payload = p;
            break;
        }
        case MsgType::kElectCall: {
            ElectCall p;
            p.initiator = in.u32("elect-call.initiator");
            message.payload = p;
            break;
        }
        case MsgType::kElectCandidate: {
            ElectCandidate p;
            p.candidate = in.u32("elect-cand.candidate");
            p.fitness = in.f64("elect-cand.fitness");
            message.payload = p;
            break;
        }
        case MsgType::kElectAppoint: {
            message.payload = ElectAppoint{};
            break;
        }
        case MsgType::kPublish: {
            PublishDoc p;
            p.pub_id = in.u64("pub.pub_id");
            p.document = in.string("pub.document");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kPubAck: {
            PubAck p;
            p.pub_id = in.u64("pub-ack.pub_id");
            message.payload = p;
            break;
        }
        case MsgType::kPubNack: {
            PubNack p;
            p.pub_id = in.u64("pub-nack.pub_id");
            p.document = in.string("pub-nack.document");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kRequest: {
            Request p;
            p.request_id = in.u64("req.request_id");
            p.client = in.u32("req.client");
            p.document = in.string("req.document");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kResponse: {
            Response p;
            p.request_id = in.u64("resp.request_id");
            p.hits = read_hits(in, "resp.hits");
            p.satisfied = in.boolean("resp.satisfied");
            p.compute_ms = in.f64("resp.compute_ms");
            p.directories_asked = in.u32("resp.directories_asked");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kForward: {
            Forward p;
            p.request_id = in.u64("fwd.request_id");
            p.origin = in.u32("fwd.origin");
            p.document = in.string("fwd.document");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kForwardResponse: {
            ForwardResponse p;
            p.request_id = in.u64("fwd-resp.request_id");
            // An empty per-capability list is 4 bytes (its hit count).
            const std::uint32_t caps =
                in.count("fwd-resp.per_capability", 4);
            p.per_capability.reserve(caps);
            for (std::uint32_t i = 0; i < caps && !in.failed(); ++i) {
                p.per_capability.push_back(
                    read_hits(in, "fwd-resp.hits"));
            }
            p.compute_ms = in.f64("fwd-resp.compute_ms");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kSummaryPush: {
            SummaryPush p;
            p.from = in.u32("summary-push.from");
            const std::uint32_t words = in.count("summary-push.words", 8);
            p.summary_wire.reserve(words);
            for (std::uint32_t i = 0; i < words && !in.failed(); ++i) {
                p.summary_wire.push_back(in.u64("summary-push.word"));
            }
            message.payload = std::move(p);
            break;
        }
        case MsgType::kSummaryPull: {
            message.payload = SummaryPull{};
            break;
        }
        case MsgType::kHandover: {
            Handover p;
            p.state_xml = in.string("handover.state_xml");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kPublishBatch: {
            PublishBatch p;
            // A doc is at least 12 bytes (u64 pub_id + empty string's u32).
            const std::uint32_t docs = in.count("pub-batch.docs", 12);
            p.docs.reserve(docs);
            for (std::uint32_t i = 0; i < docs && !in.failed(); ++i) {
                PublishDoc doc;
                doc.pub_id = in.u64("pub-batch.pub_id");
                doc.document = in.string("pub-batch.document");
                p.docs.push_back(std::move(doc));
            }
            message.payload = std::move(p);
            break;
        }
        case MsgType::kSummaryBitmap: {
            SummaryBitmap p;
            p.from = in.u32("summary-bitmap.from");
            p.image = read_image(in, "summary-bitmap.image");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kSummaryDelta: {
            SummaryDelta p;
            p.from = in.u32("summary-delta.from");
            p.image = read_image(in, "summary-delta.image");
            message.payload = std::move(p);
            break;
        }
    }

    if (in.failed()) return parse_error(in.context());
    if (in.remaining() != 0) {
        return parse_error("trailing bytes after payload (" +
                           std::to_string(in.remaining()) + ")");
    }
    return message;
}

}  // namespace sariadne::ariadne::wire
