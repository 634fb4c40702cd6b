#include "loadgen.hpp"

#include <cstdio>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <sys/socket.h>

namespace perfbench {

using namespace sariadne;
namespace wire = sariadne::ariadne::wire;

namespace {

/// Wire bodies carry the operation id as a u64-LE field; encoding with a
/// sentinel id and searching for it gives the offset to patch.
constexpr std::uint64_t kSentinelId = 0x0123456789ABCDEFULL;

std::size_t find_sentinel(const std::vector<std::uint8_t>& bytes) {
    std::uint8_t pattern[8];
    for (int i = 0; i < 8; ++i) pattern[i] = static_cast<std::uint8_t>(kSentinelId >> (8 * i));
    for (std::size_t at = 0; at + 8 <= bytes.size(); ++at) {
        if (std::memcmp(bytes.data() + at, pattern, 8) == 0) return at;
    }
    throw std::runtime_error("operation id not found in an encoded frame");
}

void patch_id(std::uint8_t* at, std::uint64_t id) {
    for (int i = 0; i < 8; ++i) at[i] = static_cast<std::uint8_t>(id >> (8 * i));
}

/// Per-connection receive buffer.
struct Inbox {
    std::vector<std::uint8_t> buf;
    std::size_t pos = 0;
    bool open = true;
    std::uint64_t replies = 0;
    std::uint64_t advs = 0;
    std::uint64_t unexpected = 0;
    bool dropped = false;
};

/// Prints the first few wrong answers, so a failing run says what failed.
void report_wrong(const DocSet& docs, std::uint32_t doc, const wire::Response& response) {
    static int reported = 0;
    if (reported++ >= 3) return;
    std::string text = "wrong answer to request document " + std::to_string(doc) + ": got";
    for (const auto& hit : response.hits) {
        text += " " + hit.service_name + "/" + std::to_string(hit.semantic_distance);
    }
    text += response.satisfied ? "" : " (unsatisfied)";
    text += ", expected";
    for (const auto& [name, distance] : docs.expected[doc]) {
        text += " " + name + "/" + std::to_string(distance);
    }
    std::fprintf(stderr, "%s\n", text.c_str());
}

/// Matches replies to operations and checks every answer.
struct ReplyBook {
    const std::vector<Op>& ops;
    const DocSet& docs;
    std::uint64_t id_base;
    PhaseOutcome& out;
    std::uint64_t completed = 0;

    void handle(const std::uint8_t* body, std::uint32_t len, std::size_t conn, std::int64_t t,
                Inbox& inbox) {
        auto decoded = wire::try_decode({body, len});
        if (!decoded) {
            ++inbox.unexpected;
            return;
        }
        const wire::WireMessage& msg = decoded.value();
        std::uint64_t id = 0;
        Status verdict = Status::kOk;
        OpKind kind = OpKind::kPublish;
        if (msg.type == wire::MsgType::kResponse) {
            id = std::get<wire::Response>(msg.payload).request_id;
            kind = OpKind::kQuery;
        } else if (msg.type == wire::MsgType::kPubAck) {
            id = std::get<wire::PubAck>(msg.payload).pub_id;
        } else if (msg.type == wire::MsgType::kPubNack) {
            id = std::get<wire::PubNack>(msg.payload).pub_id;
            verdict = Status::kNack;
        } else if (msg.type == wire::MsgType::kDirAdv) {
            ++inbox.advs;
            return;
        } else {
            ++inbox.unexpected;
            return;
        }
        const std::size_t index = id - id_base - 1;
        if (id <= id_base || index >= ops.size() || index % OpenLoop::kConnections != conn ||
            ops[index].kind != kind || out.status[index] != Status::kPending) {
            ++inbox.unexpected;
            return;
        }
        if (kind == OpKind::kQuery) {
            const auto& response = std::get<wire::Response>(msg.payload);
            const std::uint32_t doc = ops[index].doc;
            if (!response.satisfied || answer_digest(response.hits) != docs.expected_digest[doc]) {
                verdict = Status::kWrong;
                report_wrong(docs, doc, response);
            }
        }
        ++inbox.replies;
        out.done_ns[index] = t;
        out.status[index] = verdict;
        ++completed;
    }

    /// One non-blocking read from `conn`, handling every complete frame.
    /// Reads are kept small so the send schedule is never held up long.
    void poll(Connection& connection, std::size_t conn, Inbox& inbox) {
        if (!inbox.open) return;
        std::uint8_t chunk[16384];
        const ssize_t got = ::recv(connection.fd(), chunk, sizeof(chunk), MSG_DONTWAIT);
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
        if (got <= 0) {
            inbox.dropped = true;
            inbox.open = false;
            return;
        }
        const std::int64_t t = now_ns();
        inbox.buf.insert(inbox.buf.end(), chunk, chunk + got);
        while (inbox.buf.size() - inbox.pos >= 4) {
            const std::uint32_t len = read_le32(inbox.buf.data() + inbox.pos);
            if (inbox.buf.size() - inbox.pos - 4 < len) break;
            handle(inbox.buf.data() + inbox.pos + 4, len, conn, t, inbox);
            inbox.pos += 4 + len;
        }
        if (inbox.pos == inbox.buf.size()) {
            inbox.buf.clear();
            inbox.pos = 0;
        } else if (inbox.pos > (1u << 20)) {
            inbox.buf.erase(inbox.buf.begin(),
                            inbox.buf.begin() + static_cast<std::ptrdiff_t>(inbox.pos));
            inbox.pos = 0;
        }
    }
};

}  // namespace

std::vector<Op> make_ops(const OpMix& mix, double rate, double seconds, Rng& rng) {
    std::vector<Op> ops;
    ops.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
    const double mean_gap_ns = 1e9 / rate;
    double t = 0;
    const double end = seconds * 1e9;
    for (;;) {
        t += rng.exponential(mean_gap_ns);
        if (t >= end) break;
        Op op;
        op.due_ns = static_cast<std::int64_t>(t);
        if (mix.publish_share > 0 && rng.chance(mix.publish_share)) {
            op.kind = OpKind::kPublish;
            op.doc = static_cast<std::uint32_t>(rng.below(mix.publish_docs));
        } else {
            op.doc = static_cast<std::uint32_t>(rng.below(mix.query_docs));
        }
        ops.push_back(op);
    }
    return ops;
}

double doc_reuse_share(const std::vector<Op>& ops, std::size_t window) {
    std::deque<std::uint32_t> recent;
    std::unordered_map<std::uint32_t, std::size_t> counts;
    std::uint64_t queries = 0;
    std::uint64_t reused = 0;
    for (const Op& op : ops) {
        if (op.kind != OpKind::kQuery) continue;
        ++queries;
        if (counts[op.doc] > 0) ++reused;
        recent.push_back(op.doc);
        ++counts[op.doc];
        if (recent.size() > window) {
            --counts[recent.front()];
            recent.pop_front();
        }
    }
    return queries == 0 ? 0 : static_cast<double>(reused) / static_cast<double>(queries);
}

double PhaseOutcome::send_lag_p99_us() const {
    std::vector<double> lag = lag_us;
    return quantile(lag, 0.99);
}

bool PhaseOutcome::on_schedule() const {
    std::vector<std::vector<double>> windows;
    for (std::size_t k = 0; k < ops.size(); ++k) {
        const auto w = static_cast<std::size_t>(static_cast<double>(ops[k].due_ns) / kWindowNs);
        if (windows.size() <= w) windows.resize(w + 1);
        windows[w].push_back(lag_us[k]);
    }
    std::size_t punctual = 0;
    for (auto& window : windows) {
        punctual += quantile(window, 0.99) <= kMaxSendLagP99Us ? 1 : 0;
    }
    return !windows.empty() && punctual * 4 >= windows.size();
}

OpenLoop::OpenLoop(DaemonProcess& daemon, const DocSet& docs)
    : daemon_(daemon), docs_(docs) {
    for (const std::string& request : docs.requests) {
        wire::WireMessage msg{wire::MsgType::kRequest, wire::Request{kSentinelId, 0, request}};
        Template tpl{frame(wire::encode(msg)), 0};
        tpl.id_offset = find_sentinel(tpl.bytes);
        query_frames_.push_back(std::move(tpl));
    }
    for (const std::string& service : docs.services) {
        wire::WireMessage msg{wire::MsgType::kPublish, wire::PublishDoc{service, kSentinelId}};
        Template tpl{frame(wire::encode(msg)), 0};
        tpl.id_offset = find_sentinel(tpl.bytes);
        publish_frames_.push_back(std::move(tpl));
    }
}

PhaseOutcome OpenLoop::run(std::vector<Op> ops, double grace_s) {
    PhaseOutcome out;
    out.ops = std::move(ops);
    const std::size_t n = out.ops.size();
    out.sent_ns.assign(n, 0);
    out.done_ns.assign(n, 0);
    out.status.assign(n, Status::kPending);

    // Ids never repeat across phases of one daemon: the daemon keys its
    // pending requests by the client-chosen id.
    next_id_base_ += 1ULL << 32;
    ReplyBook book{out.ops, docs_, next_id_base_, out};

    std::vector<std::unique_ptr<Connection>> conns;
    for (std::size_t c = 0; c < kConnections; ++c) {
        conns.push_back(std::make_unique<Connection>(daemon_.port()));
    }
    std::vector<Inbox> inboxes(kConnections);
    // Let the daemon accept every connection before the first scrape.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto before = daemon_.scrape();
    const double cpu_before = process_cpu_us(daemon_.pid());

    // One thread sends and receives, spinning: a thread that sleeps until
    // the next due time, or blocks in recv(), adds its wake-up latency
    // (large under virtualization) to the lag and to every reply stamp.
    std::vector<std::vector<std::uint8_t>> bufs(kConnections);
    std::vector<std::vector<std::size_t>> batch(kConnections);
    out.start_ns = now_ns() + 2'000'000;
    const std::int64_t last_due = out.start_ns + (n == 0 ? 0 : out.ops.back().due_ns);
    const auto deadline = last_due + static_cast<std::int64_t>(grace_s * 1e9);
    const auto place = [&](std::size_t slice) {
        if (plans_.empty()) return;
        pin_to_cpu(plans_[slice].generator);
        pin_to_cpu(plans_[slice].daemon, daemon_.pid());
    };
    const std::int64_t slice_ns = (last_due - out.start_ns) /
                                  static_cast<std::int64_t>(std::max<std::size_t>(plans_.size(), 1)) + 1;
    std::size_t slice = 0;
    place(slice);
    std::size_t i = 0;
    for (;;) {
        const std::int64_t now = now_ns();
        if (i == n && (book.completed == n || now >= deadline)) break;
        if (slice + 1 < plans_.size() && now >= out.start_ns + slice_ns * static_cast<std::int64_t>(slice + 1)) {
            place(++slice);
        }
        for (; i < n && out.start_ns + out.ops[i].due_ns <= now; ++i) {
            const Op& op = out.ops[i];
            const Template& tpl =
                op.kind == OpKind::kQuery ? query_frames_[op.doc] : publish_frames_[op.doc];
            auto& buf = bufs[i % kConnections];
            const std::size_t at = buf.size();
            buf.insert(buf.end(), tpl.bytes.begin(), tpl.bytes.end());
            patch_id(buf.data() + at + tpl.id_offset, book.id_base + i + 1);
            batch[i % kConnections].push_back(i);
        }
        for (std::size_t c = 0; c < kConnections; ++c) {
            if (bufs[c].empty()) continue;
            conns[c]->send_all(bufs[c].data(), bufs[c].size());
            const std::int64_t sent = now_ns();
            for (const std::size_t k : batch[c]) out.sent_ns[k] = sent;
            bufs[c].clear();
            batch[c].clear();
        }
        for (std::size_t c = 0; c < kConnections; ++c) book.poll(*conns[c], c, inboxes[c]);
    }
    const double cpu_after = process_cpu_us(daemon_.pid());
    const auto after = daemon_.scrape();
    // Frames the daemon queued before the closing scrape reach us within
    // a loopback round trip; keep reading that long before closing.
    const std::int64_t drain_until = now_ns() + 20'000'000;
    while (now_ns() < drain_until) {
        for (std::size_t c = 0; c < kConnections; ++c) book.poll(*conns[c], c, inboxes[c]);
    }
    std::int64_t last_done = out.start_ns;

    out.daemon_cpu_us = cpu_after - cpu_before;
    for (const auto& [name, value] : after) out.metrics_delta[name] = delta(before, after, name);

    std::uint64_t replies = 0;
    std::uint64_t advs = 0;
    std::uint64_t unexpected = 0;
    for (const Inbox& inbox : inboxes) {
        replies += inbox.replies;
        advs += inbox.advs;
        unexpected += inbox.unexpected;
        out.connection_dropped = out.connection_dropped || inbox.dropped;
    }
    out.malformed = unexpected;
    out.query_us.reserve(n);
    out.lag_us.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
        const std::int64_t due = out.start_ns + out.ops[k].due_ns;
        out.lag_us.push_back(static_cast<double>(out.sent_ns[k] - due) / 1e3);
        switch (out.status[k]) {
            case Status::kOk: {
                const double us = static_cast<double>(out.done_ns[k] - due) / 1e3;
                (out.ops[k].kind == OpKind::kQuery ? out.query_us : out.publish_us).push_back(us);
                last_done = std::max(last_done, out.done_ns[k]);
                break;
            }
            case Status::kWrong: ++out.wrong; break;
            case Status::kNack: ++out.nacks; break;
            case Status::kPending: ++out.timeouts; break;
        }
    }
    out.failed = out.wrong + out.nacks + out.timeouts +
                 (out.connection_dropped ? 1 : 0) + unexpected;
    out.wall_s = static_cast<double>(last_done - out.start_ns) / 1e9;

    // The daemon's own counts must agree with what the client saw: a
    // reply dropped under backpressure must not pass as a fast one.
    const double received = out.metrics_delta["sariadne_transport_frames_received_total"];
    const double sent = out.metrics_delta["sariadne_transport_frames_sent_total"];
    if (received != static_cast<double>(n)) {
        out.count_mismatches.push_back("daemon received " + std::to_string(received) +
                                       " frames, client sent " + std::to_string(n));
    }
    if (sent < static_cast<double>(replies) ||
        sent > static_cast<double>(replies + advs)) {
        out.count_mismatches.push_back("daemon sent " + std::to_string(sent) +
                                       " frames, client received " + std::to_string(replies) +
                                       " replies and " + std::to_string(advs) + " adverts");
    }
    for (const char* name : {"sariadne_protocol_malformed_requests_total",
                             "sariadne_protocol_malformed_publishes_total",
                             "sariadne_transport_backpressure_drops_total",
                             "sariadne_transport_decode_errors_total"}) {
        if (out.metrics_delta[name] != 0) {
            out.count_mismatches.push_back(std::string(name) + " rose by " +
                                           std::to_string(out.metrics_delta[name]));
        }
    }
    out.failed += out.count_mismatches.size();
    return out;
}

}  // namespace perfbench
