// sariadne_loadgen — multi-threaded publish/query load generator for
// sariadne_daemon. Each worker is one std::async task that holds its own
// TCP connection and speaks the wire codec directly (u32-LE length
// prefix + ariadne/wire datagram — no DiscoveryNetwork on the client
// side, so the daemon's framing and codec are exercised by an independent
// implementation). Per-operation latency is measured from
// frame write to matching pub-ack / response, reduced to p50/p99 and
// throughput via bench_util, and upserted into BENCH_daemon.json.
//
// Usage:
//   sariadne_loadgen --port P [options]
//     --host H            daemon address (default 127.0.0.1)
//     --threads N         worker connections (default 2)
//     --duration-ms D     measured window per worker (default 10000)
//     --window W          pipelined in-flight ops per worker (default 128)
//     --publish-ratio R   fraction of ops that are publishes (default 0.05)
//     --publish-batch B   docs per pub-batch frame (default 1 = plain pub)
//     --services N        distinct services/request templates (default 8)
//     --universe N        ontologies (default 6 — must match the daemon)
//     --classes N         classes per ontology (default 24 — must match)
//     --seed S            universe seed (default 20060426 — must match)
//     --out FILE          bench report (default BENCH_daemon.json)
//     --name KEY          report entry name (default daemon_loopback)
//
// The universe flags must mirror the daemon's: both sides regenerate the
// same deterministic ontology set, so the loadgen's requests are
// guaranteed-match (§5 workload) against the services it pre-publishes.
// Exit code 0 iff at least one query came back satisfied.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <unordered_map>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include "ariadne/wire.hpp"
#include "bench/bench_util.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "workload/ontology_gen.hpp"
#include "workload/service_gen.hpp"

namespace {

using namespace sariadne;
using Clock = std::chrono::steady_clock;

struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::size_t threads = 2;
    double duration_ms = 10000;
    std::size_t window = 128;
    double publish_ratio = 0.05;
    std::size_t publish_batch = 1;
    std::size_t services = 8;
    std::size_t universe = 6;
    std::size_t classes = 24;
    std::uint64_t seed = 20060426;
    std::string out = "BENCH_daemon.json";
    std::string name = "daemon_loopback";
};

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --port P [--host H] [--threads N] "
                 "[--duration-ms D] [--window W] [--publish-ratio R] "
                 "[--publish-batch B] [--services N] [--universe N] "
                 "[--classes N] [--seed S] [--out FILE] [--name KEY]\n",
                 argv0);
    return 2;
}

/// One worker's blocking wire-codec connection with buffered frame reads.
class WireClient {
public:
    WireClient(const std::string& host, std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0) throw Error("loadgen: socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
            ::close(fd_);
            throw Error("loadgen: bad host '" + host + "'");
        }
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            throw Error("loadgen: cannot connect to " + host + ":" +
                        std::to_string(port));
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }

    ~WireClient() {
        if (fd_ >= 0) ::close(fd_);
    }

    WireClient(const WireClient&) = delete;
    WireClient& operator=(const WireClient&) = delete;

    /// Appends one length-prefixed datagram to the send batch.
    void stage(const ariadne::wire::WireMessage& message) {
        const std::vector<std::uint8_t> body = ariadne::wire::encode(message);
        const std::uint32_t len = static_cast<std::uint32_t>(body.size());
        out_.push_back(static_cast<std::uint8_t>(len & 0xFF));
        out_.push_back(static_cast<std::uint8_t>((len >> 8) & 0xFF));
        out_.push_back(static_cast<std::uint8_t>((len >> 16) & 0xFF));
        out_.push_back(static_cast<std::uint8_t>((len >> 24) & 0xFF));
        out_.insert(out_.end(), body.begin(), body.end());
    }

    /// Writes the staged batch (one send(2) per window fill, not per op).
    void flush() {
        std::size_t off = 0;
        while (off < out_.size()) {
            const ssize_t sent = ::send(fd_, out_.data() + off,
                                        out_.size() - off, MSG_NOSIGNAL);
            if (sent < 0) {
                if (errno == EINTR) continue;
                throw Error("loadgen: send() failed: " +
                            std::string(std::strerror(errno)));
            }
            off += static_cast<std::size_t>(sent);
        }
        out_.clear();
    }

    /// Blocks until one complete frame is available and decodes it.
    ariadne::wire::WireMessage read_frame() {
        for (;;) {
            if (in_.size() - pos_ >= 4) {
                const std::uint32_t len =
                    static_cast<std::uint32_t>(in_[pos_]) |
                    (static_cast<std::uint32_t>(in_[pos_ + 1]) << 8) |
                    (static_cast<std::uint32_t>(in_[pos_ + 2]) << 16) |
                    (static_cast<std::uint32_t>(in_[pos_ + 3]) << 24);
                if (in_.size() - pos_ - 4 >= len) {
                    auto decoded = ariadne::wire::try_decode(
                        {in_.data() + pos_ + 4, len});
                    pos_ += 4 + len;
                    if (pos_ == in_.size()) {
                        in_.clear();
                        pos_ = 0;
                    }
                    if (!decoded) {
                        throw Error("loadgen: daemon sent a malformed "
                                    "frame: " +
                                    decoded.error().message);
                    }
                    return std::move(decoded).value();
                }
            }
            if (pos_ > 0 && pos_ == in_.size()) {
                in_.clear();
                pos_ = 0;
            }
            std::uint8_t chunk[65536];
            const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (got == 0) throw Error("loadgen: daemon closed the connection");
            if (got < 0) {
                if (errno == EINTR) continue;
                throw Error("loadgen: recv() failed: " +
                            std::string(std::strerror(errno)));
            }
            in_.insert(in_.end(), chunk, chunk + got);
        }
    }

private:
    int fd_ = -1;
    std::vector<std::uint8_t> out_;
    std::vector<std::uint8_t> in_;
    std::size_t pos_ = 0;
};

struct WorkerResult {
    std::vector<double> latencies_us;
    std::uint64_t publishes = 0;
    std::uint64_t queries = 0;
    std::uint64_t acked = 0;
    std::uint64_t satisfied = 0;
};

/// Shared read-only workload documents, precomputed so worker threads
/// never touch the generator concurrently.
struct Documents {
    std::vector<std::string> services;
    std::vector<std::string> requests;
};

WorkerResult run_worker(const Options& options, const Documents& docs,
                        std::size_t worker_index) {
    WireClient client(options.host, options.port);
    WorkerResult result;
    // Ids are partitioned per worker: the daemon's pending-request map is
    // keyed by the client-supplied request id, so collisions across
    // connections would cross-wire responses.
    const std::uint64_t id_base = (static_cast<std::uint64_t>(worker_index) + 1)
                                  << 40;
    std::uint64_t seq = 0;
    SplitMix64 rng(options.seed ^ (0x10ADULL + worker_index));

    std::unordered_map<std::uint64_t, Clock::time_point> inflight;
    inflight.reserve(options.window * 2);

    const auto started = Clock::now();
    const auto deadline =
        started + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          options.duration_ms));
    const auto publish_cut = static_cast<std::uint64_t>(
        options.publish_ratio * 1000.0);

    for (;;) {
        const auto now = Clock::now();
        const bool sending = now < deadline;
        if (!sending && inflight.empty()) break;

        // Refill with hysteresis: top up only once half the window has
        // completed, so each flush() carries a burst of frames (one
        // send(2) per ~window/2 ops, and correspondingly larger reads on
        // the daemon side) instead of one syscall per completion.
        if (sending && inflight.size() <= options.window / 2) {
            while (inflight.size() < options.window) {
                const std::uint64_t id = id_base | ++seq;
                const std::size_t doc = rng.next() % docs.services.size();
                ariadne::wire::WireMessage message;
                if (rng.next() % 1000 < publish_cut) {
                    if (options.publish_batch > 1) {
                        // Batched publish: one pub-batch frame carries up
                        // to B documents, each with its own pub_id so the
                        // per-doc acks settle individual inflight entries.
                        const std::size_t room =
                            options.window - inflight.size();
                        const std::size_t count =
                            std::min(options.publish_batch, room);
                        ariadne::wire::PublishBatch payload;
                        payload.docs.reserve(count);
                        const auto staged_at = Clock::now();
                        for (std::size_t k = 0; k < count; ++k) {
                            const std::uint64_t doc_id =
                                k == 0 ? id : id_base | ++seq;
                            const std::size_t pick =
                                rng.next() % docs.services.size();
                            payload.docs.push_back(ariadne::wire::PublishDoc{
                                docs.services[pick], doc_id});
                            inflight.emplace(doc_id, staged_at);
                            ++result.publishes;
                        }
                        message.type = ariadne::wire::MsgType::kPublishBatch;
                        message.payload = std::move(payload);
                        client.stage(message);
                        continue;
                    }
                    message.type = ariadne::wire::MsgType::kPublish;
                    message.payload =
                        ariadne::wire::PublishDoc{docs.services[doc], id};
                    ++result.publishes;
                } else {
                    // `client` is a placeholder: the daemon's transport
                    // rewrites it to the connection's NodeId (ingress
                    // trust boundary), so the response returns here.
                    message.type = ariadne::wire::MsgType::kRequest;
                    message.payload =
                        ariadne::wire::Request{id, 0, docs.requests[doc]};
                    ++result.queries;
                }
                client.stage(message);
                inflight.emplace(id, Clock::now());
            }
            client.flush();
        }

        const ariadne::wire::WireMessage reply = client.read_frame();
        std::uint64_t id = 0;
        if (reply.type == ariadne::wire::MsgType::kPubAck) {
            id = std::get<ariadne::wire::PubAck>(reply.payload).pub_id;
            ++result.acked;
        } else if (reply.type == ariadne::wire::MsgType::kResponse) {
            const auto& response =
                std::get<ariadne::wire::Response>(reply.payload);
            id = response.request_id;
            if (response.satisfied) ++result.satisfied;
        } else {
            continue;  // dir-adv / summary traffic is not an op completion
        }
        const auto it = inflight.find(id);
        if (it == inflight.end()) continue;  // duplicate or stray ack
        result.latencies_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      it->second)
                .count());
        inflight.erase(it);
    }
    return result;
}

/// Publishes every service once, acknowledged, over a dedicated
/// connection — the measured phase then queries a warm directory.
void warm_directory(const Options& options, const Documents& docs) {
    WireClient client(options.host, options.port);
    if (options.publish_batch > 1) {
        ariadne::wire::PublishBatch payload;
        for (std::size_t i = 0; i < docs.services.size(); ++i) {
            payload.docs.push_back(ariadne::wire::PublishDoc{
                docs.services[i], static_cast<std::uint64_t>(i) + 1});
            if (payload.docs.size() == options.publish_batch ||
                i + 1 == docs.services.size()) {
                ariadne::wire::WireMessage message;
                message.type = ariadne::wire::MsgType::kPublishBatch;
                message.payload = std::move(payload);
                client.stage(message);
                payload = {};
            }
        }
    } else {
        for (std::size_t i = 0; i < docs.services.size(); ++i) {
            ariadne::wire::WireMessage message;
            message.type = ariadne::wire::MsgType::kPublish;
            message.payload = ariadne::wire::PublishDoc{
                docs.services[i], static_cast<std::uint64_t>(i) + 1};
            client.stage(message);
        }
    }
    client.flush();
    std::size_t acked = 0;
    while (acked < docs.services.size()) {
        const auto reply = client.read_frame();
        if (reply.type == ariadne::wire::MsgType::kPubAck) ++acked;
    }
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag.c_str());
                std::exit(usage(argv[0]));
            }
            return argv[++i];
        };
        if (flag == "--host") {
            options.host = next();
        } else if (flag == "--port") {
            options.port =
                static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
        } else if (flag == "--threads") {
            options.threads = std::strtoul(next(), nullptr, 10);
        } else if (flag == "--duration-ms") {
            options.duration_ms = std::strtod(next(), nullptr);
        } else if (flag == "--window") {
            options.window = std::strtoul(next(), nullptr, 10);
        } else if (flag == "--publish-ratio") {
            options.publish_ratio = std::strtod(next(), nullptr);
        } else if (flag == "--publish-batch") {
            options.publish_batch = std::strtoul(next(), nullptr, 10);
        } else if (flag == "--services") {
            options.services = std::strtoul(next(), nullptr, 10);
        } else if (flag == "--universe") {
            options.universe = std::strtoul(next(), nullptr, 10);
        } else if (flag == "--classes") {
            options.classes = std::strtoul(next(), nullptr, 10);
        } else if (flag == "--seed") {
            options.seed = std::strtoull(next(), nullptr, 10);
        } else if (flag == "--out") {
            options.out = next();
        } else if (flag == "--name") {
            options.name = next();
        } else {
            return usage(argv[0]);
        }
    }
    if (options.port == 0) return usage(argv[0]);
    if (options.threads == 0) options.threads = 1;
    if (options.window == 0) options.window = 1;

    try {
        workload::OntologyGenConfig onto_config;
        onto_config.class_count = options.classes;
        workload::ServiceWorkload workload(workload::generate_universe(
            options.universe, onto_config, options.seed));
        Documents docs;
        docs.services.reserve(options.services);
        docs.requests.reserve(options.services);
        for (std::size_t i = 0; i < options.services; ++i) {
            docs.services.push_back(workload.service_xml(i));
            docs.requests.push_back(workload.matching_request_xml(i));
        }

        warm_directory(options, docs);

        std::vector<std::future<WorkerResult>> futures;
        futures.reserve(options.threads);
        const auto wall_start = Clock::now();
        for (std::size_t worker = 0; worker < options.threads; ++worker) {
            futures.push_back(std::async(
                std::launch::async, [&options, &docs, worker] {
                    return run_worker(options, docs, worker);
                }));
        }

        WorkerResult total;
        for (auto& future : futures) {
            WorkerResult partial = future.get();
            total.publishes += partial.publishes;
            total.queries += partial.queries;
            total.acked += partial.acked;
            total.satisfied += partial.satisfied;
            total.latencies_us.insert(total.latencies_us.end(),
                                      partial.latencies_us.begin(),
                                      partial.latencies_us.end());
        }
        const double wall_ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      wall_start)
                .count();

        const bench::LatencyStats latency =
            bench::summarize_us(total.latencies_us);
        // Throughput is completions over the whole measured wall clock —
        // all workers run concurrently, so this is the daemon's sustained
        // rate, not a per-sample inverse like the kernel benches use.
        const double ops_per_sec =
            wall_ms > 0
                ? 1000.0 * static_cast<double>(total.latencies_us.size()) /
                      wall_ms
                : 0;

        std::printf(
            "loadgen: %zu threads x window %zu for %.0f ms\n"
            "loadgen: %llu completions (%llu publishes sent / %llu acked, "
            "%llu queries sent / %llu satisfied)\n"
            "loadgen: %.0f ops/s, p50 %.1f us, p99 %.1f us\n",
            options.threads, options.window, options.duration_ms,
            static_cast<unsigned long long>(total.latencies_us.size()),
            static_cast<unsigned long long>(total.publishes),
            static_cast<unsigned long long>(total.acked),
            static_cast<unsigned long long>(total.queries),
            static_cast<unsigned long long>(total.satisfied),
            ops_per_sec, latency.p50_us, latency.p99_us);

        char value[256];
        std::snprintf(
            value, sizeof(value),
            "{\"ops_per_sec\": %.0f, \"p50_us\": %.3f, \"p99_us\": %.3f, "
            "\"samples\": %llu, \"threads\": %zu, \"window\": %zu, "
            "\"publish_batch\": %zu, \"satisfied\": %llu}",
            ops_per_sec, latency.p50_us, latency.p99_us,
            static_cast<unsigned long long>(latency.samples), options.threads,
            options.window, options.publish_batch,
            static_cast<unsigned long long>(total.satisfied));
        bench::upsert_bench_json(options.out, options.name, value);
        std::printf("loadgen: wrote %s[%s]\n", options.out.c_str(),
                    options.name.c_str());

        return total.satisfied > 0 ? 0 : 1;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "sariadne_loadgen: %s\n", error.what());
        return 1;
    }
}
