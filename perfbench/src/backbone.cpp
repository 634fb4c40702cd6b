// backbone_route: the directory backbone in-process. A seeded random
// geometric network elects its directories; every ontology's services are
// published by one provider node, so each directory holds a few
// ontologies; clients then ask for services their own directory does not
// hold, which only summary-routed forwarding can answer. Simulated
// traffic counts repeat exactly for a seed; response times are virtual.
#include <map>
#include <memory>
#include <stdexcept>

#include <unistd.h>

#include "ariadne/protocol.hpp"
#include "description/amigos_io.hpp"
#include "description/resolved.hpp"
#include "directory/semantic_directory.hpp"
#include "docs.hpp"
#include "loadgen.hpp"
#include "net/sim_transport.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "obs/metric_names.hpp"
#include "reasoner/knowledge_base.hpp"
#include "replay.hpp"
#include "support/hash.hpp"
#include "workload/ontology_gen.hpp"
#include "workloads.hpp"
#include "xml/parser.hpp"

namespace perfbench {

using namespace sariadne;

namespace {

/// The network layout is a fixed setting of the workload, like the
/// ontology universe: the run seed places providers, services, clients and
/// requests on it, so runs compare like with like.
constexpr std::uint64_t kTopologySeed = 0x70B0106EULL;
constexpr std::size_t kNodes = 90;
constexpr double kRadioRange = 0.2;
constexpr std::size_t kServices = 2200;
/// Clients are picked so that their nearest directory lacks the requested
/// ontology; a client still bound to an older directory advert may land on
/// the right one directly, so a batch carries margin over the 1,000
/// forwarded requests it aims for (bench.forwarded_requests counts them).
constexpr std::size_t kRequestsPerBatch = 1250;
/// Seeded per-delivery latency jitter, so response times are continuous
/// rather than whole hop counts.
constexpr double kJitterMs = 0.5;
constexpr std::size_t kBatchesPerRound = 4;
constexpr std::size_t kPlacements = 4;
constexpr double kRequestGapMs = 2;       ///< virtual time between requests
constexpr double kElectionMs = 15000;     ///< virtual time for elections
constexpr double kQuiescenceMs = 5000;    ///< virtual time for publishes to settle
constexpr double kSettleMs = 3000;        ///< virtual time after a batch's last request

/// Where each ontology's provider sits, and the client of each request.
struct Placement {
    std::vector<net::NodeId> provider_of;  ///< per ontology
    std::vector<net::NodeId> clients;      ///< per request, chosen on first use
    std::vector<double> response_us;       ///< virtual, over every round
};

struct Backbone {
    obs::MetricsRegistry registry;
    std::unique_ptr<ariadne::DiscoveryNetwork> network;
};

/// Elects the backbone and publishes every service from its ontology's
/// provider node, running the simulator until publishes have settled.
std::unique_ptr<Backbone> build(const net::Topology& topology, encoding::KnowledgeBase& kb,
                                const DocSet& docs, const std::vector<net::NodeId>& provider_of,
                                std::uint64_t jitter_seed) {
    auto backbone = std::make_unique<Backbone>();
    backbone->network = std::make_unique<ariadne::DiscoveryNetwork>(
        topology, ariadne::ProtocolConfig{}, kb, &backbone->registry);
    net::FaultPlan radio;
    radio.seed = jitter_seed;
    radio.latency_jitter_ms = kJitterMs;
    ariadne::sim(*backbone->network).set_faults(radio);
    backbone->network->start();
    backbone->network->run_for(kElectionMs);
    for (std::size_t i = 0; i < docs.services.size(); ++i) {
        backbone->network->publish_service(provider_of[i % kUniverse], docs.services[i]);
    }
    backbone->network->run_for(kQuiescenceMs);
    return backbone;
}

struct BatchOutcome {
    std::vector<double> response_us;  ///< virtual
    std::uint64_t wrong = 0;
    std::uint64_t unanswered = 0;
    std::uint64_t forwarded = 0;  ///< requests answered by another directory
    double wall_s = 0;
    double cpu_us = 0;
};

BatchOutcome run_batch(ariadne::DiscoveryNetwork& network, const DocSet& docs,
                       const std::vector<net::NodeId>& clients) {
    BatchOutcome out;
    const double cpu0 = process_cpu_us(::getpid());
    const std::int64_t t0 = now_ns();
    std::vector<std::uint64_t> ids;
    ids.reserve(clients.size());
    for (std::size_t r = 0; r < clients.size(); ++r) {
        ids.push_back(network.discover(clients[r], docs.requests[r]));
        network.run_for(kRequestGapMs);
    }
    network.run_for(kSettleMs);
    out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    out.cpu_us = process_cpu_us(::getpid()) - cpu0;
    for (std::size_t r = 0; r < ids.size(); ++r) {
        const ariadne::DiscoveryOutcome& outcome = network.outcome(ids[r]);
        out.forwarded += outcome.directories_asked > 0 ? 1 : 0;
        if (!outcome.answered || !outcome.satisfied) {
            ++out.unanswered;
            continue;
        }
        std::vector<ariadne::wire::Hit> hits;
        for (const auto& hit : outcome.hits) {
            hits.push_back({hit.service, hit.service_name, hit.capability_name,
                            hit.semantic_distance});
        }
        if (answer_digest(hits) != docs.expected_digest[r]) {
            ++out.wrong;
            continue;
        }
        out.response_us.push_back(outcome.response_time_ms() * 1e3);
    }
    return out;
}

std::uint64_t counter(const obs::MetricsRegistry& registry, std::string_view name) {
    return registry.counter_value(name);
}

/// Replays one batch's requests through the public calls a directory
/// makes for them: parse, build, resolve, local query, Bloom coverage of
/// each peer's summary, and the query of every covered peer.
void replay_backbone(encoding::KnowledgeBase& kb, ariadne::DiscoveryNetwork& network,
                     const DocSet& docs, const std::vector<net::NodeId>& provider_of,
                     const std::vector<net::NodeId>& clients, SpanRecorder& spans,
                     RunResult& result) {
    const std::vector<net::NodeId> dirs = network.directories();
    std::map<net::NodeId, std::unique_ptr<directory::SemanticDirectory>> mirror;
    std::map<net::NodeId, std::vector<desc::ServiceDescription>> content;
    for (const net::NodeId dir : dirs) {
        mirror[dir] = std::make_unique<directory::SemanticDirectory>(kb);
    }
    for (std::size_t i = 0; i < docs.services.size(); ++i) {
        const net::NodeId home = network.directory_for(provider_of[i % kUniverse]);
        content[home].push_back(desc::parse_service(docs.services[i]));
    }
    for (auto& [dir, services] : content) {
        if (mirror.count(dir)) mirror[dir]->publish_batch(std::move(services));
    }
    std::map<net::NodeId, bloom::BloomFilter> summaries;
    for (const auto& [dir, semdir] : mirror) summaries.emplace(dir, semdir->summary());

    const std::uint16_t n_op = spans.name("op");
    const std::uint16_t n_parse = spans.name("xml.parse_request");
    const std::uint16_t n_build = spans.name("description.request_build");
    const std::uint16_t n_resolve = spans.name("description.resolve");
    const std::uint16_t n_query = spans.name("directory.query");
    const std::uint16_t n_covers = spans.name("bloom.covers");
    std::uint64_t capability_matches = 0;
    std::uint64_t dags_visited = 0;
    std::uint64_t quick_rejects = 0;
    std::uint64_t hits = 0;
    std::uint64_t queries = 0;
    std::uint64_t covers_calls = 0;
    directory::QueryResult scratch;
    const auto query = [&](std::uint64_t op, std::int32_t root, directory::SemanticDirectory& dir,
                           const desc::ServiceRequest& request,
                           const std::vector<desc::ResolvedCapability>& resolved) {
        const std::int32_t span = spans.open(op, n_query, root);
        dir.query_prepared(request, resolved, {}, scratch);
        spans.close(span);
        ++queries;
        capability_matches += scratch.stats.capability_matches;
        dags_visited += scratch.stats.dags_visited;
        quick_rejects += scratch.stats.quick_rejects;
        for (const auto& per_cap : scratch.per_capability) hits += per_cap.size();
    };
    for (std::size_t r = 0; r < clients.size(); ++r) {
        const std::int32_t root = spans.open(r, n_op);
        std::int32_t span = spans.open(r, n_parse, root);
        const xml::XmlDocument xml = xml::parse(docs.requests[r]);
        spans.close(span);
        span = spans.open(r, n_build, root);
        const desc::ServiceRequest request = desc::parse_request(xml.root);
        spans.close(span);
        span = spans.open(r, n_resolve, root);
        const auto resolved = desc::resolve_request(request, kb);
        std::vector<std::string> uris;
        for (const auto& cap : resolved) {
            for (auto& uri : desc::ontology_uris(cap, kb.registry())) uris.push_back(std::move(uri));
        }
        spans.close(span);
        const net::NodeId local = network.directory_for(clients[r]);
        query(r, root, *mirror.at(local), request, resolved);
        for (const auto& [peer, summary] : summaries) {
            if (peer == local) continue;
            span = spans.open(r, n_covers, root);
            const bool covered = summary.possibly_covers(uris);
            spans.close(span);
            ++covers_calls;
            if (covered) query(r, root, *mirror.at(peer), request, resolved);
        }
        spans.close(root);
    }

    // Per request, like the daemon workloads' stages; bloom.covers_us is
    // per call, the unit the routing decision is made in.
    const double n = static_cast<double>(clients.size());
    for (const auto& [name, self] : spans.self_us()) {
        if (name == "op") continue;
        if (name == "bloom.covers") {
            result.set("bloom.covers_us_per_op", self / n, "us", spans.count(name));
            result.set("bloom.covers_us",
                       covers_calls == 0 ? 0 : self / static_cast<double>(covers_calls), "us",
                       covers_calls);
        } else {
            result.set(name + "_us", self / n, "us", spans.count(name));
        }
    }
    const double q = static_cast<double>(std::max<std::uint64_t>(queries, 1));
    result.set("matching.capability_matches_per_query", static_cast<double>(capability_matches) / q, "count", queries);
    result.set("directory.dags_visited_per_query", static_cast<double>(dags_visited) / q, "count", queries);
    result.set("matching.quick_rejects_per_query", static_cast<double>(quick_rejects) / q, "count", queries);
    result.set("directory.hits_per_query", static_cast<double>(hits) / q, "count", queries);
    result.set("directory.useful_match_ratio",
               capability_matches == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(capability_matches),
               "ratio", queries);
}

}  // namespace

RunResult run_backbone(const Options& options) {
    RunResult result;
    const std::uint64_t salt = mix64(options.seed ^ 0xBAC4B0FEULL);

    Rng request_rng(salt + 1);
    std::vector<std::size_t> request_of;
    for (std::size_t r = 0; r < kRequestsPerBatch; ++r) {
        request_of.push_back(request_rng.below(kServices));
    }
    std::int64_t t0 = now_ns();
    const DocSet docs = make_docs(kServices, request_of);
    result.set("bench.reference_s", static_cast<double>(now_ns() - t0) / 1e9, "s",
               docs.requests.size());

    workload::OntologyGenConfig onto_config;
    onto_config.class_count = kClasses;
    encoding::KnowledgeBase kb;
    t0 = now_ns();
    for (auto& ontology : workload::generate_universe(kUniverse, onto_config, kUniverseSeed)) {
        kb.register_ontology(std::move(ontology));
    }
    for (onto::OntologyIndex i = 0; i < kb.registry().size(); ++i) (void)kb.code_table(i);
    result.set("encoding.register_ms", static_cast<double>(now_ns() - t0) / 1e6, "ms", 1);

    Rng topology_rng(kTopologySeed);
    const net::Topology topology = net::Topology::random_geometric(kNodes, kRadioRange, topology_rng);

    // Measured in rounds: each builds a fresh backbone (election plus
    // publish quiescence — one set-up sample) under one of kPlacements
    // seeded placements of the ontology providers, and runs
    // kBatchesPerRound identical batches on it, so no round inherits
    // another's state. Rounds cycle through the placements until the
    // measured time is used up; figures that depend on placement are
    // averaged over the placements, so one unlucky layout does not decide
    // a run.
    std::vector<Placement> placements(kPlacements);
    for (std::size_t p = 0; p < kPlacements; ++p) {
        Rng provider_rng(salt + 3 + 16 * p);
        for (std::size_t o = 0; o < kUniverse; ++o) {
            placements[p].provider_of.push_back(
                static_cast<net::NodeId>(provider_rng.below(kNodes)));
        }
    }
    std::vector<double> setups;
    std::vector<double> cpu_per_op;
    std::vector<double> wall_per_op;
    std::vector<double> bytes_per_req;
    std::vector<double> forwards_per_req;
    std::vector<double> deliveries_per_req;
    std::vector<double> forwarded;
    std::uint64_t forwards_total = 0;
    std::uint64_t false_positives = 0;
    std::uint64_t deliveries = 0;
    double total_wall = 0;
    std::unique_ptr<Backbone> backbone;
    Placement* last = nullptr;
    // Each cycle of placements runs on the next allowed CPU: on a shared
    // host the CPUs run at different speeds (their neighbours differ), and
    // a run pinned to one, or left where the scheduler puts it, would
    // report that CPU.
    const std::vector<int> cpus = allowed_cpus();
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
    for (std::size_t round = 0; round < kPlacements || now_ns() < end; ++round) {
        if (!cpus.empty()) pin_to_cpu(cpus[(round / kPlacements) % cpus.size()]);
        Placement& placement = placements[round % kPlacements];
        last = &placement;
        backbone.reset();
        t0 = now_ns();
        backbone = build(topology, kb, docs, placement.provider_of, salt + 5);
        setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        ariadne::DiscoveryNetwork& network = *backbone->network;
        const obs::MetricsRegistry& registry = backbone->registry;

        if (placement.clients.empty()) {
            if (network.directories().size() < 2) {
                throw std::runtime_error("backbone elected fewer than two directories");
            }
            // Each request comes from a client whose nearest directory does
            // not hold the requested service's ontology.
            Rng client_rng(salt + 4 + 16 * (round % kPlacements));
            for (std::size_t r = 0; r < docs.requests.size(); ++r) {
                const net::NodeId home =
                    network.directory_for(placement.provider_of[request_of[r] % kUniverse]);
                net::NodeId client = 0;
                do {
                    client = static_cast<net::NodeId>(client_rng.below(kNodes));
                } while (network.directory_for(client) == home);
                placement.clients.push_back(client);
            }
        }

        const std::uint64_t bytes0 = network.traffic().bytes_transmitted;
        const std::uint64_t deliveries0 = network.traffic().deliveries;
        const std::uint64_t forwards0 = counter(registry, obs::names::kProtocolForwards);
        const std::uint64_t fp0 = counter(registry, obs::names::kProtocolBloomFalsePositives);
        double round_cpu = 0;
        double round_wall = 0;
        for (std::size_t b = 0; b < kBatchesPerRound; ++b) {
            const BatchOutcome batch = run_batch(network, docs, placement.clients);
            result.attempted += docs.requests.size();
            result.failed += batch.wrong + batch.unanswered;
            result.wrong_answers += batch.wrong;
            if (batch.wrong) result.note(std::to_string(batch.wrong) + " wrong answers");
            if (batch.unanswered) {
                result.note(std::to_string(batch.unanswered) + " requests unsatisfied");
            }
            round_cpu += batch.cpu_us;
            round_wall += batch.wall_s;
            placement.response_us.insert(placement.response_us.end(), batch.response_us.begin(),
                                         batch.response_us.end());
            if (round < kPlacements && b == 0) {
                // Exact per-request traffic of each placement's first batch
                // (repeats for a seed).
                const double n = static_cast<double>(docs.requests.size());
                const std::uint64_t fwd = counter(registry, obs::names::kProtocolForwards) - forwards0;
                bytes_per_req.push_back(
                    static_cast<double>(network.traffic().bytes_transmitted - bytes0) / n);
                forwards_per_req.push_back(static_cast<double>(fwd) / n);
                deliveries_per_req.push_back(
                    static_cast<double>(network.traffic().deliveries - deliveries0) / n);
                forwarded.push_back(static_cast<double>(batch.forwarded));
                forwards_total += fwd;
                false_positives +=
                    counter(registry, obs::names::kProtocolBloomFalsePositives) - fp0;
            }
        }
        if (round == 0) {
            const double pushes =
                static_cast<double>(counter(registry, obs::names::kProtocolSummaryPushes));
            result.set("summary.bytes_per_push",
                       pushes == 0 ? 0
                                   : static_cast<double>(counter(
                                         registry, obs::names::kProtocolSummaryBytesSent)) /
                                         pushes,
                       "B", static_cast<std::uint64_t>(pushes));
            result.set("ariadne.directories", static_cast<double>(network.directories().size()),
                       "count", 1);
            result.set("rss_mb", process_peak_rss_mb(::getpid()), "MB", 1);
        }
        deliveries += network.traffic().deliveries - deliveries0;
        total_wall += round_wall;
        const double done = static_cast<double>(kBatchesPerRound * docs.requests.size());
        cpu_per_op.push_back(round_cpu / done);
        wall_per_op.push_back(round_wall / done);
    }

    const std::size_t rounds = setups.size();
    const std::uint64_t requests = rounds * kBatchesPerRound * docs.requests.size();
    const std::uint64_t counted = kPlacements * docs.requests.size();
    const auto mean = [](const std::vector<double>& values) {
        double sum = 0;
        for (const double v : values) sum += v;
        return values.empty() ? 0 : sum / static_cast<double>(values.size());
    };
    std::vector<double> p50s;
    std::vector<double> p99s;
    for (Placement& placement : placements) {
        p50s.push_back(quantile(placement.response_us, 0.5));
        p99s.push_back(quantile(placement.response_us, 0.99));
    }
    result.set("setup_s", median(setups), "s", rounds);
    result.set("query_p50_us", mean(p50s), "us", requests);
    result.set("query_p99_us", mean(p99s), "us", requests);
    // Per-round costs are read like the daemon workloads' latency windows:
    // the median across rounds, which spread over every allowed CPU.
    const double cpu_us = quantile(cpu_per_op, 0.5);
    result.set("cpu_us_per_op", cpu_us, "us", requests);
    result.set("net.daemon_cpu_us_per_op", cpu_us, "us", requests);
    result.set("goodput_ops_per_s", 1.0 / quantile(wall_per_op, 0.5), "1/s", requests);
    result.set("bytes_per_op", mean(bytes_per_req), "B", counted);
    result.set("net.bytes_out_per_op", mean(bytes_per_req), "B", counted);
    result.set("ariadne.forwards_per_req", mean(forwards_per_req), "count", counted);
    result.set("bloom.false_positive_ratio",
               forwards_total == 0 ? 0
                                   : static_cast<double>(false_positives) /
                                         static_cast<double>(forwards_total),
               "ratio", forwards_total);
    result.set("net.sim_deliveries_per_req", mean(deliveries_per_req), "count", counted);
    result.set("net.sim_deliveries_per_s", static_cast<double>(deliveries) / total_wall, "1/s",
               deliveries);
    result.set("bench.forwarded_requests", mean(forwarded), "count", counted);
    result.set("net.backpressure_drops", 0, "count", 0);
    result.set("bench.rounds", static_cast<double>(rounds), "count", rounds);
    std::vector<Op> request_ops;
    for (const std::size_t index : request_of) {
        request_ops.push_back(Op{0, static_cast<std::uint32_t>(index), OpKind::kQuery});
    }
    result.set("bench.doc_reuse_share", doc_reuse_share(request_ops, 512), "ratio",
               request_ops.size());

    if (options.trace) {
        SpanRecorder spans;
        replay_backbone(kb, *backbone->network, docs, last->provider_of, last->clients, spans,
                        result);
        double staged = 0;
        for (const auto& [name, self] : spans.self_us()) {
            if (name != "op") staged += self;
        }
        result.set("ariadne.residual_us_per_op",
                   cpu_us - staged / static_cast<double>(docs.requests.size()), "us", requests);
        // The simulator is never instrumented (spans come from the replay),
        // so the later rounds against the earlier ones — the same code —
        // give the noise floor, in CPU per request.
        const auto half = cpu_per_op.begin() + static_cast<std::ptrdiff_t>(rounds / 2);
        result.set("bench.tracing_overhead_us",
                   median({half, cpu_per_op.end()}) - median({cpu_per_op.begin(), half}), "us",
                   rounds);
        if (!options.result_path.empty()) spans.write_csv(options.result_path + ".replay_spans.csv");
    }
    return result;
}

}  // namespace perfbench
