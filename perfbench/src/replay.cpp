#include "replay.hpp"

#include <fstream>
#include <unordered_map>

#include "ariadne/wire.hpp"
#include "description/amigos_io.hpp"
#include "description/resolved.hpp"
#include "directory/semantic_directory.hpp"
#include "reasoner/knowledge_base.hpp"
#include "workload/ontology_gen.hpp"
#include "xml/parser.hpp"

namespace perfbench {

using namespace sariadne;
namespace wire = sariadne::ariadne::wire;

std::uint16_t SpanRecorder::name(const std::string& text) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == text) return static_cast<std::uint16_t>(i);
    }
    names_.push_back(text);
    return static_cast<std::uint16_t>(names_.size() - 1);
}

std::int32_t SpanRecorder::open(std::uint64_t op, std::uint16_t name, std::int32_t parent) {
    spans_.push_back(Span{op, name, parent, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::close(std::int32_t span) {
    spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

std::vector<std::pair<std::string, double>> SpanRecorder::self_us() const {
    std::vector<double> self(names_.size(), 0);
    for (const Span& span : spans_) {
        const auto duration = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
        self[span.name] += duration;
        if (span.parent >= 0) {
            self[spans_[static_cast<std::size_t>(span.parent)].name] -= duration;
        }
    }
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = 0; i < names_.size(); ++i) out.emplace_back(names_[i], self[i]);
    return out;
}

std::uint64_t SpanRecorder::count(const std::string& text) const {
    std::uint64_t n = 0;
    for (const Span& span : spans_) n += names_[span.name] == text ? 1 : 0;
    return n;
}

void SpanRecorder::write_csv(const std::string& path) const {
    std::ofstream out(path);
    out << "op,name,parent,start_ns,end_ns\n";
    for (const Span& span : spans_) {
        out << span.op << ',' << names_[span.name] << ',' << span.parent << ','
            << span.start_ns << ',' << span.end_ns << '\n';
    }
}

namespace {

/// Times `body` as one span.
template <typename Body>
auto spanned(SpanRecorder& spans, std::uint64_t op, std::uint16_t name,
             std::int32_t parent, Body&& body) {
    const std::int32_t span = spans.open(op, name, parent);
    auto value = body();
    spans.close(span);
    return value;
}

}  // namespace

void replay_daemon_ops(const DocSet& docs, const std::vector<Op>& ops,
                       SpanRecorder& spans, RunResult& result) {
    workload::OntologyGenConfig onto_config;
    onto_config.class_count = kClasses;
    auto universe = workload::generate_universe(kUniverse, onto_config, kUniverseSeed);

    encoding::KnowledgeBase kb;
    std::int64_t t0 = now_ns();
    for (auto& ontology : universe) kb.register_ontology(std::move(ontology));
    for (onto::OntologyIndex i = 0; i < kb.registry().size(); ++i) (void)kb.code_table(i);
    result.set("encoding.register_ms", static_cast<double>(now_ns() - t0) / 1e6, "ms", 1);

    directory::SemanticDirectory dir(kb);
    std::vector<desc::ServiceDescription> parsed;
    parsed.reserve(docs.services.size());
    for (const std::string& service : docs.services) parsed.push_back(desc::parse_service(service));
    t0 = now_ns();
    dir.publish_batch(std::move(parsed));
    result.set("directory.publish_batch_us_per_doc",
               static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(docs.services.size()),
               "us", docs.services.size());

    // The request bodies the load generator wrote, less their ids.
    std::vector<std::vector<std::uint8_t>> query_frames;
    for (const std::string& request : docs.requests) {
        query_frames.push_back(wire::encode({wire::MsgType::kRequest, wire::Request{0, 0, request}}));
    }

    const std::uint16_t n_op = spans.name("op");
    const std::uint16_t n_decode = spans.name("ariadne.wire_decode");
    const std::uint16_t n_parse_req = spans.name("xml.parse_request");
    const std::uint16_t n_build_req = spans.name("description.request_build");
    const std::uint16_t n_resolve = spans.name("description.resolve");
    const std::uint16_t n_query = spans.name("directory.query");
    const std::uint16_t n_encode = spans.name("ariadne.wire_encode");
    const std::uint16_t n_parse_svc = spans.name("xml.parse_service");
    const std::uint16_t n_build_svc = spans.name("description.service_build");
    const std::uint16_t n_publish = spans.name("directory.publish");

    // Mirrors the daemon's prepared-request memo (DiscoveryNetwork::
    // prepared_request): keyed by document, emptied wholesale when a miss
    // finds 512 entries. Only misses parse and resolve.
    struct Prepared {
        desc::ServiceRequest request;
        std::vector<desc::ResolvedCapability> resolved;
    };
    std::unordered_map<std::uint32_t, Prepared> memo;
    std::uint64_t memo_hits = 0;

    directory::QueryResult scratch;
    std::uint64_t queries = 0;
    std::uint64_t capability_matches = 0;
    std::uint64_t dags_visited = 0;
    std::uint64_t quick_rejects = 0;
    std::uint64_t hits = 0;

    for (std::size_t k = 0; k < ops.size(); ++k) {
        const Op& op = ops[k];
        const std::int32_t root = spans.open(k, n_op);
        if (op.kind == OpKind::kQuery) {
            const auto decoded = spanned(spans, k, n_decode, root, [&] {
                return wire::try_decode(query_frames[op.doc]);
            });
            const std::string& document = std::get<wire::Request>(decoded.value().payload).document;
            auto found = memo.find(op.doc);
            if (found != memo.end()) {
                ++memo_hits;
            } else {
                if (memo.size() >= 512) memo.clear();
                Prepared prepared;
                const auto xml = spanned(spans, k, n_parse_req, root,
                                         [&] { return xml::parse(document); });
                prepared.request = spanned(spans, k, n_build_req, root,
                                           [&] { return desc::parse_request(xml.root); });
                prepared.resolved = spanned(spans, k, n_resolve, root, [&] {
                    return desc::resolve_request(prepared.request, kb);
                });
                found = memo.emplace(op.doc, std::move(prepared)).first;
            }
            spanned(spans, k, n_query, root, [&] {
                dir.query_prepared(found->second.request, found->second.resolved, {}, scratch);
                return 0;
            });
            wire::Response response;
            response.request_id = k + 1;
            response.satisfied = scratch.fully_satisfied();
            response.compute_ms = scratch.timing.total_ms();
            for (const auto& per_cap : scratch.per_capability) {
                for (const auto& hit : per_cap) {
                    response.hits.push_back(wire::Hit{hit.service, hit.service_name,
                                                      hit.capability_name,
                                                      hit.semantic_distance});
                }
            }
            if (answer_digest(response.hits) != docs.expected_digest[op.doc]) {
                ++result.wrong_answers;
            }
            hits += response.hits.size();
            ++queries;
            capability_matches += scratch.stats.capability_matches;
            dags_visited += scratch.stats.dags_visited;
            quick_rejects += scratch.stats.quick_rejects;
            spanned(spans, k, n_encode, root, [&] {
                return wire::encode({wire::MsgType::kResponse, std::move(response)});
            });
        } else {
            const auto body = wire::encode(
                {wire::MsgType::kPublish, wire::PublishDoc{docs.services[op.doc], k + 1}});
            const auto decoded =
                spanned(spans, k, n_decode, root, [&] { return wire::try_decode(body); });
            const std::string& document =
                std::get<wire::PublishDoc>(decoded.value().payload).document;
            const auto xml = spanned(spans, k, n_parse_svc, root,
                                     [&] { return xml::parse(document); });
            auto service = spanned(spans, k, n_build_svc, root,
                                   [&] { return desc::parse_service(xml.root); });
            spanned(spans, k, n_publish, root,
                    [&] { return dir.publish(std::move(service)); });
            spanned(spans, k, n_encode, root, [&] {
                return wire::encode({wire::MsgType::kPubAck, wire::PubAck{k + 1}});
            });
        }
        spans.close(root);
    }

    const double n = static_cast<double>(std::max<std::size_t>(ops.size(), 1));
    for (const auto& [name, self] : spans.self_us()) {
        if (name == "op") continue;
        result.set(name + "_us", self / n, "us", spans.count(name));
    }
    const double q = static_cast<double>(std::max<std::uint64_t>(queries, 1));
    result.set("matching.capability_matches_per_query", static_cast<double>(capability_matches) / q, "count", queries);
    result.set("directory.dags_visited_per_query", static_cast<double>(dags_visited) / q, "count", queries);
    result.set("matching.quick_rejects_per_query", static_cast<double>(quick_rejects) / q, "count", queries);
    result.set("directory.hits_per_query", static_cast<double>(hits) / q, "count", queries);
    result.set("directory.useful_match_ratio",
               capability_matches == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(capability_matches),
               "ratio", queries);
    result.set("ariadne.memo_hit_share", static_cast<double>(memo_hits) / q, "ratio", queries);
}

}  // namespace perfbench
