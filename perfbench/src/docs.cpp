#include "docs.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>

#include "description/amigos_io.hpp"
#include "description/resolved.hpp"
#include "directory/flat_directory.hpp"
#include "reasoner/knowledge_base.hpp"
#include "support/flat_set.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "workload/ontology_gen.hpp"
#include "workload/service_gen.hpp"

#include "common.hpp"

namespace perfbench {

using namespace sariadne;

std::uint64_t answer_digest(Answer answer) {
    std::sort(answer.begin(), answer.end());
    std::uint64_t acc = 0x9E3779B97F4A7C15ULL ^ answer.size();
    for (const auto& [name, distance] : answer) {
        std::uint64_t h = 1469598103934665603ULL;
        for (const char c : name) {
            h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
        }
        acc = mix64(acc ^ h ^ (static_cast<std::uint64_t>(distance) << 48));
    }
    return acc;
}

std::uint64_t answer_digest(const std::vector<ariadne::wire::Hit>& hits) {
    Answer answer;
    answer.reserve(hits.size());
    for (const auto& hit : hits) {
        answer.emplace_back(hit.service_name, hit.semantic_distance);
    }
    return answer_digest(std::move(answer));
}

std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t bound,
                                        std::size_t count) {
    std::vector<std::size_t> all(bound);
    std::iota(all.begin(), all.end(), std::size_t{0});
    Rng rng(mix64(seed ^ 0x5A4D91EULL));
    for (std::size_t i = 0; i < count && i < bound; ++i) {
        std::swap(all[i], all[i + rng.below(bound - i)]);
    }
    all.resize(std::min(count, bound));
    return all;
}

DocSet make_docs(std::size_t service_count, const std::vector<std::size_t>& request_of) {
    workload::OntologyGenConfig onto_config;
    onto_config.class_count = kClasses;
    workload::ServiceWorkload workload(
        workload::generate_universe(kUniverse, onto_config, kUniverseSeed));

    DocSet docs;
    docs.services.reserve(service_count);
    for (std::size_t i = 0; i < service_count; ++i) {
        docs.services.push_back(workload.service_xml(i));
    }
    docs.requests.reserve(request_of.size());
    for (const std::size_t index : request_of) {
        docs.requests.push_back(workload.matching_request_xml(index));
    }

    // Concepts of different ontologies are unrelated, so a capability can
    // only match a request whose ontologies it shares. The linear scan is
    // therefore split by the provided capabilities' ontology sets: each
    // request scans every FlatDirectory whose set meets its own.
    encoding::KnowledgeBase kb;
    for (const auto& ontology : workload.ontologies()) kb.register_ontology(ontology);
    std::map<std::vector<onto::OntologyIndex>, std::unique_ptr<directory::FlatDirectory>> partitions;
    for (const std::string& service : docs.services) {
        const auto description = desc::parse_service(service);
        FlatSet<onto::OntologyIndex> key;
        for (const auto& cap : desc::resolve_provided(description, kb.registry())) {
            key = key.united_with(cap.ontologies);
        }
        auto& partition = partitions[{key.begin(), key.end()}];
        if (!partition) partition = std::make_unique<directory::FlatDirectory>(kb);
        partition->publish(description);
    }

    docs.expected.reserve(docs.requests.size());
    for (const std::string& request : docs.requests) {
        const auto resolved =
            desc::resolve_request(desc::parse_request(request), kb);
        FlatSet<onto::OntologyIndex> wanted;
        for (const auto& cap : resolved) wanted = wanted.united_with(cap.ontologies);
        // Per requested capability, the minimal-distance tier across all
        // partitions.
        std::vector<std::vector<directory::MatchHit>> best(resolved.size());
        for (const auto& [key, flat] : partitions) {
            if (!std::any_of(key.begin(), key.end(),
                             [&](onto::OntologyIndex o) { return wanted.contains(o); })) {
                continue;
            }
            directory::MatchStats stats;
            directory::QueryTiming timing;
            const auto per_capability = flat->query(resolved, stats, timing);
            for (std::size_t c = 0; c < per_capability.size(); ++c) {
                const auto& hits = per_capability[c];
                if (hits.empty()) continue;
                auto& tier = best[c];
                if (!tier.empty() && hits[0].semantic_distance > tier[0].semantic_distance) continue;
                if (!tier.empty() && hits[0].semantic_distance < tier[0].semantic_distance) tier.clear();
                tier.insert(tier.end(), hits.begin(), hits.end());
            }
        }
        Answer answer;
        for (const auto& hits : best) {
            for (const auto& hit : hits) {
                answer.emplace_back(hit.service_name, hit.semantic_distance);
            }
        }
        std::sort(answer.begin(), answer.end());
        docs.expected_digest.push_back(answer_digest(answer));
        docs.expected.push_back(std::move(answer));
    }
    return docs;
}

}  // namespace perfbench
