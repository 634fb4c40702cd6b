// Distributed discovery over a simulated MANET (the paper's §4/§5 setting).
//
// 30 wireless nodes in a random geometric topology. No directory exists at
// t=0: the timeout-driven election deploys a backbone of directories, each
// advertising within its vicinity. Providers publish Amigo-S descriptions
// to their nearest directory; Bloom-filter summaries flow between
// directories; clients discover across the backbone with selective
// forwarding. The run prints the backbone, every discovery outcome with
// its end-to-end virtual response time, and the protocol traffic budget.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "ariadne/protocol.hpp"
#include "net/sim_transport.hpp"
#include "net/mobility.hpp"
#include "workload/ontology_gen.hpp"
#include "workload/service_gen.hpp"

using namespace sariadne;

int main() {
    // Ontology universe and workload.
    workload::OntologyGenConfig onto_config;
    onto_config.class_count = 30;
    workload::ServiceWorkload workload(
        workload::generate_universe(8, onto_config, 42));
    encoding::KnowledgeBase kb;
    for (const auto& o : workload.ontologies()) kb.register_ontology(o);

    // Network: 30 nodes, radio range 0.28 in the unit square.
    Rng rng(7);
    ariadne::ProtocolConfig config;
    config.protocol = ariadne::Protocol::kSAriadne;
    config.adv_period_ms = 1000;
    config.adv_timeout_ms = 3000;
    config.vicinity_hops = 2;
    config.election_ttl = 2;

    config.republish_period_ms = 5000;
    config.request_timeout_ms = 4000;

    ariadne::DiscoveryNetwork network(
        net::Topology::random_geometric(30, 0.28, rng), config, kb);

    // Pedestrian-pace random-waypoint mobility: links genuinely rewire
    // while discovery runs.
    net::MobilityConfig motion;
    motion.speed = 0.02;
    motion.step_ms = 1000;
    motion.radio_range = 0.28;
    net::RandomWaypointMobility mobility(sim(network), motion);
    mobility.start();
    network.start();

    std::printf("=== t=0: 30 nodes, no directory ===\n");
    network.run_for(15000);

    const auto dirs = network.directories();
    std::printf("after 15 s: %zu directories elected:", dirs.size());
    for (const auto d : dirs) std::printf(" node-%u", d);
    std::printf("\n\n");

    // 16 providers publish services.
    for (std::size_t i = 0; i < 16; ++i) {
        network.publish_service(static_cast<net::NodeId>((i * 7) % 30),
                                workload.service_xml(i));
    }
    network.run_for(10000);
    std::printf("16 services published to the backbone\n\n");

    // 8 clients discover from scattered positions.
    std::vector<std::uint64_t> requests;
    for (std::size_t i = 0; i < 16; i += 2) {
        requests.push_back(
            network.discover(static_cast<net::NodeId>((i * 11 + 5) % 30),
                             workload.matching_request_xml(i)));
    }
    network.run_for(30000);

    std::printf("%-10s %-10s %-12s %-16s %-14s\n", "request", "answered",
                "satisfied", "response(ms)", "dirs asked");
    int satisfied = 0;
    for (const auto id : requests) {
        const auto& outcome = network.outcome(id);
        std::printf("#%-9llu %-10s %-12s %-16.2f %-14u\n",
                    static_cast<unsigned long long>(id),
                    outcome.answered ? "yes" : "NO",
                    outcome.satisfied ? "yes" : "no",
                    outcome.response_time_ms(), outcome.directories_asked);
        if (outcome.satisfied) ++satisfied;
    }

    const auto& traffic = network.traffic();
    std::printf("\nprotocol traffic: %llu unicasts, %llu broadcasts, "
                "%llu link transmissions, %llu bytes\n",
                static_cast<unsigned long long>(traffic.unicasts),
                static_cast<unsigned long long>(traffic.broadcasts),
                static_cast<unsigned long long>(traffic.link_transmissions),
                static_cast<unsigned long long>(traffic.bytes_transmitted));
    // Delivered message types, by name.
    std::vector<std::pair<std::string, std::uint64_t>> per_type;
    for (std::size_t i = 0; i < ariadne::wire::kMsgTypeCount; ++i) {
        const auto type = static_cast<ariadne::wire::MsgType>(i + 1);
        if (traffic.per_type[type] > 0) {
            per_type.emplace_back(ariadne::wire::to_string(type),
                                  traffic.per_type[type]);
        }
    }
    std::sort(per_type.begin(), per_type.end());
    for (const auto& [type, count] : per_type) {
        std::printf("  %-14s %llu deliveries\n", type.c_str(),
                    static_cast<unsigned long long>(count));
    }

    std::printf("\nmobility: %llu steps, %.2f unit-lengths travelled\n",
                static_cast<unsigned long long>(mobility.steps()),
                mobility.distance_travelled());
    std::printf("%d/%zu discoveries satisfied\n", satisfied, requests.size());
    return satisfied >= static_cast<int>(requests.size()) - 1 ? 0 : 1;
}
