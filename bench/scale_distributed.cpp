// Ablation A4 — distributed scale-out (the paper's "S-Ariadne is more
// scalable" claim, §5/§6).
//
// Full-protocol runs over the simulator: networks of growing size with an
// elected directory backbone, the §5 workload published across it, and a
// batch of discoveries issued from random nodes. Reported per network
// size and protocol: mean end-to-end response time (virtual ms, including
// real directory compute charged as service time), satisfaction rate, and
// forwarded-request traffic — where Ariadne floods every directory and
// S-Ariadne consults its Bloom summaries.
#include <cstdio>
#include <vector>

#include "ariadne/protocol.hpp"
#include "net/topology.hpp"
#include "bench_util.hpp"
#include "workload/ontology_gen.hpp"
#include "workload/service_gen.hpp"

using namespace sariadne;

namespace {

struct RunResult {
    double mean_response_ms = 0;
    double satisfaction = 0;
    double forwards_per_request = 0;
    std::size_t directories = 0;
};

RunResult run(ariadne::Protocol protocol, std::size_t nodes,
              workload::ServiceWorkload& workload, encoding::KnowledgeBase& kb,
              obs::MetricsRegistry* metrics = nullptr) {
    ariadne::ProtocolConfig config;
    config.protocol = protocol;
    config.adv_period_ms = 1000;
    config.adv_timeout_ms = 3000;
    config.vicinity_hops = 2;

    Rng rng(nodes * 31 + 7);
    ariadne::DiscoveryNetwork network(
        net::Topology::random_geometric(nodes, 0.35, rng), config, kb, metrics);
    network.start();
    network.run_for(15000);

    const std::size_t services = nodes;  // density held constant
    for (std::size_t i = 0; i < services; ++i) {
        const auto provider = static_cast<net::NodeId>((i * 13) % nodes);
        if (protocol == ariadne::Protocol::kSAriadne) {
            network.publish_service(provider, workload.service_xml(i));
        } else {
            network.publish_service(provider, workload.wsdl_xml(i));
        }
    }
    network.run_for(10000);

    const auto forwards_before =
        network.traffic().per_type[ariadne::wire::MsgType::kForward];
    std::vector<std::uint64_t> ids;
    for (std::size_t r = 0; r < 20; ++r) {
        const auto client = static_cast<net::NodeId>((r * 17 + 3) % nodes);
        const std::size_t target = (r * 5) % services;
        ids.push_back(network.discover(
            client, protocol == ariadne::Protocol::kSAriadne
                        ? workload.matching_request_xml(target)
                        : workload.wsdl_request_xml(target)));
    }
    network.run_for(60000);

    RunResult result;
    result.directories = network.directories().size();
    const auto forwards_after =
        network.traffic().per_type[ariadne::wire::MsgType::kForward];
    result.forwards_per_request =
        static_cast<double>(forwards_after - forwards_before) /
        static_cast<double>(ids.size());
    double total_response = 0;
    int answered = 0;
    int satisfied = 0;
    for (const auto id : ids) {
        const auto& outcome = network.outcome(id);
        if (outcome.answered) {
            ++answered;
            total_response += outcome.response_time_ms();
            if (outcome.satisfied) ++satisfied;
        }
    }
    result.mean_response_ms = answered > 0 ? total_response / answered : -1;
    result.satisfaction =
        static_cast<double>(satisfied) / static_cast<double>(ids.size());
    return result;
}

}  // namespace

int main() {
    bench::print_header(
        "Ablation A4: distributed scale-out, Ariadne vs S-Ariadne backbones",
        "S-Ariadne scales better: selective Bloom forwarding keeps "
        "per-request backbone traffic low as the network grows");

    workload::OntologyGenConfig onto_config;
    onto_config.class_count = 30;
    workload::ServiceWorkload workload(
        workload::generate_universe(22, onto_config, 2006));
    encoding::KnowledgeBase kb;
    for (const auto& o : workload.ontologies()) kb.register_ontology(o);
    for (onto::OntologyIndex i = 0; i < kb.registry().size(); ++i) {
        (void)kb.code_table(i);
    }

    std::printf("\n%7s %11s | %12s %10s %10s | %12s %10s %10s\n", "nodes",
                "protocol", "response_ms", "satisfied", "fwd/req", "", "", "");
    double sa_fwd_large = 0;
    double ar_fwd_large = 0;
    double sa_sat_min = 1.0;
    obs::MetricsRegistry metrics;  // snapshot of the largest S-Ariadne run
    for (const std::size_t nodes : {16ul, 36ul, 64ul}) {
        const RunResult ariadne_run =
            run(ariadne::Protocol::kAriadne, nodes, workload, kb);
        const RunResult sariadne_run =
            run(ariadne::Protocol::kSAriadne, nodes, workload, kb,
                nodes == 64 ? &metrics : nullptr);
        std::printf("%7zu %11s | %12.2f %9.0f%% %10.2f | (%zu directories)\n",
                    nodes, "Ariadne", ariadne_run.mean_response_ms,
                    100 * ariadne_run.satisfaction,
                    ariadne_run.forwards_per_request, ariadne_run.directories);
        std::printf("%7s %11s | %12.2f %9.0f%% %10.2f | (%zu directories)\n",
                    "", "S-Ariadne", sariadne_run.mean_response_ms,
                    100 * sariadne_run.satisfaction,
                    sariadne_run.forwards_per_request, sariadne_run.directories);
        if (nodes == 64) {
            sa_fwd_large = sariadne_run.forwards_per_request;
            ar_fwd_large = ariadne_run.forwards_per_request;
        }
        sa_sat_min = std::min(sa_sat_min, sariadne_run.satisfaction);
    }

    std::printf("\n");
    bench::ShapeChecks checks;
    checks.check(sa_sat_min >= 0.9,
                 "S-Ariadne satisfies >=90% of matching requests at every "
                 "network size");
    checks.check(sa_fwd_large <= ar_fwd_large,
                 "at 64 nodes, Bloom forwarding sends no more forwards than "
                 "flooding");
    bench::emit_metrics(metrics, "scale_distributed_64_sariadne");
    std::printf("\n");
    return checks.finish("scale_distributed");
}
