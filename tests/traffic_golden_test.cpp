// Golden traffic: fixed-seed DiscoveryNetwork runs over a hostile radio
// (loss, duplication, jitter, crash/recover), with every TrafficStats
// field and every `sim.*` / `protocol.*` counter pinned to literal values.
// The same-seed tests elsewhere compare two runs of one build; this test
// compares against numbers recorded from an earlier build, so a refactor
// that claims unchanged behaviour (message representation, dispatch,
// transport plumbing) must reproduce the traffic exactly. Per-type
// delivery counts are pinned through the `sim.deliveries{type="..."}`
// counters, which the simulator bumps alongside TrafficStats::per_type.
//
// Directories charge their real compute time as virtual service time, so
// the runs use GridTimerTransport to make the traffic independent of how
// fast the build under test matches (sanitizer builds included).
//
// If a deliberate protocol change moves these numbers, re-record them
// and say why in the change description.
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ariadne/protocol.hpp"
#include "description/amigos_io.hpp"
#include "net/sim_transport.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace sariadne::ariadne {
namespace {

namespace th = sariadne::testing;
using net::NodeId;
using net::Topology;

encoding::KnowledgeBase make_kb() {
    encoding::KnowledgeBase kb;
    kb.register_ontology(th::media_ontology());
    kb.register_ontology(th::server_ontology());
    return kb;
}

/// The simulator testbed with every protocol timer rounded up to the next
/// point of a 50 ms grid (strictly later than the requested delay).
/// Service-time timers (a few µs to a few ms of measured compute) all land
/// on the same grid point whatever the build's speed; the protocol's own
/// periods stay deterministic functions of the configuration and seeds.
class GridTimerTransport final : public SimTransport {
public:
    using SimTransport::SimTransport;

    void schedule(net::SimTime delay_ms,
                  std::function<void()> action) override {
        constexpr double kGridMs = 50;
        SimTransport::schedule((std::floor(delay_ms / kGridMs) + 1) * kGridMs,
                               std::move(action));
    }
};

net::FaultPlan golden_plan(std::uint64_t seed) {
    net::FaultPlan plan;
    plan.seed = seed;
    plan.loss_probability = 0.15;
    plan.duplication_probability = 0.10;
    plan.latency_jitter_ms = 3.0;
    plan.crashes.push_back({10, 4000.0, 7000.0});
    plan.crashes.push_back({6, 9000.0, 11000.0});
    return plan;
}

/// Counter lines of the Prometheus exposition whose metric belongs to the
/// simulator or the protocol, in exposition (name) order.
std::string sim_and_protocol_counters(const obs::MetricsRegistry& registry) {
    std::istringstream in(registry.to_prometheus());
    std::string line;
    std::string out;
    while (std::getline(in, line)) {
        const bool ours = line.rfind("sariadne_sim_", 0) == 0 ||
                          line.rfind("sariadne_protocol_", 0) == 0;
        const auto space = line.find(' ');
        const bool counter =
            space != std::string::npos &&
            line.substr(0, space).find("_total") != std::string::npos;
        if (ours && counter) out += line + "\n";
    }
    return out;
}

struct GoldenRun {
    net::TrafficStats traffic;
    std::string counters;
};

/// Two semantic directories on a 4x4 grid: a provider near one, clients
/// near the other, so requests are forwarded along Bloom or exact
/// summaries. Acknowledged publish, request retries, a directory
/// resignation (handover) and a batch publish cover the remaining
/// message types.
GoldenRun run_golden(summary::SummaryBackend backend, bool acked) {
    auto kb = make_kb();
    obs::MetricsRegistry registry;
    ProtocolConfig config;
    config.protocol = Protocol::kSAriadne;
    config.summary_backend = backend;
    config.adv_period_ms = 500;
    config.adv_timeout_ms = 1500;
    config.election_wait_ms = 30;
    config.republish_period_ms = 3000;
    config.request_timeout_ms = 800;
    config.max_request_retries = 3;
    config.false_positive_pull_threshold = 2;
    if (acked) config.publish_ack_timeout_ms = 400;

    DiscoveryNetwork network(
        std::make_unique<GridTimerTransport>(Topology::grid(4, 4)), config, kb,
        &registry);
    sim(network).set_faults(golden_plan(0x601DE11));
    network.appoint_directory(5);
    network.appoint_directory(10);
    network.start();
    network.run_for(300);

    network.publish_service(0,
                            desc::serialize_service(th::workstation_service()));
    desc::ServiceDescription games_only;
    games_only.profile.service_name = "GamesOnly";
    games_only.profile.capabilities.push_back(th::provide_game());
    network.publish_batch(
        15, {desc::serialize_service(games_only),
             desc::serialize_service(th::workstation_service())});
    network.run_for(1500);

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const std::string request_xml = desc::serialize_request(request);
    for (int tick = 0; tick < 12; ++tick) {
        network.discover(static_cast<NodeId>((tick * 5 + 3) % 16),
                         request_xml);
        network.run_for(900);
    }
    // New content after the first summary exchange: the exact backend
    // ships it as a delta, the Bloom backend as a fresh push.
    network.publish_batch(12, {desc::serialize_service(games_only)});
    network.run_for(1500);
    network.resign_directory(10);
    network.run_for(3000);
    for (int tick = 0; tick < 4; ++tick) {
        network.discover(static_cast<NodeId>(15 - tick), request_xml);
        network.run_for(900);
    }
    sim(network).set_faults(net::FaultPlan{});
    network.run_for(10000);

    return GoldenRun{network.traffic(), sim_and_protocol_counters(registry)};
}

TEST(TrafficGolden, BloomBackendAckedPublishUnderFaults) {
    const GoldenRun run =
        run_golden(summary::SummaryBackend::kBloom, /*acked=*/true);
    const net::TrafficStats& t = run.traffic;
    EXPECT_EQ(t.unicasts, 204u);
    EXPECT_EQ(t.broadcasts, 231u);
    EXPECT_EQ(t.deliveries, 2220u);
    EXPECT_EQ(t.link_transmissions, 2404u);
    EXPECT_EQ(t.bytes_transmitted, 113070u);
    EXPECT_EQ(t.dropped_unreachable, 7u);
    EXPECT_EQ(t.faults_dropped, 236u);
    EXPECT_EQ(t.faults_duplicated, 158u);
    EXPECT_EQ(t.faults_crashes, 2u);
    EXPECT_EQ(t.faults_recoveries, 2u);
    EXPECT_EQ(run.counters,
              "sariadne_protocol_bloom_false_positives_total 0\n"
              "sariadne_protocol_bloom_wire_rejected_total 0\n"
              "sariadne_protocol_directories_elected_total 5\n"
              "sariadne_protocol_duplicates_dropped_total 158\n"
              "sariadne_protocol_elections_started_total 5\n"
              "sariadne_protocol_forwards_total 27\n"
              "sariadne_protocol_forwards_saved_exact_total 0\n"
              "sariadne_protocol_handovers_total 1\n"
              "sariadne_protocol_malformed_publishes_total 0\n"
              "sariadne_protocol_malformed_requests_total 0\n"
              "sariadne_protocol_pending_reaped_total 2\n"
              "sariadne_protocol_publish_nacks_total 0\n"
              "sariadne_protocol_publishes_acked_total 4\n"
              "sariadne_protocol_publishes_expired_total 0\n"
              "sariadne_protocol_publishes_retried_total 2\n"
              "sariadne_protocol_requests_expired_total 0\n"
              "sariadne_protocol_requests_issued_total 16\n"
              "sariadne_protocol_requests_retried_total 10\n"
              "sariadne_protocol_requests_satisfied_total 16\n"
              "sariadne_protocol_requests_unsatisfied_total 0\n"
              "sariadne_protocol_responses_total 16\n"
              "sariadne_protocol_summary_bytes_sent_total 5304\n"
              "sariadne_protocol_summary_delta_pushes_total 0\n"
              "sariadne_protocol_summary_pull_replies_total 8\n"
              "sariadne_protocol_summary_pulls_total 10\n"
              "sariadne_protocol_summary_pushes_total 31\n"
              "sariadne_sim_broadcasts_total 231\n"
              "sariadne_sim_bytes_transmitted_total 113070\n"
              "sariadne_sim_deliveries_total 2220\n"
              "sariadne_sim_deliveries_total{type=\"dir-adv\"} 2016\n"
              "sariadne_sim_deliveries_total{type=\"elect-appoint\"} 4\n"
              "sariadne_sim_deliveries_total{type=\"elect-call\"} 19\n"
              "sariadne_sim_deliveries_total{type=\"elect-cand\"} 16\n"
              "sariadne_sim_deliveries_total{type=\"fwd\"} 21\n"
              "sariadne_sim_deliveries_total{type=\"fwd-resp\"} 19\n"
              "sariadne_sim_deliveries_total{type=\"handover\"} 1\n"
              "sariadne_sim_deliveries_total{type=\"pub\"} 35\n"
              "sariadne_sim_deliveries_total{type=\"pub-ack\"} 4\n"
              "sariadne_sim_deliveries_total{type=\"req\"} 26\n"
              "sariadne_sim_deliveries_total{type=\"resp\"} 18\n"
              "sariadne_sim_deliveries_total{type=\"summary-pull\"} 9\n"
              "sariadne_sim_deliveries_total{type=\"summary-push\"} 32\n"
              "sariadne_sim_dropped_unreachable_total 7\n"
              "sariadne_sim_faults_crashes_total 2\n"
              "sariadne_sim_faults_dropped_total 236\n"
              "sariadne_sim_faults_duplicated_total 158\n"
              "sariadne_sim_faults_recoveries_total 2\n"
              "sariadne_sim_link_transmissions_total 2404\n"
              "sariadne_sim_unicasts_total 204\n");
}

TEST(TrafficGolden, IntervalBackendFireAndForgetUnderFaults) {
    const GoldenRun run =
        run_golden(summary::SummaryBackend::kInterval, /*acked=*/false);
    const net::TrafficStats& t = run.traffic;
    EXPECT_EQ(t.unicasts, 229u);
    EXPECT_EQ(t.broadcasts, 264u);
    EXPECT_EQ(t.deliveries, 2469u);
    EXPECT_EQ(t.link_transmissions, 2680u);
    EXPECT_EQ(t.bytes_transmitted, 115267u);
    EXPECT_EQ(t.dropped_unreachable, 8u);
    EXPECT_EQ(t.faults_dropped, 260u);
    EXPECT_EQ(t.faults_duplicated, 177u);
    EXPECT_EQ(t.faults_crashes, 2u);
    EXPECT_EQ(t.faults_recoveries, 2u);
    EXPECT_EQ(run.counters,
              "sariadne_protocol_bloom_false_positives_total 0\n"
              "sariadne_protocol_bloom_wire_rejected_total 0\n"
              "sariadne_protocol_directories_elected_total 6\n"
              "sariadne_protocol_duplicates_dropped_total 177\n"
              "sariadne_protocol_elections_started_total 4\n"
              "sariadne_protocol_forwards_total 31\n"
              "sariadne_protocol_forwards_saved_exact_total 2\n"
              "sariadne_protocol_handovers_total 1\n"
              "sariadne_protocol_malformed_publishes_total 0\n"
              "sariadne_protocol_malformed_requests_total 0\n"
              "sariadne_protocol_pending_reaped_total 3\n"
              "sariadne_protocol_publish_nacks_total 0\n"
              "sariadne_protocol_publishes_acked_total 0\n"
              "sariadne_protocol_publishes_expired_total 0\n"
              "sariadne_protocol_publishes_retried_total 0\n"
              "sariadne_protocol_requests_expired_total 0\n"
              "sariadne_protocol_requests_issued_total 16\n"
              "sariadne_protocol_requests_retried_total 12\n"
              "sariadne_protocol_requests_satisfied_total 16\n"
              "sariadne_protocol_requests_unsatisfied_total 0\n"
              "sariadne_protocol_responses_total 16\n"
              "sariadne_protocol_summary_bytes_sent_total 4671\n"
              "sariadne_protocol_summary_delta_pushes_total 6\n"
              "sariadne_protocol_summary_pull_replies_total 13\n"
              "sariadne_protocol_summary_pulls_total 16\n"
              "sariadne_protocol_summary_pushes_total 41\n"
              "sariadne_sim_broadcasts_total 264\n"
              "sariadne_sim_bytes_transmitted_total 115267\n"
              "sariadne_sim_deliveries_total 2469\n"
              "sariadne_sim_deliveries_total{type=\"dir-adv\"} 2238\n"
              "sariadne_sim_deliveries_total{type=\"elect-appoint\"} 4\n"
              "sariadne_sim_deliveries_total{type=\"elect-call\"} 16\n"
              "sariadne_sim_deliveries_total{type=\"elect-cand\"} 14\n"
              "sariadne_sim_deliveries_total{type=\"fwd\"} 28\n"
              "sariadne_sim_deliveries_total{type=\"fwd-resp\"} 26\n"
              "sariadne_sim_deliveries_total{type=\"handover\"} 1\n"
              "sariadne_sim_deliveries_total{type=\"pub\"} 31\n"
              "sariadne_sim_deliveries_total{type=\"pub-batch\"} 1\n"
              "sariadne_sim_deliveries_total{type=\"req\"} 27\n"
              "sariadne_sim_deliveries_total{type=\"resp\"} 18\n"
              "sariadne_sim_deliveries_total{type=\"summary-bitmap\"} 45\n"
              "sariadne_sim_deliveries_total{type=\"summary-delta\"} 4\n"
              "sariadne_sim_deliveries_total{type=\"summary-pull\"} 16\n"
              "sariadne_sim_dropped_unreachable_total 8\n"
              "sariadne_sim_faults_crashes_total 2\n"
              "sariadne_sim_faults_dropped_total 260\n"
              "sariadne_sim_faults_duplicated_total 177\n"
              "sariadne_sim_faults_recoveries_total 2\n"
              "sariadne_sim_link_transmissions_total 2680\n"
              "sariadne_sim_unicasts_total 229\n");
}

}  // namespace
}  // namespace sariadne::ariadne
