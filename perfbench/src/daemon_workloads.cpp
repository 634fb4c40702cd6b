// query_hot, query_cold and publish_churn: set-up, the fixed-rate phase,
// the goodput search and (traced runs) the in-process replay.
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>

#include <sys/socket.h>

#include "ariadne/wire.hpp"
#include "daemon.hpp"
#include "docs.hpp"
#include "loadgen.hpp"
#include "replay.hpp"
#include "support/hash.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sariadne;
namespace wire = sariadne::ariadne::wire;

namespace {

struct Spec {
    std::size_t services = 0;
    std::size_t request_docs = 0;  ///< 0 = one matching request per service
    double publish_share = 0;
    double rate = 0;               ///< fixed offered rate, ops/s
};

Spec spec_for(const std::string& workload) {
    if (workload == "query_hot") return {500, 64, 0.0, 25000};
    if (workload == "query_cold") return {20000, 0, 0.0, 7000};
    if (workload == "publish_churn") return {2000, 64, 0.5, 15000};
    throw std::runtime_error("unknown workload " + workload);
}

/// Publishes every service with pub-batch frames of at most 256 KiB, each
/// sent once the previous one is fully acknowledged (so the daemon never
/// buffers more than one frame of the load and its peak memory does not
/// depend on timing).
void warm(DaemonProcess& daemon, const DocSet& docs) {
    Connection conn(daemon.port());
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[1 << 16];
    const auto await_acks = [&](std::size_t count) {
        std::size_t acked = 0;
        while (acked < count) {
            std::size_t pos = 0;
            while (buf.size() - pos >= 4) {
                const std::uint32_t len = read_le32(buf.data() + pos);
                if (buf.size() - pos - 4 < len) break;
                const auto decoded = wire::try_decode({buf.data() + pos + 4, len});
                pos += 4 + len;
                if (!decoded) throw std::runtime_error("malformed frame while warming");
                if (decoded.value().type == wire::MsgType::kPubAck) ++acked;
                if (decoded.value().type == wire::MsgType::kPubNack) {
                    throw std::runtime_error("daemon refused a service while warming");
                }
            }
            buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(pos));
            if (acked == count) break;
            const ssize_t got = ::recv(conn.fd(), chunk, sizeof(chunk), 0);
            if (got <= 0) throw std::runtime_error("daemon closed the connection while warming");
            buf.insert(buf.end(), chunk, chunk + got);
        }
    };
    wire::PublishBatch batch;
    std::size_t batch_bytes = 0;
    const auto flush = [&] {
        if (batch.docs.empty()) return;
        const std::size_t count = batch.docs.size();
        const auto framed = frame(wire::encode({wire::MsgType::kPublishBatch, std::move(batch)}));
        conn.send_all(framed.data(), framed.size());
        await_acks(count);
        batch = {};
        batch_bytes = 0;
    };
    for (std::size_t i = 0; i < docs.services.size(); ++i) {
        batch.docs.push_back(wire::PublishDoc{docs.services[i], i + 1});
        batch_bytes += docs.services[i].size() + 16;
        if (batch_bytes > (256u << 10)) flush();
    }
    flush();
}

/// Waits until the daemon stops burning CPU (a failed probe leaves it
/// draining a backlog for connections that are already closed).
void wait_idle(const DaemonProcess& daemon) {
    double last = process_cpu_us(daemon.pid());
    for (int i = 0; i < 100; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        const double now = process_cpu_us(daemon.pid());
        if (now - last < 1500) return;
        last = now;
    }
}

double p99_all(const PhaseOutcome& phase) {
    std::vector<double> all = phase.query_us;
    all.insert(all.end(), phase.publish_us.begin(), phase.publish_us.end());
    return quantile(all, 0.99);
}

/// Adds the outcome's failures to the result (with a note per kind).
void account(RunResult& result, const PhaseOutcome& phase, const char* label) {
    result.attempted += phase.ops.size();
    result.failed += phase.failed;
    result.wrong_answers += phase.wrong;
    const auto note_count = [&](std::uint64_t n, const char* what) {
        if (n > 0) result.note(std::string(label) + ": " + std::to_string(n) + " " + what);
    };
    note_count(phase.wrong, "wrong answers");
    note_count(phase.timeouts, "replies missing");
    note_count(phase.nacks, "publish nacks");
    note_count(phase.malformed, "malformed or unexpected frames");
    if (phase.connection_dropped) result.note(std::string(label) + ": connection dropped");
    for (const auto& mismatch : phase.count_mismatches) {
        result.note(std::string(label) + ": " + mismatch);
    }
}

/// Runs a fixed-rate phase. A measured phase whose generator fell behind
/// its schedule (see PhaseOutcome::on_schedule) is run again once, and the
/// run is flagged invalid if it falls behind again.
PhaseOutcome fixed_phase(OpenLoop& load, const DaemonProcess& daemon, const OpMix& mix,
                         double rate, double seconds, std::uint64_t salt,
                         RunResult& result, const char* label, bool measured = true) {
    for (int attempt = 0;; ++attempt) {
        Rng rng(mix64(salt + static_cast<std::uint64_t>(attempt)));
        PhaseOutcome phase = load.run(make_ops(mix, rate, seconds, rng), 1.0);
        if (!measured) {
            account(result, phase, label);
            return phase;
        }
        if (phase.on_schedule() || attempt == 1) {
            if (!phase.on_schedule()) {
                result.valid = false;
                result.note(std::string(label) + ": generator fell behind, send lag p99 " +
                            std::to_string(phase.send_lag_p99_us()) + " us");
            }
            account(result, phase, label);
            return phase;
        }
        result.note(std::string(label) + ": generator fell behind, phase repeated");
        wait_idle(daemon);
    }
}

/// p50 and p99 latency of one operation kind, taken per quarter-second
/// window of the phase and reported as the lower quartile across windows:
/// the latency of the phase's quiet stretches. Interference from outside
/// the benchmark (other tenants of a shared machine stealing CPU) inflates
/// some windows by orders of magnitude, at times most of a phase's; a
/// change to the code moves every window. Also returns the sample count.
std::tuple<double, double, std::uint64_t> windowed_quantiles(const PhaseOutcome& phase, OpKind kind) {
    std::vector<std::vector<double>> windows;
    std::uint64_t samples = 0;
    for (std::size_t k = 0; k < phase.ops.size(); ++k) {
        if (phase.ops[k].kind != kind || phase.status[k] != Status::kOk) continue;
        const auto w = static_cast<std::size_t>(static_cast<double>(phase.ops[k].due_ns) / kWindowNs);
        if (windows.size() <= w) windows.resize(w + 1);
        windows[w].push_back(static_cast<double>(phase.done_ns[k] - phase.start_ns - phase.ops[k].due_ns) / 1e3);
        ++samples;
    }
    std::vector<double> p50s;
    std::vector<double> p99s;
    for (auto& window : windows) {
        if (window.size() < 100) continue;  // a p99 needs samples beyond it
        p50s.push_back(quantile(window, 0.5));
        p99s.push_back(quantile(window, 0.99));
    }
    return {quantile(p50s, 0.25), quantile(p99s, 0.25), samples};
}

/// Client-side and daemon-counter metrics of one measured phase.
void report_phase(RunResult& result, const PhaseOutcome& phase) {
    const double ops = static_cast<double>(std::max<std::size_t>(phase.ops.size(), 1));
    const auto& d = phase.metrics_delta;
    const auto counter = [&](const char* name) {
        const auto it = d.find(name);
        return it == d.end() ? 0.0 : it->second;
    };
    const auto [q50, q99, queries] = windowed_quantiles(phase, OpKind::kQuery);
    const auto [p50, p99, publishes] = windowed_quantiles(phase, OpKind::kPublish);
    result.set("query_p50_us", q50, "us", queries);
    result.set("query_p99_us", q99, "us", queries);
    result.set("bench.publish_p50_us", p50, "us", publishes);
    result.set("bench.publish_p99_us", p99, "us", publishes);
    const double bytes_in = counter("sariadne_transport_bytes_received_total");
    const double bytes_out = counter("sariadne_transport_bytes_sent_total");
    result.set("bytes_per_op", (bytes_in + bytes_out) / ops, "B", phase.ops.size());
    result.set("net.bytes_out_per_op", bytes_out / ops, "B", phase.ops.size());
    result.set("net.backpressure_drops", counter("sariadne_transport_backpressure_drops_total"),
               "count", phase.ops.size());
    result.set("cpu_us_per_op", phase.daemon_cpu_us / ops, "us", phase.ops.size());
    result.set("net.daemon_cpu_us_per_op", phase.daemon_cpu_us / ops, "us", phase.ops.size());
    const double deliveries = counter("sariadne_transport_frames_received_total");
    result.set("net.sim_deliveries_per_s", deliveries / std::max(phase.wall_s, 1e-9), "1/s",
               static_cast<std::uint64_t>(deliveries));
    result.set("net.sim_deliveries_per_req", deliveries / ops, "count",
               static_cast<std::uint64_t>(deliveries));
    result.set("bench.send_lag_p99_us", phase.send_lag_p99_us(), "us", phase.ops.size());
    result.set("bench.doc_reuse_share", doc_reuse_share(phase.ops, 512), "ratio", queries);
    std::vector<double> wait;
    for (std::size_t k = 0; k < phase.ops.size(); ++k) {
        if (phase.status[k] == Status::kOk) {
            wait.push_back(static_cast<double>(phase.done_ns[k] - phase.sent_ns[k]) / 1e3);
        }
    }
    result.set("bench.sent_to_reply_p50_us", quantile(wait, 0.5), "us", wait.size());
    result.set("bench.offered_ops_per_s", ops / std::max(phase.wall_s, 1e-9), "1/s",
               phase.ops.size());
}

/// Bisects (geometrically) for the highest offered rate whose probe meets
/// the p99 limit with every reply back and no count mismatch, and returns
/// the rate that probe achieved (completions per second). Wrong answers
/// do not fail a probe: they depend on which documents a probe draws, not
/// on the rate, and they already fail the run.
double search_goodput(OpenLoop& load, const DaemonProcess& daemon, const OpMix& mix,
                      double fixed_rate, bool fixed_passed, double budget_s,
                      std::uint64_t salt, RunResult& result) {
    constexpr double kProbeSeconds = 0.4;
    double lo = fixed_passed ? fixed_rate : fixed_rate / 8;
    double hi = fixed_passed ? fixed_rate * 4 : fixed_rate;
    double achieved = 0;
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
    int probes = 0;
    while (probes < 4 || now_ns() + static_cast<std::int64_t>(kProbeSeconds * 1.5e9) < end) {
        const double rate = std::sqrt(lo * hi);
        Rng rng(mix64(salt + static_cast<std::uint64_t>(probes)));
        const PhaseOutcome probe = load.run(make_ops(mix, rate, kProbeSeconds, rng), 0.2);
        ++probes;
        result.failed += probe.wrong;
        result.wrong_answers += probe.wrong;
        result.attempted += probe.wrong;
        const bool pass = probe.failed == probe.wrong && p99_all(probe) <= kP99LimitUs &&
                          probe.send_lag_p99_us() <= kMaxSendLagP99Us;
        if (pass) {
            lo = rate;
            achieved = static_cast<double>(probe.ops.size()) / probe.wall_s;
        } else {
            hi = rate;
        }
        wait_idle(daemon);
    }
    result.set("bench.goodput_probes", probes, "count", static_cast<std::uint64_t>(probes));
    return achieved;
}

std::vector<std::size_t> request_indices(const Spec& spec, std::uint64_t seed) {
    if (spec.request_docs != 0) return sample_indices(seed, spec.services, spec.request_docs);
    std::vector<std::size_t> all(spec.services);
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
}

}  // namespace

RunResult run_daemon_workload(const Options& options) {
    const Spec spec = spec_for(options.workload);
    RunResult result;
    const std::vector<CpuPlan> cpus = cpu_rotation();
    const CpuPlan first = cpus.empty() ? CpuPlan{} : cpus.front();
    pin_to_cpu(first.generator);

    std::int64_t t0 = now_ns();
    const DocSet docs = make_docs(spec.services, request_indices(spec, options.seed));
    result.set("bench.reference_s", static_cast<double>(now_ns() - t0) / 1e9, "s",
               docs.requests.size());
    const OpMix mix{docs.requests.size(), docs.services.size(), spec.publish_share};

    // Set-up is launch-to-listening plus an acknowledged bulk load; it is
    // repeated (at least five times, more while under two seconds have
    // been spent) and the median reported. The last daemon is measured.
    std::vector<double> setups;
    std::unique_ptr<DaemonProcess> daemon;
    double setup_total = 0;
    while (setups.size() < 5 || (setups.size() < 41 && setup_total < 2.0)) {
        if (daemon) {
            if (!daemon->stop()) throw std::runtime_error("daemon did not exit 0 on SIGTERM");
            daemon.reset();
        }
        t0 = now_ns();
        daemon = std::make_unique<DaemonProcess>(options.daemon, first.daemon);
        warm(*daemon, docs);
        setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        setup_total += setups.back();
    }
    result.set("setup_s", median(setups), "s", setups.size());

    OpenLoop load(*daemon, docs);
    load.rotate_cpus(cpus);
    const std::uint64_t salt = mix64(options.seed * 0x9E3779B97F4A7C15ULL + spec.services);
    fixed_phase(load, *daemon, mix, spec.rate, 1.0, salt + 100, result, "warm-up",
                false);

    if (!options.trace) {
        report_phase(result, fixed_phase(load, *daemon, mix, spec.rate, options.seconds,
                                         salt + 200, result, "fixed"));
    } else {
        // Untraced and traced phases of equal length, then the goodput
        // search with the rest of the measured time.
        const PhaseOutcome untraced = fixed_phase(
            load, *daemon, mix, spec.rate, options.seconds * 0.3, salt + 200, result, "untraced");
        const PhaseOutcome traced = fixed_phase(
            load, *daemon, mix, spec.rate, options.seconds * 0.3, salt + 400, result, "traced");
        report_phase(result, traced);

        // Client spans: scheduled -> reply, split at the actual send.
        SpanRecorder spans;
        const std::uint16_t n_request = spans.name("client.request");
        const std::uint16_t n_lag = spans.name("client.send_lag");
        const std::uint16_t n_wait = spans.name("client.wait");
        SpanRecorder replay;
        for (std::size_t k = 0; k < traced.ops.size(); ++k) {
            if (traced.status[k] != Status::kOk) continue;
            const std::int64_t due = traced.start_ns + traced.ops[k].due_ns;
            const auto parent = static_cast<std::int32_t>(spans.size());
            spans.add(Span{k, n_request, -1, due, traced.done_ns[k]});
            spans.add(Span{k, n_lag, parent, due, traced.sent_ns[k]});
            spans.add(Span{k, n_wait, parent, traced.sent_ns[k], traced.done_ns[k]});
        }
        const std::uint64_t wrong_before = result.wrong_answers;
        replay_daemon_ops(docs, traced.ops, replay, result);
        if (result.wrong_answers != wrong_before) {
            result.failed += result.wrong_answers - wrong_before;
            result.note("replay: " + std::to_string(result.wrong_answers - wrong_before) +
                        " in-process answers differ from the reference");
        }

        double staged = 0;
        for (const auto& [name, self] : replay.self_us()) {
            if (name != "op") staged += self;
        }
        const double ops = static_cast<double>(std::max<std::size_t>(traced.ops.size(), 1));
        const double cpu_per_op = traced.daemon_cpu_us / ops;
        result.set("ariadne.residual_us_per_op", cpu_per_op - staged / ops, "us",
                   traced.ops.size());
        const double traced_p50 = std::get<0>(windowed_quantiles(traced, OpKind::kQuery));
        const double untraced_p50 = std::get<0>(windowed_quantiles(untraced, OpKind::kQuery));
        result.set("bench.tracing_overhead_us", traced_p50 - untraced_p50, "us",
                   traced.query_us.size());
        if (!options.result_path.empty()) {
            spans.write_csv(options.result_path + ".client_spans.csv");
            replay.write_csv(options.result_path + ".replay_spans.csv");
        }

        const bool traced_passed = traced.failed == traced.wrong && p99_all(traced) <= kP99LimitUs;
        wait_idle(*daemon);
        result.set("goodput_ops_per_s",
                   search_goodput(load, *daemon, mix, spec.rate, traced_passed,
                                  options.seconds * 0.4, salt + 300, result),
                   "1/s", 1);
    }

    result.set("rss_mb", process_peak_rss_mb(daemon->pid()), "MB", 1);
    if (!daemon->stop()) {
        result.failed += 1;
        result.note("daemon did not exit 0 on SIGTERM");
    }
    return result;
}

}  // namespace perfbench
