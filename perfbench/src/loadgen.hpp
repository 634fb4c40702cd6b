// Open-loop load against the daemon. Every operation has a scheduled send
// time fixed in advance (Poisson arrivals at a given rate); one sender
// thread writes each operation when it falls due, whatever the replies
// are doing, and one receiver thread per connection takes replies,
// checks each against its reference answer and stamps it. Latency runs
// from the scheduled time, so a stall in the daemon is charged to every
// request it delays. Each phase is bracketed by /metrics scrapes and
// /proc CPU reads of the daemon so client counts can be cross-checked
// against the daemon's own.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "daemon.hpp"
#include "docs.hpp"
#include "support/rng.hpp"

namespace perfbench {

enum class OpKind : std::uint8_t { kQuery, kPublish };

struct Op {
    std::int64_t due_ns = 0;  ///< relative to the phase start
    std::uint32_t doc = 0;    ///< request index (query) or service index
    OpKind kind = OpKind::kQuery;
};

/// Picks the document of the next operation.
struct OpMix {
    std::size_t query_docs = 0;      ///< queries draw uniformly from these
    std::size_t publish_docs = 0;    ///< publishes draw uniformly from these
    double publish_share = 0;        ///< share of operations that publish
};

/// Poisson arrivals at `rate` per second for `seconds`.
std::vector<Op> make_ops(const OpMix& mix, double rate, double seconds, sariadne::Rng& rng);

enum class Status : std::uint8_t { kPending, kOk, kWrong, kNack };

/// What one phase observed.
struct PhaseOutcome {
    std::vector<Op> ops;
    std::vector<std::int64_t> sent_ns;  ///< absolute, per op
    std::vector<std::int64_t> done_ns;  ///< absolute, per op (0 = no reply)
    std::vector<Status> status;
    std::int64_t start_ns = 0;          ///< absolute time of op due 0

    std::uint64_t failed = 0;
    std::uint64_t wrong = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t nacks = 0;
    std::uint64_t malformed = 0;  ///< undecodable, unexpected or unmatched frames
    bool connection_dropped = false;
    std::vector<std::string> count_mismatches;

    std::vector<double> query_us;    ///< scheduled -> reply, successful queries
    std::vector<double> publish_us;  ///< scheduled -> ack, successful publishes
    std::vector<double> lag_us;      ///< scheduled -> written, every op
    double wall_s = 0;               ///< first due -> last reply
    double daemon_cpu_us = 0;        ///< daemon utime+stime over the phase
    std::map<std::string, double> metrics_delta;  ///< daemon counter deltas

    double send_lag_p99_us() const;
    /// True when the generator kept to its schedule (send lag p99 within
    /// kMaxSendLagP99Us) in at least a quarter of the phase's windows —
    /// the windows the latency figures are read from.
    bool on_schedule() const;
};

class OpenLoop {
public:
    /// Independent clients, each with its own connection; operation k
    /// goes out on connection k mod kConnections.
    static constexpr std::size_t kConnections = 2;

    /// Pre-frames every request and service document once; each send only
    /// patches the operation id into a copy.
    OpenLoop(DaemonProcess& daemon, const DocSet& docs);

    /// Runs `ops` against the daemon. Replies still missing `grace_s` after
    /// the last scheduled send count as timeouts.
    PhaseOutcome run(std::vector<Op> ops, double grace_s);

    /// Placements each phase cycles through in equal slices of its
    /// schedule, moving the daemon's reactor thread and the calling
    /// (generator) thread; empty for no pinning.
    void rotate_cpus(std::vector<CpuPlan> plans) { plans_ = std::move(plans); }

private:
    struct Template {
        std::vector<std::uint8_t> bytes;
        std::size_t id_offset = 0;
    };

    DaemonProcess& daemon_;
    const DocSet& docs_;
    std::vector<Template> query_frames_;
    std::vector<Template> publish_frames_;
    std::uint64_t next_id_base_ = 0;
    std::vector<CpuPlan> plans_;
};

/// Share of query operations whose document repeats one of the previous
/// `window` queries' documents.
double doc_reuse_share(const std::vector<Op>& ops, std::size_t window);

}  // namespace perfbench
