// Shared vocabulary of the perfbench runner: options, clocks, percentile
// helpers, the result record every workload fills, and the generated
// document set with its reference answers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/// Fixed settings of the §5 universe shared by every workload: 22
/// ontologies of 30 classes, generated from the daemon's default seed.
inline constexpr std::size_t kUniverse = 22;
inline constexpr std::size_t kClasses = 30;
inline constexpr std::uint64_t kUniverseSeed = 20060426;

/// The p99 limit goodput is defined against, and the largest generator
/// lag (as p99) a measured phase tolerates before it is declared invalid.
inline constexpr double kP99LimitUs = 5000.0;
inline constexpr double kMaxSendLagP99Us = 100.0;

/// Measured phases are summarized per window of this length (see
/// windowed_quantiles in daemon_workloads.cpp).
inline constexpr double kWindowNs = 0.25e9;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string daemon;       ///< path of the built sariadne_daemon
    std::string result_path;  ///< prefix of the span files a traced run writes
};

/// p-quantile (0..1) by nearest rank; 0 for an empty sample. Sorts.
inline double quantile(std::vector<double>& values, double q) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
    return values[std::min(rank, values.size() - 1)];
}

inline double median(std::vector<double> values) { return quantile(values, 0.5); }

/// One reported number: value, unit and how many samples it summarizes.
struct Metric {
    double value = 0;
    std::string unit;
    std::uint64_t samples = 0;
};

/// Everything a workload run reports. `metrics` holds every named number
/// (end-to-end and per-layer); run.py selects the ones BENCHMARK.json
/// lists for the requested trace mode.
struct RunResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t wrong_answers = 0;
    bool valid = true;
    std::vector<std::string> notes;
    std::map<std::string, Metric> metrics;

    void set(const std::string& name, double value, const std::string& unit,
             std::uint64_t samples) {
        metrics[name] = Metric{value, unit, samples};
    }
    void note(std::string text) { notes.push_back(std::move(text)); }
};

std::string to_json(const RunResult& result, const Options& options);

/// CPUs of the calling thread's affinity mask, in ascending order.
std::vector<int> allowed_cpus();

/// Where the daemon's reactor and the load generator run: two different
/// CPUs, so the scheduler never puts both busy threads on one.
struct CpuPlan {
    int daemon = -1;
    int generator = -1;
};
/// One placement per allowed CPU, each shifted one CPU on from the last:
/// with CPUs A0..An-1, slice k runs the daemon on A(k+1) and the
/// generator on A(k+2) (indices mod n). On a shared host the CPUs run at
/// different speeds (their neighbours differ), so a phase cycles through
/// every placement rather than reporting whichever CPUs it landed on.
/// Empty when fewer than three CPUs are allowed.
std::vector<CpuPlan> cpu_rotation();
/// Pins thread `tid` (0: the calling thread) to `cpu`; no-op for -1.
void pin_to_cpu(int cpu, int tid = 0);

/// Reads utime+stime of a process (all threads) in microseconds.
double process_cpu_us(int pid);
/// VmHWM of a process in MiB.
double process_peak_rss_mb(int pid);

}  // namespace perfbench
