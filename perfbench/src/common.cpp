#include "common.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

namespace perfbench {

namespace {

std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string number(double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

}  // namespace

std::vector<int> allowed_cpus() {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    std::vector<int> allowed;
    if (::sched_getaffinity(0, sizeof(mask), &mask) != 0) return allowed;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &mask)) allowed.push_back(cpu);
    }
    return allowed;
}

std::vector<CpuPlan> cpu_rotation() {
    const std::vector<int> allowed = allowed_cpus();
    std::vector<CpuPlan> plans;
    if (allowed.size() < 3) return plans;
    for (std::size_t k = 0; k < allowed.size(); ++k) {
        plans.push_back({allowed[(k + 1) % allowed.size()], allowed[(k + 2) % allowed.size()]});
    }
    return plans;
}

void pin_to_cpu(int cpu, int tid) {
    if (cpu < 0) return;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpu, &mask);
    ::sched_setaffinity(tid, sizeof(mask), &mask);
}

std::string to_json(const RunResult& result, const Options& options) {
    std::string out = "{\"workload\": " + quoted(options.workload) +
                      ", \"seed\": " + std::to_string(options.seed) +
                      ", \"trace\": " + (options.trace ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(result.attempted) +
                      ", \"failed\": " + std::to_string(result.failed) +
                      ", \"wrong_answers\": " + std::to_string(result.wrong_answers) +
                      ", \"valid\": " + (result.valid ? "true" : "false") + ", \"notes\": [";
    for (std::size_t i = 0; i < result.notes.size(); ++i) {
        out += (i ? ", " : "") + quoted(result.notes[i]);
    }
    out += "], \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : result.metrics) {
        out += (first ? "" : ", ") + quoted(name) + ": {\"value\": " + number(metric.value) +
               ", \"unit\": " + quoted(metric.unit) +
               ", \"samples\": " + std::to_string(metric.samples) + "}";
        first = false;
    }
    return out + "}}";
}

double process_cpu_us(int pid) {
    // Summed per-thread run time from schedstat (nanoseconds); the
    // utime+stime fields of /proc/<pid>/stat count 10 ms ticks, too
    // coarse for short phases. Falls back to them without schedstat.
    const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
    double total_ns = 0;
    bool have_schedstat = false;
    if (DIR* dir = ::opendir(task_dir.c_str())) {
        while (const dirent* entry = ::readdir(dir)) {
            if (entry->d_name[0] == '.') continue;
            std::ifstream in(task_dir + "/" + entry->d_name + "/schedstat");
            double ns = 0;
            if (in >> ns) {
                total_ns += ns;
                have_schedstat = true;
            }
        }
        ::closedir(dir);
    }
    if (have_schedstat) return total_ns / 1e3;

    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    // utime and stime are the 14th and 15th fields; the command name
    // (field 2) is parenthesized and may contain spaces.
    const auto close = text.rfind(')');
    if (close == std::string::npos) return 0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double utime = 0;
    double stime = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i == 14) utime = std::stod(field);
        if (i == 15) stime = std::stod(field);
    }
    static const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
    return (utime + stime) / ticks * 1e6;
}

double process_peak_rss_mb(int pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0;
}

}  // namespace perfbench
