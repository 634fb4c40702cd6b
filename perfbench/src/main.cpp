// sariadne_perfbench — runs one benchmark workload and prints every metric
// it measured as one JSON line. run.py builds this binary and the daemon,
// calls it, and reduces its output to the BENCHMARK.json contract.
//
// Usage:
//   sariadne_perfbench --workload W --seed S --seconds T --trace 0|1
//                      --daemon PATH [--out PREFIX]
//
// W is query_hot, query_cold, publish_churn or backbone_route. PREFIX,
// when given, is where traced runs write their span files.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
    perfbench::Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            options.trace = value == "1";
        } else if (flag == "--daemon") {
            options.daemon = value;
        } else if (flag == "--out") {
            options.result_path = value;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            return 2;
        }
    }
    try {
        const perfbench::RunResult result =
            options.workload == "backbone_route" ? perfbench::run_backbone(options)
                                                 : perfbench::run_daemon_workload(options);
        std::printf("%s\n", perfbench::to_json(result, options).c_str());
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "sariadne_perfbench: %s\n", error.what());
        return 1;
    }
}
