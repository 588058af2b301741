/**
 * @file
 * Concurrent shape-check driver: runs every experiment bench as a
 * child process across the shared thread pool, scans each one's
 * [shape] assertions, and prints a pass/fail summary. One command now
 * answers "do all the paper's qualitative claims still hold", and on a
 * multi-core box the suite's wall time is set by the slowest bench
 * rather than the sum.
 *
 *   $ ./bench_all            # all benches, FS_THREADS-wide
 *   $ ./bench_all fig5 fault # only benches whose name matches a filter
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "util/parallel.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

/** Experiment benches, in rough paper order. bench_micro_runtime is
 *  excluded: it is a google-benchmark timing harness with no [shape]
 *  assertions, and its measurements would be skewed by co-running. */
const char *const kBenches[] = {
    "bench_table1_monitor_power",
    "bench_fig1_ro_frequency",
    "bench_fig3_sensitivity",
    "bench_fig4_interpolation",
    "bench_table2_soc_overhead",
    "bench_table3_design_space",
    "bench_fig5_pareto_90nm",
    "bench_fig6_pareto_tech",
    "bench_fig7_temperature",
    "bench_table4_system",
    "bench_fig8_system_impact",
    "bench_scaling_technology",
    "bench_ablation_divider",
    "bench_ablation_duty_cycle",
    "bench_ablation_interpolation",
    "bench_ablation_checkpoint_strategy",
    "bench_ablation_adaptive_enrollment",
    "bench_montecarlo_variation",
    "bench_workload_overhead",
    "bench_fault_torture",
    "bench_discussion_capacitor",
    "bench_discussion_environments",
    "bench_runtime_policies",
    "bench_fs_lint",
};

struct BenchRun {
    std::string name;
    bool ran = false;
    int exitCode = -1;
    double seconds = 0.0;
    int shapeHolds = 0;
    int shapeFails = 0;
    std::vector<std::string> failLines;
};

std::string
dirOf(const char *argv0)
{
    const char *slash = std::strrchr(argv0, '/');
    if (!slash)
        return ".";
    return std::string(argv0, std::size_t(slash - argv0));
}

BenchRun
runOne(const std::string &dir, const std::string &name)
{
    BenchRun run;
    run.name = name;
    const std::string path = dir + "/" + name;
    if (::access(path.c_str(), X_OK) != 0)
        return run;
    fs::util::Timer timer;
    FILE *pipe = ::popen((path + " 2>&1").c_str(), "r");
    if (!pipe)
        return run;
    run.ran = true;
    std::string line;
    char buf[512];
    while (std::fgets(buf, sizeof buf, pipe)) {
        line = buf;
        if (line.find("[shape]") == std::string::npos)
            continue;
        if (line.find("HOLDS") != std::string::npos) {
            ++run.shapeHolds;
        } else if (line.find("FAILS") != std::string::npos) {
            ++run.shapeFails;
            if (!line.empty() && line.back() == '\n')
                line.pop_back();
            run.failLines.push_back(line);
        }
    }
    const int status = ::pclose(pipe);
    run.exitCode = status < 0 ? status : WEXITSTATUS(status);
    run.seconds = timer.seconds();
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace fs;

    const std::string dir = dirOf(argv[0]);
    std::vector<std::string> names;
    for (const char *bench : kBenches) {
        if (argc <= 1) {
            names.push_back(bench);
            continue;
        }
        for (int i = 1; i < argc; ++i) {
            if (std::strstr(bench, argv[i])) {
                names.push_back(bench);
                break;
            }
        }
    }

    util::ThreadPool &pool = util::ThreadPool::shared();
    std::printf("running %zu benches on %zu thread%s from %s\n\n",
                names.size(), pool.threadCount(),
                pool.threadCount() == 1 ? "" : "s", dir.c_str());

    util::Timer timer;
    const std::vector<BenchRun> runs = pool.parallelMap(
        names.size(),
        [&](std::size_t i) { return runOne(dir, names[i]); });
    const double elapsed = timer.seconds();

    TablePrinter table;
    table.columns({"bench", "status", "shape checks", "seconds"});
    int failures = 0;
    double serial_seconds = 0.0;
    for (const BenchRun &run : runs) {
        std::string status, checks;
        if (!run.ran) {
            status = "MISSING";
            ++failures;
        } else if (run.exitCode != 0 || run.shapeFails > 0) {
            status = "FAIL";
            ++failures;
        } else {
            status = "ok";
        }
        checks = std::to_string(run.shapeHolds) + "/" +
                 std::to_string(run.shapeHolds + run.shapeFails);
        table.row(run.name, status, checks,
                  TablePrinter::num(run.seconds, 2));
        serial_seconds += run.seconds;
    }
    table.print(std::cout);

    for (const BenchRun &run : runs)
        for (const std::string &line : run.failLines)
            std::printf("%s: %s\n", run.name.c_str(), line.c_str());

    std::printf("\n%zu benches, %d failure%s, %.1f s wall "
                "(%.1f s of bench time)\n",
                runs.size(), failures, failures == 1 ? "" : "s",
                elapsed, serial_seconds);
    return failures == 0 ? 0 : 1;
}
