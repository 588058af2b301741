/**
 * @file
 * Power-failure torture campaign: dense kill sweeps across every
 * checkpoint's commit window plus seeded random execution-point kills,
 * each with randomized store tearing and bit noise. The paper's
 * just-in-time claim only holds if the system's answer is bit-exact no
 * matter when power dies; this campaign measures exactly that, and
 * emits a machine-readable JSON summary whose seed replays the run.
 *
 * The same kill list replays from boot (TortureRig::runKill) on the
 * interpreter and on the DBT tier (the historical "campaign" and
 * "campaign_dbt" phases), then goes through runKills(), which grades
 * each distinct death image from the golden write log with the
 * recovery memo ("fork+converge"). That path takes a few
 * milliseconds a call, so it repeats on one rig for at least half a
 * second; every call must byte-match the from-boot summary. The
 * [perf] lines print kills/sec against the from-boot DBT baseline
 * (the default path's median call) plus one call's snapshot memory,
 * and the default path asserts a >= 10x rate floor over that
 * baseline.
 *
 *   $ ./bench_fault_torture [seed]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/torture_rig.h"
#include "soc/guest_programs.h"
#include "util/env.h"
#include "util/parallel.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace fs;
using namespace fs::fault;

struct Tally {
    std::size_t points = 0;
    std::size_t killed = 0;
    std::size_t killTears = 0;
    std::size_t coldRestarts = 0;
    std::size_t fallbacks = 0;     ///< recovered from an older slot
    std::size_t freshResumes = 0;  ///< recovered from the newest slot
    std::size_t tornRestores = 0;  ///< must stay zero
    std::size_t correct = 0;
    std::size_t incorrect = 0;     ///< must stay zero
};

void
account(Tally &tally, const TortureOutcome &out,
        std::uint32_t committed_before)
{
    ++tally.points;
    tally.killed += out.killed ? 1 : 0;
    tally.killTears += out.killTore ? 1 : 0;
    tally.tornRestores += std::size_t(out.tornSlots);
    if (out.killed) {
        if (out.coldRestart)
            ++tally.coldRestarts;
        else if (out.newestSeq <= committed_before)
            ++tally.fallbacks;
        else
            ++tally.freshResumes;
    }
    tally.correct += out.resultCorrect ? 1 : 0;
    tally.incorrect += out.resultCorrect ? 0 : 1;
}

/** Campaign-level tallies (table-free), shared by both tier runs. */
void
tallyCampaign(const std::vector<TortureOutcome> &outcomes,
              const std::vector<std::size_t> &first_kill_of_window,
              std::size_t windows, std::size_t random_begin,
              Tally &window_tally, Tally &random_tally)
{
    for (std::size_t w = 0; w < windows; ++w)
        for (std::size_t k = first_kill_of_window[w];
             k < first_kill_of_window[w + 1]; ++k)
            account(window_tally, outcomes[k], std::uint32_t(w));
    // Random kills land anywhere, so "fallback vs fresh" is relative
    // to however many commits preceded the kill; count any warm
    // restore as a fallback bucket entry.
    for (std::size_t k = random_begin; k < outcomes.size(); ++k)
        account(random_tally, outcomes[k], 0xffffffffu);
}

/** Machine-readable summary; the seed replays the campaign exactly.
 *  Built as a string so the two tier runs can be byte-compared. */
std::string
summaryJson(std::uint64_t seed, const Tally &w, const Tally &r)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"seed\":%llu,\"workload\":\"crc32-4k\","
                  "\"points\":%zu,\"window_points\":%zu,"
                  "\"random_points\":%zu,\"killed\":%zu,"
                  "\"kill_tears\":%zu,\"cold_restarts\":%zu,"
                  "\"slot_fallbacks\":%zu,\"fresh_resumes\":%zu,"
                  "\"torn_restores\":%zu,\"correct\":%zu,"
                  "\"incorrect\":%zu}",
                  (unsigned long long)seed, w.points + r.points,
                  w.points, r.points, w.killed + r.killed,
                  w.killTears + r.killTears,
                  w.coldRestarts + r.coldRestarts,
                  w.fallbacks + r.fallbacks,
                  w.freshResumes + r.freshResumes,
                  w.tornRestores + r.tornRestores,
                  w.correct + r.correct, w.incorrect + r.incorrect);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t seed =
        argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 0xF5C0FFEEULL;

    bench::banner("Fault-injection torture campaign",
                  "Supply kills swept across every checkpoint commit "
                  "window and random execution points, with torn "
                  "multi-byte FRAM stores and bit noise. Crash "
                  "consistency demands a bit-exact answer every time.");

    TortureConfig config;
    config.stableCycles = 60'000;
    config.lowCycles = 30'000;
    TortureRig rig(soc::makeCrc32Program(4096, 11), config);

    std::printf("clean run: %llu cycles, %zu checkpoint commits, "
                "checkpoint threshold %.3f V\n\n",
                (unsigned long long)rig.cleanRunCycles(),
                rig.checkpointCount(), rig.checkpointVolts());

    Tally window_tally;
    TablePrinter table;
    table.columns({"commit window", "cycles", "kills", "cold starts",
                   "slot fallbacks", "torn restores", "correct"});

    // All kill parameters are drawn sequentially from the campaign
    // generator (GoldenRun::sampledKills), then the batch fans out
    // across the shared pool (FS_THREADS) and the outcomes are tallied
    // back in draw order -- so the table and JSON below are
    // bit-identical at any thread count. Phase 1 is a dense sweep
    // across every commit window (the hardest instants: power death
    // racing the checkpoint commit itself); phase 2 is seeded random
    // kills over the whole execution, large enough that the snapshot
    // campaigns below amortize their golden pass, as a real exhaustive
    // campaign would.
    constexpr std::uint32_t kRandomKills = 2000;
    const std::vector<PowerKill> kills =
        rig.golden()->sampledKills(100, kRandomKills, seed);
    const std::size_t windows = rig.checkpointCount();
    const std::size_t random_begin = kills.size() - kRandomKills;
    // Window kills ascend in cycle, window after window.
    std::vector<std::size_t> first_kill_of_window;
    for (std::size_t w = 0; w < windows; ++w)
        first_kill_of_window.push_back(std::size_t(
            std::lower_bound(kills.begin(), kills.begin() + random_begin,
                             rig.commitWindow(w).begin,
                             [](const PowerKill &k, std::uint64_t c) {
                                 return k.cycle < c;
                             }) -
            kills.begin()));
    first_kill_of_window.push_back(random_begin);

    util::ThreadPool &pool = util::ThreadPool::shared();
    const auto from_boot = [&](const TortureRig &r) {
        return pool.parallelMap(kills.size(), [&](std::size_t i) {
            return r.runKill(kills[i]);
        });
    };

    // Campaign 1: interpreter only. The kill switch must stay set for
    // the replays (every replay builds a fresh hart that reads the
    // environment at construction); an externally forced-off fast
    // path stays off for the DBT campaign too.
    const bool fast_forced_off = util::envFlag("FS_NO_TRACE_CACHE");
    setenv("FS_NO_TRACE_CACHE", "1", 1);
    util::Timer timer;
    const std::vector<TortureOutcome> outcomes = from_boot(rig);
    const double elapsed = timer.seconds();

    for (std::size_t w = 0; w < windows; ++w) {
        const CommitWindow window = rig.commitWindow(w);
        Tally tally;
        for (std::size_t k = first_kill_of_window[w];
             k < first_kill_of_window[w + 1]; ++k)
            account(tally, outcomes[k], std::uint32_t(w));
        char label[32], cycles[48], score[32];
        std::snprintf(label, sizeof label, "#%zu", w);
        std::snprintf(cycles, sizeof cycles, "%llu-%llu",
                      (unsigned long long)window.begin,
                      (unsigned long long)window.end);
        std::snprintf(score, sizeof score, "%zu/%zu", tally.correct,
                      tally.points);
        table.row(label, cycles, tally.points, tally.coldRestarts,
                  tally.fallbacks, tally.tornRestores, score);
    }
    table.print(std::cout);

    Tally random_tally;
    tallyCampaign(outcomes, first_kill_of_window, windows,
                  random_begin, window_tally, random_tally);

    // Campaign 2: the identical kill list with the DBT tier up. The
    // translation tier must not change a single outcome bit.
    if (!fast_forced_off)
        unsetenv("FS_NO_TRACE_CACHE");
    TortureRig rig_dbt(soc::makeCrc32Program(4096, 11), config);
    util::Timer timer_dbt;
    const std::vector<TortureOutcome> outcomes_dbt = from_boot(rig_dbt);
    const double elapsed_dbt = timer_dbt.seconds();

    Tally dbt_window, dbt_random;
    tallyCampaign(outcomes_dbt, first_kill_of_window, windows,
                  random_begin, dbt_window, dbt_random);

    const Tally &w = window_tally;
    const Tally &r = random_tally;
    const std::string json = summaryJson(seed, w, r);
    const std::string json_dbt =
        summaryJson(seed, dbt_window, dbt_random);

    // Campaign 3: the default runKills() path, repeated on one rig
    // (each call grades from a cold memo) until the calls add up to
    // half a second, so its median call is a stable figure. Every call
    // must reproduce the from-boot summary byte for byte.
    TortureRig rig_conv(soc::makeCrc32Program(4096, 11), config);
    std::vector<double> call_seconds;
    double total_conv = 0.0;
    std::size_t snap_mem = 0;
    bool conv_match = true;
    do {
        util::Timer timer_conv;
        const std::vector<TortureOutcome> outcomes_conv =
            rig_conv.runKills(kills, &pool);
        call_seconds.push_back(timer_conv.seconds());
        total_conv += call_seconds.back();
        if (call_seconds.size() == 1)
            snap_mem = rig_conv.snapshotMemoryBytes();
        Tally conv_window, conv_random;
        tallyCampaign(outcomes_conv, first_kill_of_window, windows,
                      random_begin, conv_window, conv_random);
        conv_match = conv_match &&
                     summaryJson(seed, conv_window, conv_random) == json;
    } while (total_conv < 0.5);
    const auto mid = call_seconds.begin() + call_seconds.size() / 2;
    std::nth_element(call_seconds.begin(), mid, call_seconds.end());
    const double elapsed_conv = *mid;

    std::printf("\nrandom phase: %zu kills, %zu fired, %zu tore a "
                "store, %zu cold starts, %zu warm restores\n",
                r.points, r.killed, r.killTears, r.coldRestarts,
                r.fallbacks);
    // [perf]-prefixed: wall-clock rates are the one output allowed to
    // vary across runs/thread counts in the determinism diffs.
    std::printf("[perf] campaign kills/sec: interp %.1f, dbt %.1f (%.2fx)\n",
                double(kills.size()) / elapsed,
                double(kills.size()) / elapsed_dbt,
                elapsed / elapsed_dbt);
    std::printf("[perf] snapshot kills/sec: fork+converge %.1f (%.2fx, "
                "median of %zu calls), %.2f MiB snapshots\n",
                double(kills.size()) / elapsed_conv,
                elapsed_dbt / elapsed_conv, call_seconds.size(),
                double(snap_mem) / (1024.0 * 1024.0));

    std::printf("\njson: %s\n", json.c_str());

    bench::paperNote("just-in-time checkpointing is only ubiquitous if "
                     "power death at any instant -- including "
                     "mid-commit -- leaves a recoverable state.");
    bench::shapeCheck("every injected kill recovered to a bit-exact "
                      "result",
                      w.incorrect + r.incorrect == 0);
    bench::shapeCheck("no restore ever came from a torn checkpoint",
                      w.tornRestores + r.tornRestores == 0);
    bench::shapeCheck("mid-commit kills fell back to the previous "
                      "valid slot",
                      w.fallbacks > 0);
    bench::shapeCheck("DBT campaign summary byte-matches the "
                      "interpreter's",
                      json == json_dbt);
    bench::shapeCheck("snapshot-fork campaigns byte-match the "
                      "replay-from-boot summary",
                      conv_match);
    // The headline claim: grading from the golden write log with the
    // recovery memo must beat replaying every kill from boot by at
    // least 10x.
    const bool floor_ok = elapsed_dbt / elapsed_conv >= 10.0;
    bench::shapeCheck("fork+converge is >= 10x the from-boot DBT rate",
                      floor_ok);
    return (w.incorrect + r.incorrect == 0 &&
            w.tornRestores + r.tornRestores == 0 && json == json_dbt &&
            conv_match && floor_ok)
               ? 0
               : 1;
}
