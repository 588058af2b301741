/**
 * @file
 * Shape checks for the fs-lint static analyzer: every shipping
 * firmware image must certify clean, the two seeded-bug demos must be
 * flagged with the right finding, and the runtime's static commit
 * bound must sit above the dynamically measured cost but inside the
 * monitor's warning window.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/firmware_linter.h"
#include "bench_common.h"
#include "core/fs_config.h"
#include "fault/torture_rig.h"
#include "harvest/system_comparison.h"
#include "riscv/assembler.h"
#include "soc/conversion_firmware.h"
#include "soc/soc.h"
#include "util/timer.h"

int
main()
{
    using namespace fs;
    bench::banner("fs-lint",
                  "static WAR / checkpoint-reachability analysis over "
                  "all firmware images");

    // Shipping images: standard workloads + conversion routine.
    bool shippingClean = true;
    auto workloads = soc::standardWorkloads();
    {
        soc::GuestProgram conv;
        conv.name = "conversion";
        conv.code = soc::buildConversionProgram(
            soc::kCalibrationTableAddr, soc::kGuestResultAddr);
        workloads.push_back(conv);
    }
    for (const soc::GuestProgram &program : workloads) {
        const analysis::LintReport report =
            analysis::lintGuestProgram(program);
        std::printf("  %-12s %zu blocks, %zu findings, %s\n",
                    program.name.c_str(), report.blocks,
                    report.findings.size(),
                    report.clean() ? "clean" : "ERRORS");
        shippingClean = shippingClean && report.clean();
    }

    // The runtime, in the torture-rig configuration (1 KiB SRAM,
    // 1 MHz), checked against the warning window the monitor's
    // default configuration implies with 40 ms of commit headroom.
    soc::CheckpointLayout layout;
    layout.sramSize = 1024;
    const double budget =
        analysis::commitBudgetSeconds(core::FsConfig{}, 0.04);
    const analysis::LintReport runtime =
        analysis::lintCheckpointRuntime(layout, 100, budget);
    std::printf("  runtime: %llu cycles worst-case commit "
                "(budget %llu), %zu findings\n",
                static_cast<unsigned long long>(
                    runtime.worstCaseCommitCycles),
                static_cast<unsigned long long>(runtime.budgetCycles),
                runtime.findings.size());

    // Dynamic cross-check: force one real checkpoint by dropping the
    // supply under a spinning app and count the cycles until the
    // commit lands. The measurement includes the monitor's detection
    // latency, which the static budget also accounts for.
    auto monitor = harvest::makeFsLowPower();
    double supply = 3.3;
    soc::Soc soc(*monitor, [&supply](double) { return supply; },
                 layout);
    soc.loadRuntime(monitor->countThresholdFor(1.87));
    {
        riscv::Assembler as;
        const auto spinLabel = as.newLabel();
        as.bind(spinLabel);
        as.jTo(spinLabel);
        soc.loadApp(as.finalize());
    }
    soc.powerOn();
    soc.run(20'000);
    supply = 1.85; // below the checkpoint threshold
    const std::uint64_t before = soc.totalCycles();
    while (!soc.checkpointCommitted() &&
           soc.totalCycles() - before < 200'000) {
        for (int i = 0; i < 1000; ++i)
            soc.step();
    }
    const std::uint64_t commitCycles = soc.totalCycles() - before;
    std::printf("  runtime: %llu cycles measured for one commit "
                "(incl. detection latency)\n",
                static_cast<unsigned long long>(commitCycles));

    // Seeded-bug demos.
    const analysis::LintReport war =
        analysis::lintGuestProgram(soc::makeNvmAccumulateProgram(16));
    const analysis::LintReport spin =
        analysis::lintGuestProgram(soc::makeIrqOffSpinProgram());

    // Static-vs-dynamic certification across every demo image: the
    // torture rig measures each workload's real commit windows, and
    // the static bound must dominate the longest one anywhere.
    bool staticDominates = true;
    std::uint64_t worstDynamicCommit = 0;
    {
        fault::TortureConfig config;
        config.stableCycles = 60'000;
        config.lowCycles = 30'000;
        for (const soc::GuestProgram &program :
             soc::standardWorkloads()) {
            fault::TortureRig rig(program, config);
            for (std::size_t i = 0; i < rig.checkpointCount(); ++i) {
                const std::uint64_t len = rig.commitWindow(i).length();
                worstDynamicCommit =
                    std::max(worstDynamicCommit, len);
                staticDominates =
                    staticDominates &&
                    runtime.worstCaseCommitCycles >= len;
            }
        }
    }
    std::printf("  torture: %llu cycles longest dynamic commit window "
                "across all workloads\n",
                static_cast<unsigned long long>(worstDynamicCommit));

    // Fault-space grouping: the same kill campaign graded through
    // runKills() and through runKillsPruned(), which forwards to
    // runKills' exact death-image grouping without consulting the
    // static map. Verdicts must be bit-identical, and the grouping
    // must skip kills that die with the same FRAM image.
    const soc::GuestProgram prunable = soc::makeCrc32Program(2048, 11);
    const analysis::LintReport prunableLint =
        analysis::lintGuestProgram(prunable);
    fault::TortureRig rig(prunable);
    const std::uint64_t cleanCycles = rig.cleanRunCycles();
    std::vector<fault::PowerKill> kills;
    const std::uint64_t stride = cleanCycles / 64;
    for (std::uint64_t c = stride; c < cleanCycles; c += stride)
        kills.push_back(fault::PowerKill{
            c, unsigned(kills.size() % 4),
            (kills.size() % 3 == 0) ? 0xA5A5A5A5u : 0u});

    util::Timer fullTimer;
    const std::vector<fault::TortureOutcome> fullOutcomes =
        rig.runKills(kills);
    const double fullSeconds = fullTimer.seconds();

    fault::PruneStats prune;
    util::Timer prunedTimer;
    const std::vector<fault::TortureOutcome> prunedOutcomes =
        rig.runKillsPruned(kills, prunableLint.pruningMap, nullptr,
                           &prune);
    const double prunedSeconds = prunedTimer.seconds();

    bool sameVerdicts = fullOutcomes.size() == prunedOutcomes.size();
    for (std::size_t i = 0; sameVerdicts && i < fullOutcomes.size();
         ++i) {
        const fault::TortureOutcome &a = fullOutcomes[i];
        const fault::TortureOutcome &b = prunedOutcomes[i];
        sameVerdicts = a.killed == b.killed &&
                       a.killTore == b.killTore &&
                       a.validSlots == b.validSlots &&
                       a.tornSlots == b.tornSlots &&
                       a.newestSeq == b.newestSeq &&
                       a.coldRestart == b.coldRestart &&
                       a.finished == b.finished &&
                       a.resultCorrect == b.resultCorrect &&
                       a.result == b.result;
    }
    std::printf("  pruning: %zu kills, %zu replayed / %zu skipped "
                "(%zu vulnerable, %zu never fire), %.2fx\n",
                prune.totalKills, prune.executedKills,
                prune.skippedKills, prune.vulnerableKills,
                prune.neverFires,
                prunedSeconds > 0.0 ? fullSeconds / prunedSeconds
                                    : 0.0);

    bench::shapeCheck("all shipping firmware images lint clean",
                      shippingClean);
    bench::shapeCheck("runtime commit path fits the warning window",
                      runtime.clean() &&
                          runtime.worstCaseCommitCycles > 0 &&
                          runtime.worstCaseCommitCycles <=
                              runtime.budgetCycles);
    bench::shapeCheck(
        "static commit bound dominates the measured commit",
        runtime.worstCaseCommitCycles >= commitCycles);
    bool warFlagged = false;
    for (const analysis::Finding &f : war.findings)
        warFlagged = warFlagged ||
                     (f.kind == analysis::FindingKind::kWarHazard &&
                      f.severity == analysis::Severity::kError);
    bench::shapeCheck("seeded WAR accumulator is flagged as an error",
                      warFlagged);
    bool spinFlagged = false;
    for (const analysis::Finding &f : spin.findings)
        spinFlagged =
            spinFlagged ||
            f.kind == analysis::FindingKind::kCheckpointFreeCycle;
    bench::shapeCheck("irq-masked spin loop is flagged as "
                      "checkpoint-free",
                      spinFlagged);
    bench::shapeCheck("static commit bound dominates every dynamic "
                      "commit window on every demo image",
                      staticDominates && worstDynamicCommit > 0);
    bench::shapeCheck("pruned campaign verdicts identical to the "
                      "full campaign",
                      sameVerdicts && !fullOutcomes.empty());
    bench::shapeCheck("grouping skipped kills sharing a death image",
                      prune.skippedKills > 0);
    return 0;
}
