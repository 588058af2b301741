/**
 * @file
 * fs-lint analyzer tests: CFG recovery, the value-set/WAR/irq/budget
 * passes on hand-built firmware, certification of every shipping
 * image, and the analyzer-vs-torture agreement suite -- firmware the
 * linter certifies hazard-free must survive the seeded kill campaign
 * bit-identically at any thread count, and the deliberately seeded
 * WAR bug must be flagged statically AND diverge dynamically.
 */

#include <gtest/gtest.h>

#include "analysis/cfg.h"
#include "analysis/firmware_linter.h"
#include "core/fs_config.h"
#include "fault/torture_rig.h"
#include "harvest/system_comparison.h"
#include "riscv/assembler.h"
#include "soc/conversion_firmware.h"
#include "soc/soc.h"
#include "util/parallel.h"

namespace fs {
namespace analysis {
namespace {

using riscv::Assembler;
using namespace riscv; // register names, encoders

bool
hasFinding(const LintReport &report, FindingKind kind)
{
    for (const Finding &f : report.findings)
        if (f.kind == kind)
            return true;
    return false;
}

// ---------------------------------------------------------------------
// CFG recovery
// ---------------------------------------------------------------------

TEST(Cfg, RecoversBlocksCallsAndReturns)
{
    Assembler as(0x1000);
    const auto sub = as.newLabel();
    const auto over = as.newLabel();
    as.li(kA0, 1);             // entry block
    as.jalTo(kRa, sub);        // call: fallthrough edge + callTarget
    as.jTo(over);              // jump over the callee body
    as.bind(sub);
    as.emit(addi(kA0, kA0, 1));
    as.emit(jalr(kZero, kRa, 0)); // return
    as.bind(over);
    as.emit(jalr(kZero, kRa, 0));

    const Cfg cfg = Cfg::build(as.finalize(), 0x1000, {0x1000});
    ASSERT_GE(cfg.blocks().size(), 4u);

    const std::size_t callBlock = cfg.blockAt(0x1004);
    ASSERT_NE(callBlock, kNoBlock);
    const std::size_t subBlock =
        cfg.blockAt(as.labelAddress(sub));
    EXPECT_EQ(cfg.blocks()[callBlock].callTarget, subBlock);
    EXPECT_TRUE(cfg.blocks()[subBlock].isReturn);
    // The call's static successor is the fallthrough, not the callee.
    ASSERT_EQ(cfg.blocks()[callBlock].succs.size(), 1u);
}

TEST(Cfg, LoopsFormSccsAndMarkEndsBlocks)
{
    Assembler as(0);
    const auto loop = as.newLabel();
    as.li(kT0, 8);
    as.bind(loop);
    as.emit(fsMark());
    as.emit(addi(kT0, kT0, -1));
    as.bneTo(kT0, kZero, loop);
    as.emit(jalr(kZero, kRa, 0));

    const Cfg cfg = Cfg::build(as.finalize(), 0, {0});
    const std::size_t markBlock =
        cfg.blockAt(as.labelAddress(loop));
    ASSERT_NE(markBlock, kNoBlock);
    EXPECT_TRUE(cfg.blocks()[markBlock].endsInMark);
    EXPECT_TRUE(cfg.inCycle(markBlock));
    // The entry block is not on the cycle.
    EXPECT_FALSE(cfg.inCycle(cfg.blockAt(0)));
}

TEST(Cfg, IndirectJumpThroughTableHasNoStaticSuccessor)
{
    // A jump through a table: the target is loaded from memory, so
    // `jalr x0, t0, 0` has no statically known successor. The block
    // must end there (no invented edges) and the linter must stay
    // conservative instead of crashing.
    Assembler as(0x1000);
    as.li(kT0, std::int32_t(soc::kFramBase + 0x200));
    as.emit(lw(kT0, kT0, 0));
    as.emit(jalr(kZero, kT0, 0)); // indirect jump, not a return
    as.emit(addi(kA0, kA0, 1));   // only reachable via the table
    as.emit(jalr(kZero, kRa, 0));

    const std::vector<Word> code = as.finalize();
    const Cfg cfg = Cfg::build(code, 0x1000, {0x1000});
    const std::size_t jump = cfg.blockAt(0x1000);
    ASSERT_NE(jump, kNoBlock);
    EXPECT_FALSE(cfg.blocks()[jump].isReturn);
    EXPECT_TRUE(cfg.blocks()[jump].succs.empty());
    EXPECT_EQ(cfg.blocks()[jump].callTarget, kNoBlock);

    const FirmwareLinter linter;
    const LintReport report = linter.lint("jalr-table", code, 0x1000);
    EXPECT_TRUE(report.clean()) << report.text();
}

TEST(Cfg, CallToImageEndIsHandled)
{
    // A `jal` whose target is one past the last instruction: the
    // callee body is empty, which discovery and the interprocedural
    // summaries must survive without inventing blocks.
    Assembler as(0x1000);
    const auto end = as.newLabel();
    as.jalTo(kRa, end);
    as.emit(jalr(kZero, kRa, 0));
    as.bind(end);

    const std::vector<Word> code = as.finalize();
    const FirmwareLinter linter;
    const LintReport report = linter.lint("call-to-end", code, 0x1000);
    EXPECT_EQ(report.instructions, code.size());
    EXPECT_TRUE(report.clean()) << report.text();
}

TEST(Cfg, DeepChainsNeedNoNativeRecursion)
{
    // Regression for the iterative CFG discovery / Tarjan SCC / bottom-
    // up summary resolution: a 2000-block branch ladder inside the
    // entry function plus a 2000-deep call chain. Either structure
    // would overflow the native stack under a recursive formulation.
    constexpr std::size_t kDepth = 2000;
    Assembler as(0x1000);
    for (std::size_t i = 0; i < kDepth; ++i) {
        const auto next = as.newLabel();
        as.beqTo(kT0, kZero, next); // target == fallthrough: one block
        as.bind(next);              // per rung, chained kDepth deep
    }
    std::vector<Assembler::Label> fns;
    for (std::size_t i = 0; i < kDepth; ++i)
        fns.push_back(as.newLabel());
    as.jalTo(kRa, fns[0]);
    as.emit(jalr(kZero, kRa, 0));
    for (std::size_t i = 0; i < kDepth; ++i) {
        as.bind(fns[i]);
        if (i + 1 < kDepth)
            as.jalTo(kRa, fns[i + 1]);
        as.emit(jalr(kZero, kRa, 0));
    }

    const std::vector<Word> code = as.finalize();
    const Cfg cfg = Cfg::build(code, 0x1000, {0x1000});
    EXPECT_GE(cfg.blocks().size(), 2 * kDepth);

    const FirmwareLinter linter;
    const LintReport report = linter.lint("deep-chain", code, 0x1000);
    EXPECT_TRUE(report.clean()) << report.text();
    // Every function in the chain got a bounded summary, and the
    // summary at the head of the chain accounts for the whole depth.
    ASSERT_EQ(report.callees.size(), kDepth);
    EXPECT_EQ(report.callees.front().entryAddr, as.labelAddress(fns[0]));
    EXPECT_FALSE(report.callees.front().recursive);
    ASSERT_TRUE(report.callees.front().bounded);
    EXPECT_GE(report.callees.front().worstCaseCycles, kDepth);
    // ra is clobbered somewhere down the chain.
    EXPECT_NE(report.callees.front().clobberMask & (1u << 1), 0u);
}

// ---------------------------------------------------------------------
// WAR pass on hand-built firmware
// ---------------------------------------------------------------------

std::vector<Word>
rmwProgram(std::uint32_t addr, bool withMark)
{
    Assembler as(0x1000);
    as.li(kT0, std::int32_t(addr));
    as.emit(lw(kT1, kT0, 0));
    as.emit(addi(kT1, kT1, 1));
    if (withMark)
        as.emit(fsMark());
    as.emit(sw(kT1, kT0, 0));
    as.emit(jalr(kZero, kRa, 0));
    return as.finalize();
}

TEST(Linter, NvmReadModifyWriteIsAnError)
{
    const FirmwareLinter linter;
    const LintReport report =
        linter.lint("rmw", rmwProgram(soc::kFramBase + 0x8000, false),
                    0x1000);
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(hasFinding(report, FindingKind::kWarHazard));
}

TEST(Linter, CheckpointMarkerKillsTheHazard)
{
    const FirmwareLinter linter;
    const LintReport report =
        linter.lint("rmw-marked",
                    rmwProgram(soc::kFramBase + 0x8000, true), 0x1000);
    EXPECT_TRUE(report.clean());
    EXPECT_FALSE(hasFinding(report, FindingKind::kWarHazard));
}

TEST(Linter, SramReadModifyWriteIsNotAHazard)
{
    // Volatile state is captured by the checkpoint itself; only NVM
    // read-modify-write breaks replay.
    const FirmwareLinter linter;
    const LintReport report = linter.lint(
        "sram-rmw", rmwProgram(soc::kSramBase + 16, false), 0x1000);
    EXPECT_TRUE(report.clean());
    EXPECT_FALSE(hasFinding(report, FindingKind::kWarHazard));
}

TEST(Linter, UnresolvableAddressesAreNotesNotErrors)
{
    // A pointer loaded from memory is Top: the access is surfaced as
    // a note and excluded from WAR analysis rather than assumed to
    // alias everything.
    Assembler as(0x1000);
    as.li(kT0, std::int32_t(soc::kFramBase + 0x8000));
    as.emit(lw(kT1, kT0, 0));  // t1 = unknown pointer
    as.emit(lw(kT2, kT1, 0));
    as.emit(sw(kT2, kT1, 4));
    as.emit(jalr(kZero, kRa, 0));
    const FirmwareLinter linter;
    const LintReport report =
        linter.lint("top-ptr", as.finalize(), 0x1000);
    EXPECT_TRUE(report.clean());
    EXPECT_TRUE(hasFinding(report, FindingKind::kUnknownAccess));
}

// ---------------------------------------------------------------------
// Certification of the shipping images and the seeded demos
// ---------------------------------------------------------------------

TEST(Linter, EveryShippingImageCertifiesClean)
{
    for (const soc::GuestProgram &program : soc::standardWorkloads()) {
        const LintReport report = lintGuestProgram(program);
        EXPECT_TRUE(report.clean()) << program.name << "\n"
                                    << report.text();
        EXPECT_FALSE(
            hasFinding(report, FindingKind::kCheckpointFreeCycle))
            << program.name;
    }
    soc::GuestProgram conv;
    conv.name = "conversion";
    conv.code = soc::buildConversionProgram(soc::kCalibrationTableAddr,
                                            soc::kGuestResultAddr);
    EXPECT_TRUE(lintGuestProgram(conv).clean());
}

TEST(Linter, SeededWarAccumulatorIsFlagged)
{
    const LintReport report =
        lintGuestProgram(soc::makeNvmAccumulateProgram(16));
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(hasFinding(report, FindingKind::kWarHazard));
    EXPECT_EQ(report.count(Severity::kError), 1u);
}

TEST(Linter, IrqMaskedSpinLoopIsFlagged)
{
    const LintReport report =
        lintGuestProgram(soc::makeIrqOffSpinProgram());
    EXPECT_TRUE(report.clean()); // a warning, not an error
    EXPECT_TRUE(
        hasFinding(report, FindingKind::kCheckpointFreeCycle));
    EXPECT_EQ(report.count(Severity::kWarning), 1u);
}

// ---------------------------------------------------------------------
// Interprocedural summaries and loop bounds
// ---------------------------------------------------------------------

TEST(Linter, CountedLoopBoundIsInferredExactly)
{
    // t0 counts 0 -> 10 by 1 inside a called function: span/|step|
    // iterations plus the two trips of slack that absorb the <= / >=
    // predicate ambiguity.
    Assembler as(0x1000);
    const auto fn = as.newLabel();
    const auto head = as.newLabel();
    as.jalTo(kRa, fn);
    as.emit(jalr(kZero, kRa, 0));
    as.bind(fn);
    as.li(kT0, 0);
    as.li(kT1, 10);
    as.bind(head);
    as.emit(addi(kT0, kT0, 1));
    as.bltTo(kT0, kT1, head);
    as.emit(jalr(kZero, kRa, 0));

    const FirmwareLinter linter;
    const LintReport report =
        linter.lint("counted-loop", as.finalize(), 0x1000);
    EXPECT_TRUE(report.clean()) << report.text();
    ASSERT_EQ(report.loopBounds.size(), 1u);
    EXPECT_EQ(report.loopBounds[0].headerAddr,
              as.labelAddress(head));
    EXPECT_EQ(report.loopBounds[0].trips, 12u); // 10/1 + 2 slack
    EXPECT_FALSE(report.loopBounds[0].markDelimited);
    // The callee summary prices the bounded loop, not infinity.
    ASSERT_EQ(report.callees.size(), 1u);
    ASSERT_TRUE(report.callees[0].bounded);
    EXPECT_GE(report.callees[0].worstCaseCycles, 12u);
}

TEST(Linter, SelfRecursiveFunctionSummaryIsUnbounded)
{
    Assembler as(0x1000);
    const auto f = as.newLabel();
    as.jalTo(kRa, f);
    as.emit(jalr(kZero, kRa, 0));
    as.bind(f);
    as.jalTo(kRa, f); // self call: a call-graph cycle of one
    as.emit(jalr(kZero, kRa, 0));

    const FirmwareLinter linter;
    const LintReport report =
        linter.lint("self-rec", as.finalize(), 0x1000);
    ASSERT_EQ(report.callees.size(), 1u);
    EXPECT_EQ(report.callees[0].entryAddr, as.labelAddress(f));
    EXPECT_TRUE(report.callees[0].recursive);
    EXPECT_FALSE(report.callees[0].bounded);
    EXPECT_FALSE(report.callees[0].stackBounded);
}

// ---------------------------------------------------------------------
// Runtime budget pass
// ---------------------------------------------------------------------

TEST(Linter, RuntimeCommitPathIsBoundedAndFitsItsWindow)
{
    soc::CheckpointLayout layout;
    layout.sramSize = 1024;
    const double budget =
        commitBudgetSeconds(core::FsConfig{}, 0.04);
    const LintReport report =
        lintCheckpointRuntime(layout, 100, budget);
    EXPECT_TRUE(report.clean()) << report.text();
    EXPECT_FALSE(hasFinding(report, FindingKind::kUnboundedPath))
        << report.text();
    // regs + 1 KiB SRAM copy + CRC sweep: thousands of cycles at
    // least, and within the provisioned window.
    EXPECT_GT(report.worstCaseCommitCycles, 5'000u);
    EXPECT_LE(report.worstCaseCommitCycles, report.budgetCycles);
}

TEST(Linter, TooSmallWarningWindowIsAnError)
{
    soc::CheckpointLayout layout;
    layout.sramSize = 1024;
    const LintReport report =
        lintCheckpointRuntime(layout, 100, 0.005);
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(hasFinding(report, FindingKind::kBudgetExceeded));
}

TEST(Linter, CommitBudgetFollowsTheMonitorConfig)
{
    core::FsConfig config; // sampleRate 1 kHz, enableTime 10 us
    EXPECT_NEAR(commitBudgetSeconds(config, 0.025),
                0.025 - 1e-3 - 10e-6, 1e-12);
    // Headroom smaller than the detection latency clamps to zero.
    EXPECT_EQ(commitBudgetSeconds(config, 1e-4), 0.0);
}

// ---------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------

TEST(Linter, TextAndJsonRenderFindings)
{
    const FirmwareLinter linter;
    const LintReport report =
        linter.lint("rmw", rmwProgram(soc::kFramBase + 0x8000, false),
                    0x1000);
    const std::string text = report.text();
    EXPECT_NE(text.find("[error] war-hazard"), std::string::npos);
    EXPECT_NE(text.find("rmw"), std::string::npos);
    const std::string json = report.json();
    EXPECT_NE(json.find("\"image\":\"rmw\""), std::string::npos);
    EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"war-hazard\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Analyzer vs. dynamics agreement
// ---------------------------------------------------------------------

TEST(Agreement, IrqSpinDemoIsCorrectUnderStablePower)
{
    // The irq-masked loop is a liveness hazard, not a correctness
    // bug: under stable power it must still produce its oracle.
    const soc::GuestProgram prog = soc::makeIrqOffSpinProgram(512);
    auto monitor = harvest::makeFsLowPower();
    soc::CheckpointLayout layout;
    layout.sramSize = 1024;
    soc::Soc soc(*monitor, [](double) { return 3.3; }, layout);
    soc.loadRuntime(monitor->countThresholdFor(1.87));
    soc.loadGuest(prog);
    soc.powerOn();
    soc.run(2'000'000);
    ASSERT_TRUE(soc.appFinished());
    EXPECT_EQ(soc.guestResult(prog), prog.expected);
}

TEST(Agreement, CertifiedFirmwareSurvivesKillsIdenticallyAtAnyThreads)
{
    // A workload the linter certifies hazard-free must come through
    // the seeded kill campaign with the right answer every time, and
    // the campaign itself must be bit-identical at 1 and 8 threads.
    const soc::GuestProgram prog = soc::makeCrc32Program(2048, 11);
    ASSERT_TRUE(lintGuestProgram(prog).clean());

    fault::TortureRig rig(prog);
    const std::uint64_t clean = rig.cleanRunCycles();
    ASSERT_GE(rig.checkpointCount(), 1u);

    std::vector<fault::PowerKill> kills;
    for (std::uint64_t c = clean / 9; c < clean; c += clean / 9)
        kills.push_back(fault::PowerKill{c, unsigned(kills.size() % 4),
                                         0xA5A5A5A5u});

    util::ThreadPool one(1), eight(8);
    const auto serial = rig.runKills(kills, &one);
    const auto parallel = rig.runKills(kills, &eight);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const fault::TortureOutcome &a = serial[i];
        const fault::TortureOutcome &b = parallel[i];
        // Certified firmware: every recovery converges on the oracle
        // and no slot is ever torn.
        EXPECT_EQ(a.tornSlots, 0) << "kill " << i;
        EXPECT_TRUE(a.finished) << "kill " << i;
        EXPECT_TRUE(a.resultCorrect) << "kill " << i;
        // Bit-identical campaign at any thread count.
        EXPECT_EQ(a.killed, b.killed) << "kill " << i;
        EXPECT_EQ(a.killTore, b.killTore) << "kill " << i;
        EXPECT_EQ(a.validSlots, b.validSlots) << "kill " << i;
        EXPECT_EQ(a.tornSlots, b.tornSlots) << "kill " << i;
        EXPECT_EQ(a.newestSeq, b.newestSeq) << "kill " << i;
        EXPECT_EQ(a.coldRestart, b.coldRestart) << "kill " << i;
        EXPECT_EQ(a.finished, b.finished) << "kill " << i;
        EXPECT_EQ(a.resultCorrect, b.resultCorrect) << "kill " << i;
        EXPECT_EQ(a.result, b.result) << "kill " << i;
    }
}

TEST(Agreement, SeededWarBugIsFlaggedStaticallyAndDivergesDynamically)
{
    // 512 words x 40 passes keeps the app alive across several power
    // cycles, so kills can land after a committed checkpoint while
    // the app has made NVM-visible progress -- the exact replay the
    // WAR hazard breaks.
    const soc::GuestProgram prog =
        soc::makeNvmAccumulateProgram(512, 40);
    const LintReport report = lintGuestProgram(prog);
    ASSERT_FALSE(report.clean());
    ASSERT_TRUE(hasFinding(report, FindingKind::kWarHazard));

    fault::TortureRig rig(prog);
    ASSERT_GE(rig.checkpointCount(), 1u);
    const std::uint64_t start = rig.commitWindow(0).end;
    const std::uint64_t clean = rig.cleanRunCycles();
    ASSERT_GT(clean, start);

    bool diverged = false;
    const std::uint64_t stride = (clean - start) / 12;
    for (std::uint64_t c = start + stride; c < clean; c += stride) {
        const fault::TortureOutcome out =
            rig.runKill(fault::PowerKill{c, 0, 0});
        if (!out.killed)
            continue;
        // The checkpoint protocol itself stays intact -- the bug is
        // in the app's idempotency, not in the runtime.
        EXPECT_EQ(out.tornSlots, 0) << "kill at " << c;
        if (out.finished && !out.resultCorrect)
            diverged = true;
    }
    EXPECT_TRUE(diverged)
        << "no kill produced the divergence the linter predicted";
}

TEST(Agreement, PrunedTortureCampaignMatchesTheFullCampaign)
{
    // The fault-space grouping contract: grading the kill campaign
    // once per distinct death image -- the write-log grouping
    // runKills() does, and runKillsPruned() forwards to -- must
    // produce outcomes bit-identical to replaying every kill from
    // boot, while actually skipping work. The static injection-point
    // map no longer drives the grouping but still labels coverage.
    const soc::GuestProgram prog = soc::makeCrc32Program(2048, 11);
    const LintReport report = lintGuestProgram(prog);
    ASSERT_TRUE(report.clean());
    ASSERT_FALSE(report.pruningMap.empty());
    EXPECT_GT(report.pruningMap.countOf(
                  fault::PointClass::kCheckpointShadowed),
              0u);

    fault::TortureRig rig(prog);
    const std::uint64_t clean = rig.cleanRunCycles();
    std::vector<fault::PowerKill> kills;
    const std::uint64_t stride = clean / 40;
    for (std::uint64_t c = stride; c < clean; c += stride)
        kills.push_back(fault::PowerKill{
            c, unsigned(kills.size() % 4),
            (kills.size() % 3 == 0) ? 0xA5A5A5A5u : 0u});
    ASSERT_GE(kills.size(), 30u);

    util::ThreadPool pool(4);
    const auto full = pool.parallelMap(
        kills.size(), [&](std::size_t i) { return rig.runKill(kills[i]); });
    fault::PruneStats stats;
    const auto grouped = rig.runKills(kills, &pool, &stats);
    fault::PruneStats forwarded;
    const auto pruned =
        rig.runKillsPruned(kills, report.pruningMap, &pool, &forwarded);

    ASSERT_EQ(grouped.size(), full.size());
    ASSERT_EQ(pruned.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
        for (const fault::TortureOutcome *b : {&grouped[i], &pruned[i]}) {
            const fault::TortureOutcome &a = full[i];
            EXPECT_EQ(a.killed, b->killed) << "kill " << i;
            EXPECT_EQ(a.killTore, b->killTore) << "kill " << i;
            EXPECT_EQ(a.validSlots, b->validSlots) << "kill " << i;
            EXPECT_EQ(a.tornSlots, b->tornSlots) << "kill " << i;
            EXPECT_EQ(a.newestSeq, b->newestSeq) << "kill " << i;
            EXPECT_EQ(a.coldRestart, b->coldRestart) << "kill " << i;
            EXPECT_EQ(a.finished, b->finished) << "kill " << i;
            EXPECT_EQ(a.resultCorrect, b->resultCorrect) << "kill " << i;
            EXPECT_EQ(a.result, b->result) << "kill " << i;
        }
    }
    EXPECT_EQ(stats.totalKills, kills.size());
    EXPECT_EQ(stats.executedKills + stats.skippedKills, kills.size());
    EXPECT_GT(stats.skippedKills, 0u)
        << "grouping skipped nothing; the write log bought no work";
    EXPECT_EQ(forwarded.executedKills, stats.executedKills);
    EXPECT_EQ(forwarded.skippedKills, stats.skippedKills);
}

} // namespace
} // namespace analysis
} // namespace fs
