/**
 * @file
 * Fault-injection subsystem tests: plan determinism, NVM write tears,
 * monitor perturbation hooks, injected kills in the harvest lifecycle,
 * and the power-failure torture sweep proving the double-buffered
 * checkpoint protocol is crash-consistent at every cycle of its commit
 * window and at hundreds of random execution points.
 */

#include <gtest/gtest.h>

#include <string>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/torture_rig.h"
#include "harvest/intermittent_sim.h"
#include "harvest/system_comparison.h"
#include "soc/fs_peripheral.h"
#include "soc/guest_programs.h"
#include "soc/nvm.h"
#include "soc/soc.h"
#include "util/random.h"

namespace fs {
namespace fault {
namespace {

// ---------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------

TEST(FaultPlan, SingleKillPlanCarriesTearParameters)
{
    const FaultPlan plan = FaultPlan::singleKill(1234, 2, 0x5A5A5A5Au);
    ASSERT_EQ(plan.kills.size(), 1u);
    EXPECT_EQ(plan.kills[0].cycle, 1234u);
    EXPECT_EQ(plan.kills[0].tearBytesKept, 2u);
    EXPECT_EQ(plan.kills[0].tearFlipMask, 0x5A5A5A5Au);
    EXPECT_TRUE(plan.tears.empty());
    EXPECT_TRUE(plan.monitorFaults.empty());
}

TEST(FaultPlan, RandomPlansAreDeterministicPerSeed)
{
    FaultPlanParams params;
    params.kills = 4;
    params.standaloneTears = 3;
    params.monitorFaults = 5;
    params.tearProbability = 0.5;

    const FaultPlan a = FaultPlan::random(99, params);
    const FaultPlan b = FaultPlan::random(99, params);
    const FaultPlan c = FaultPlan::random(100, params);

    EXPECT_EQ(a.seed, 99u);
    ASSERT_EQ(a.kills.size(), 4u);
    ASSERT_EQ(a.tears.size(), 3u);
    ASSERT_EQ(a.monitorFaults.size(), 5u);

    ASSERT_EQ(b.kills.size(), a.kills.size());
    for (std::size_t i = 0; i < a.kills.size(); ++i) {
        EXPECT_EQ(a.kills[i].cycle, b.kills[i].cycle);
        EXPECT_EQ(a.kills[i].tearBytesKept, b.kills[i].tearBytesKept);
        EXPECT_EQ(a.kills[i].tearFlipMask, b.kills[i].tearFlipMask);
    }
    ASSERT_EQ(b.tears.size(), a.tears.size());
    for (std::size_t i = 0; i < a.tears.size(); ++i) {
        EXPECT_EQ(a.tears[i].writeIndex, b.tears[i].writeIndex);
        EXPECT_EQ(a.tears[i].flipMask, b.tears[i].flipMask);
    }
    ASSERT_EQ(b.monitorFaults.size(), a.monitorFaults.size());
    for (std::size_t i = 0; i < a.monitorFaults.size(); ++i) {
        EXPECT_EQ(int(a.monitorFaults[i].kind),
                  int(b.monitorFaults[i].kind));
        EXPECT_EQ(a.monitorFaults[i].fromSample,
                  b.monitorFaults[i].fromSample);
        EXPECT_DOUBLE_EQ(a.monitorFaults[i].jitterFraction,
                         b.monitorFaults[i].jitterFraction);
    }

    // A different seed must draw a different script.
    bool any_difference = false;
    for (std::size_t i = 0; i < a.kills.size(); ++i)
        any_difference = any_difference ||
                         a.kills[i].cycle != c.kills[i].cycle ||
                         a.kills[i].tearFlipMask != c.kills[i].tearFlipMask;
    EXPECT_TRUE(any_difference);
}

TEST(FaultPlan, NormalizeSortsKillsAndTears)
{
    FaultPlan plan;
    plan.kills.push_back(PowerKill{300, 0, 0});
    plan.kills.push_back(PowerKill{100, 0, 0});
    plan.kills.push_back(PowerKill{200, 0, 0});
    plan.tears.push_back(WriteTear{9, 0, 0});
    plan.tears.push_back(WriteTear{2, 0, 0});
    plan.normalize();
    EXPECT_EQ(plan.kills[0].cycle, 100u);
    EXPECT_EQ(plan.kills[1].cycle, 200u);
    EXPECT_EQ(plan.kills[2].cycle, 300u);
    EXPECT_EQ(plan.tears[0].writeIndex, 2u);
    EXPECT_EQ(plan.tears[1].writeIndex, 9u);
}

// ---------------------------------------------------------------------
// FaultInjector: kill sequencing
// ---------------------------------------------------------------------

TEST(FaultInjector, KillsFireInCycleOrder)
{
    FaultPlan plan;
    plan.kills.push_back(PowerKill{200, 0, 0});
    plan.kills.push_back(PowerKill{100, 1, 0xFFu});
    FaultInjector injector(plan); // constructor normalizes

    EXPECT_FALSE(injector.killDue(99));
    EXPECT_TRUE(injector.killDue(100));
    const PowerKill first = injector.takeKill();
    EXPECT_EQ(first.cycle, 100u);
    EXPECT_EQ(first.tearBytesKept, 1u);
    EXPECT_FALSE(injector.killsExhausted());

    EXPECT_FALSE(injector.killDue(150));
    EXPECT_TRUE(injector.killDue(250));
    injector.takeKill();
    EXPECT_TRUE(injector.killsExhausted());
    EXPECT_EQ(injector.log().killsFired, 2u);
    EXPECT_EQ(injector.log().lastKillCycle, 200u);
}

// ---------------------------------------------------------------------
// Nvm write tears
// ---------------------------------------------------------------------

TEST(NvmTear, FilterCommitsPrefixAndFlipsRemainder)
{
    soc::Nvm nvm(64);
    nvm.write(0, 0x11223344u, 4); // pre-image
    nvm.setWriteFilter([](std::uint32_t, std::uint32_t, unsigned,
                          unsigned &kept, std::uint32_t &flip) {
        kept = 2;
        flip = 0xFF000000u;
        return true;
    });
    nvm.write(0, 0xAABBCCDDu, 4);
    // Low half committed; high half keeps its old bytes with the
    // matching flip lanes applied (0x11 ^ 0xFF in the top lane).
    EXPECT_EQ(nvm.read(0, 4), 0xEE22CCDDu);
    // Only the committed prefix counts as written.
    EXPECT_EQ(nvm.bytesWritten(), 6u);
}

TEST(NvmTear, TearLastWriteRevertsUncommittedSuffix)
{
    soc::Nvm nvm(64);
    nvm.write(0, 0x11223344u, 4);
    nvm.write(0, 0xAABBCCDDu, 4);
    EXPECT_EQ(nvm.bytesWritten(), 8u);

    // Power died with the store in flight: byte 0 landed, bytes 1-3
    // revert to the pre-image, byte 2 with bit noise.
    ASSERT_TRUE(nvm.tearLastWrite(1, 0x00FF0000u));
    EXPECT_EQ(nvm.read(0, 4), 0x11DD33DDu);
    EXPECT_EQ(nvm.bytesWritten(), 5u);

    // The same write cannot be torn twice.
    EXPECT_FALSE(nvm.tearLastWrite(0, 0));

    // A tear that keeps every byte is not a tear.
    nvm.write(8, 0xCAFEu, 2);
    EXPECT_FALSE(nvm.tearLastWrite(2, 0));
    EXPECT_EQ(nvm.read(8, 2), 0xCAFEu);
}

TEST(NvmTear, InjectorFilterTearsExactWriteIndex)
{
    FaultPlan plan;
    plan.tears.push_back(WriteTear{1, 0, 0});
    FaultInjector injector(plan);

    soc::Nvm nvm(64);
    nvm.setWriteFilter([&injector](std::uint32_t addr, std::uint32_t value,
                                   unsigned bytes, unsigned &kept,
                                   std::uint32_t &flip) {
        return injector.filterWrite(addr, value, bytes, kept, flip);
    });
    nvm.write(0, 0x01020304u, 4); // index 0: untouched
    nvm.write(4, 0x05060708u, 4); // index 1: fully torn, reverts to 0
    nvm.write(8, 0x090A0B0Cu, 4); // index 2: untouched
    EXPECT_EQ(nvm.read(0, 4), 0x01020304u);
    EXPECT_EQ(nvm.read(4, 4), 0u);
    EXPECT_EQ(nvm.read(8, 4), 0x090A0B0Cu);
    EXPECT_EQ(injector.log().standaloneTears, 1u);
    EXPECT_EQ(nvm.bytesWritten(), 8u);
}

// ---------------------------------------------------------------------
// FsPeripheral monitor perturbation
// ---------------------------------------------------------------------

class FaultedPeripheralTest : public ::testing::Test
{
  protected:
    FaultedPeripheralTest()
        : monitor_(harvest::makeFsLowPower()),
          peripheral_(*monitor_, [this](double) { return supply_; })
    {
    }

    void attach(const FaultPlan &plan)
    {
        injector_ = std::make_unique<FaultInjector>(plan);
        peripheral_.setFaultInjector(injector_.get());
    }

    double supply_ = 3.0;
    std::unique_ptr<core::FailureSentinels> monitor_;
    soc::FsPeripheral peripheral_;
    std::unique_ptr<FaultInjector> injector_;
};

TEST_F(FaultedPeripheralTest, StuckCountServedForItsSpanOnly)
{
    MonitorFault f;
    f.kind = MonitorFault::Kind::kStuckCount;
    f.fromSample = 0;
    f.samples = 3;
    f.value = 7;
    FaultPlan plan;
    plan.monitorFaults.push_back(f);
    attach(plan);

    peripheral_.write(soc::kFsRegCtrl, soc::kFsCtrlEnable, 4);
    peripheral_.advance(3.5e-3); // samples 0..2: all stuck
    EXPECT_EQ(peripheral_.read(soc::kFsRegCount, 4), 7u);
    EXPECT_EQ(injector_->log().countFaults, 3u);

    peripheral_.advance(1e-3); // sample 3: healthy again
    EXPECT_EQ(peripheral_.read(soc::kFsRegCount, 4),
              monitor_->rawSample(3.0));
    EXPECT_EQ(injector_->log().countFaults, 3u);
}

TEST_F(FaultedPeripheralTest, MisreadOnceForcesSpuriousIrq)
{
    MonitorFault f;
    f.kind = MonitorFault::Kind::kMisreadOnce;
    f.fromSample = 2;
    f.value = 0; // reads as "supply collapsed"
    FaultPlan plan;
    plan.monitorFaults.push_back(f);
    attach(plan);

    peripheral_.write(soc::kFsRegThreshold,
                      monitor_->countThresholdFor(2.0), 4);
    peripheral_.write(soc::kFsRegCtrl,
                      soc::kFsCtrlEnable | soc::kFsCtrlArmIrq, 4);
    peripheral_.advance(2e-3); // samples 0-1 healthy at 3.0 V
    EXPECT_FALSE(peripheral_.irqPending());
    peripheral_.advance(1e-3); // sample 2 misreads as zero
    EXPECT_TRUE(peripheral_.irqPending());
    EXPECT_EQ(injector_->log().misreads, 1u);
}

TEST_F(FaultedPeripheralTest, SaturatedCountMasksRealBrownout)
{
    MonitorFault f;
    f.kind = MonitorFault::Kind::kSaturatedCount;
    f.fromSample = 0;
    f.samples = 100;
    f.value = 0xFFFFFFu; // counter pegged at the rail
    FaultPlan plan;
    plan.monitorFaults.push_back(f);
    attach(plan);

    supply_ = 1.9; // genuinely below the 2.0 V trip point
    peripheral_.write(soc::kFsRegThreshold,
                      monitor_->countThresholdFor(2.0), 4);
    peripheral_.write(soc::kFsRegCtrl,
                      soc::kFsCtrlEnable | soc::kFsCtrlArmIrq, 4);
    peripheral_.advance(5e-3);
    // The dangerous failure mode: the interrupt that should have
    // fired never does. Recovery then depends on the checkpoint
    // slots, which the torture sweep exercises.
    EXPECT_FALSE(peripheral_.irqPending());
    EXPECT_EQ(injector_->log().countFaults, 5u);
}

TEST_F(FaultedPeripheralTest, PositivePeriodJitterStretchesSampling)
{
    MonitorFault f;
    f.kind = MonitorFault::Kind::kPeriodJitter;
    f.fromSample = 0;
    f.samples = 1000;
    f.jitterFraction = 1.0; // RO running at half speed
    FaultPlan plan;
    plan.monitorFaults.push_back(f);
    attach(plan);

    peripheral_.write(soc::kFsRegCtrl, soc::kFsCtrlEnable, 4);
    peripheral_.advance(10.5e-3); // healthy: 10 samples; jittered: 5
    EXPECT_EQ(peripheral_.samplesTaken(), 5u);
    EXPECT_EQ(injector_->log().jitteredSamples, 5u);
}

TEST_F(FaultedPeripheralTest, NegativeJitterClampsAndStillAdvances)
{
    MonitorFault f;
    f.kind = MonitorFault::Kind::kPeriodJitter;
    f.fromSample = 0;
    f.samples = 1000;
    f.jitterFraction = -2.0; // would reverse time; clamps to 5%
    FaultPlan plan;
    plan.monitorFaults.push_back(f);
    attach(plan);

    peripheral_.write(soc::kFsRegCtrl, soc::kFsCtrlEnable, 4);
    peripheral_.advance(2.2e-3);
    // First sample at 1 ms, then every 0.05 ms: the clamp keeps the
    // sampling clock moving forward instead of wedging the advance
    // loop.
    EXPECT_GT(peripheral_.samplesTaken(), 20u);
}

// ---------------------------------------------------------------------
// Analytic lifecycle sim hooks
// ---------------------------------------------------------------------

TEST(AnalyticFaults, StuckCounterTurnsCheckpointsIntoFailures)
{
    harvest::IntermittentSim sim(
        harvest::IrradianceTrace::constant(1.0, 60.0));
    auto monitor = harvest::makeFsLowPower();

    const harvest::RunStats clean = sim.run(*monitor);
    ASSERT_GE(clean.checkpoints, 1u);
    EXPECT_EQ(clean.failedCheckpoints, 0u);

    MonitorFault f;
    f.kind = MonitorFault::Kind::kStuckCount;
    f.fromSample = 0;
    f.samples = 10'000'000; // every sample of the run
    FaultPlan plan;
    plan.monitorFaults.push_back(f);
    FaultInjector injector(plan);

    const harvest::RunStats faulted = sim.run(*monitor, &injector);
    // Every trigger is masked, so every discharge becomes an
    // uncheckpointed death.
    EXPECT_EQ(faulted.checkpoints, 0u);
    EXPECT_GE(faulted.failedCheckpoints, 1u);
    EXPECT_GE(injector.log().analyticFlips, clean.checkpoints);
}

TEST(AnalyticFaults, MisreadOnceForcesOneSpuriousCheckpoint)
{
    harvest::IntermittentSim sim(
        harvest::IrradianceTrace::constant(1.0, 60.0));
    auto monitor = harvest::makeFsLowPower();

    MonitorFault f;
    f.kind = MonitorFault::Kind::kMisreadOnce;
    f.fromSample = 5; // just after the first power-on: supply healthy
    f.value = 0;
    FaultPlan plan;
    plan.monitorFaults.push_back(f);
    FaultInjector injector(plan);

    const harvest::RunStats faulted = sim.run(*monitor, &injector);
    EXPECT_EQ(injector.log().analyticFlips, 1u);
    EXPECT_GE(faulted.checkpoints, 1u);
}

// ---------------------------------------------------------------------
// Injected kills in the full harvest lifecycle
// ---------------------------------------------------------------------

TEST(SocHarvestFaults, InjectedKillIsAccountedAndSurvived)
{
    auto monitor = harvest::makeFsLowPower();
    auto cell = std::make_shared<harvest::VoltageCell>();
    soc::CheckpointLayout layout;
    layout.sramSize = 1024;
    soc::Soc soc(*monitor, [cell](double) { return cell->volts; },
                 layout);
    harvest::SystemLoad load;
    const double v_ckpt = load.coreVmin() +
                          load.activeCurrentWith(*monitor) * 0.025 /
                              47e-6 +
                          monitor->resolution();
    soc.loadRuntime(monitor->countThresholdFor(v_ckpt));
    const soc::GuestProgram prog = soc::makeCrc32Program(2048, 7);
    soc.loadGuest(prog);

    // Kill power mid-execution with a torn in-flight store.
    FaultInjector injector(FaultPlan::singleKill(20'000, 2, 0x5A5A5A5Au));
    soc.setFaultInjector(&injector);

    harvest::SocHarvestSim sim(
        soc, cell, harvest::IrradianceTrace::constant(3.0, 3600.0),
        harvest::SolarPanel(), load);
    const auto result = sim.run(/*max_seconds=*/600.0);

    EXPECT_TRUE(result.appFinished);
    EXPECT_EQ(result.injectedKills, 1u);
    EXPECT_EQ(injector.log().killsFired, 1u);
    EXPECT_TRUE(injector.killsExhausted());
    // Every power failure is either a committed checkpoint or a
    // failed one; the two buckets must tile exactly.
    EXPECT_EQ(result.checkpoints + result.failedCheckpoints,
              result.powerFailures);
    EXPECT_GE(result.powerFailures, result.injectedKills);
    EXPECT_EQ(soc.guestResult(prog), prog.expected);
}

// ---------------------------------------------------------------------
// The torture sweep: crash consistency at every commit-window cycle
// and at random execution points.
// ---------------------------------------------------------------------

class TortureSweep : public ::testing::Test
{
  protected:
    static TortureRig &rig()
    {
        // Shared across the sweep tests: the instrumented clean run is
        // the expensive part and is identical for all of them.
        static TortureRig *rig = [] {
            TortureConfig config;
            config.stableCycles = 60'000;
            config.lowCycles = 30'000;
            return new TortureRig(soc::makeCrc32Program(4096, 11),
                                  config);
        }();
        return *rig;
    }

    static std::size_t points_;
};

std::size_t TortureSweep::points_ = 0;

TEST_F(TortureSweep, RigFindsMultipleCommitWindows)
{
    ASSERT_GE(rig().checkpointCount(), 2u);
    const CommitWindow w0 = rig().commitWindow(0);
    const CommitWindow w1 = rig().commitWindow(1);
    EXPECT_GT(w0.length(), 100u); // regs + 1 KiB SRAM + CRC: thousands
    EXPECT_GT(w1.begin, w0.end);
    EXPECT_LT(w1.end, rig().cleanRunCycles());
}

TEST_F(TortureSweep, KillsInsideFirstCommitWindowColdRestart)
{
    const CommitWindow w = rig().commitWindow(0);
    const std::uint64_t stride =
        std::max<std::uint64_t>(1, w.length() / 120);
    std::size_t tears = 0;
    for (std::uint64_t c = w.begin; c < w.end; c += stride) {
        PowerKill kill;
        kill.cycle = c;
        kill.tearBytesKept = unsigned(points_ % 4);
        kill.tearFlipMask =
            (points_ % 3 == 0) ? 0xA5A5A5A5u : 0u;
        const TortureOutcome out = rig().runKill(kill);
        ++points_;
        ASSERT_TRUE(out.killed) << "kill at cycle " << c;
        // The commit protocol's core guarantee: no slot ever shows a
        // valid magic over a bad image, because the magic is the very
        // last word written.
        ASSERT_EQ(out.tornSlots, 0) << "kill at cycle " << c;
        // Mid-first-commit there is no older slot to fall back to:
        // recovery must be a cold start, never a garbage restore.
        EXPECT_EQ(out.newestSeq, 0u) << "kill at cycle " << c;
        EXPECT_TRUE(out.coldRestart) << "kill at cycle " << c;
        ASSERT_TRUE(out.resultCorrect) << "kill at cycle " << c;
        tears += out.killTore ? 1 : 0;
    }
    // The sweep must actually have caught stores in flight, or it
    // proved nothing about torn writes.
    EXPECT_GT(tears, 0u);
}

TEST_F(TortureSweep, KillsInsideSecondCommitWindowFallBackToFirst)
{
    const CommitWindow w = rig().commitWindow(1);
    const std::uint64_t stride =
        std::max<std::uint64_t>(1, w.length() / 120);
    bool saw_fallback = false;
    for (std::uint64_t c = w.begin; c < w.end; c += stride) {
        PowerKill kill;
        kill.cycle = c;
        kill.tearBytesKept = unsigned(points_ % 4);
        kill.tearFlipMask =
            (points_ % 3 == 0) ? 0xA5A5A5A5u : 0u;
        const TortureOutcome out = rig().runKill(kill);
        ++points_;
        ASSERT_TRUE(out.killed) << "kill at cycle " << c;
        ASSERT_EQ(out.tornSlots, 0) << "kill at cycle " << c;
        // Double buffering: the half-written slot is invalid, but the
        // previous power cycle's checkpoint (seq 1) survives in the
        // other slot.
        EXPECT_EQ(out.newestSeq, 1u) << "kill at cycle " << c;
        EXPECT_FALSE(out.coldRestart) << "kill at cycle " << c;
        ASSERT_TRUE(out.resultCorrect) << "kill at cycle " << c;
        saw_fallback = true;
    }
    EXPECT_TRUE(saw_fallback);
}

TEST_F(TortureSweep, KillsJustAfterCommitSeeTheNewCheckpoint)
{
    const CommitWindow w = rig().commitWindow(1);
    for (std::uint64_t c = w.end; c < w.end + 48; c += 4) {
        PowerKill kill;
        kill.cycle = c;
        kill.tearBytesKept = unsigned(points_ % 4);
        const TortureOutcome out = rig().runKill(kill);
        ++points_;
        ASSERT_TRUE(out.killed) << "kill at cycle " << c;
        ASSERT_EQ(out.tornSlots, 0) << "kill at cycle " << c;
        // The magic is in FRAM: seq 2 is committed and recovery
        // resumes from it (tearing post-commit stores is harmless).
        EXPECT_EQ(out.newestSeq, 2u) << "kill at cycle " << c;
        EXPECT_FALSE(out.coldRestart) << "kill at cycle " << c;
        ASSERT_TRUE(out.resultCorrect) << "kill at cycle " << c;
    }
}

TEST_F(TortureSweep, RandomExecutionPointKillsAlwaysRecover)
{
    const std::uint64_t span = rig().cleanRunCycles();
    Rng rng(0xF00Du); // explicit seed: rerun reproduces the sweep
    for (int i = 0; i < 280; ++i) {
        PowerKill kill;
        kill.cycle = std::uint64_t(
            rng.uniformInt(0, std::int64_t(span) - 1));
        kill.tearBytesKept = unsigned(rng.uniformInt(0, 4));
        kill.tearFlipMask =
            std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
        const TortureOutcome out = rig().runKill(kill);
        ++points_;
        ASSERT_EQ(out.tornSlots, 0)
            << "kill at cycle " << kill.cycle;
        ASSERT_TRUE(out.resultCorrect)
            << "kill at cycle " << kill.cycle;
        if (out.killed && out.newestSeq > 0) {
            EXPECT_FALSE(out.coldRestart)
                << "kill at cycle " << kill.cycle;
        }
    }
}

TEST_F(TortureSweep, SweepCoveredAtLeastFiveHundredInjectionPoints)
{
    // Runs last in declaration order within this fixture; gtest runs
    // tests in definition order by default.
    EXPECT_GE(points_, 500u);
}

// ---------------------------------------------------------------------
// The golden run: typed schedule failures instead of a panic
// ---------------------------------------------------------------------

TEST(GoldenRun, UnschedulableConfigsAreTypedErrors)
{
    // A one-cycle brown-out phase can never commit a checkpoint.
    TortureConfig no_commit;
    no_commit.stableCycles = 1;
    no_commit.lowCycles = 1;
    GoldenError error = GoldenError::kNone;
    EXPECT_EQ(GoldenRun::build(soc::makeCrc32Program(256, 1), no_commit,
                               &error),
              nullptr);
    EXPECT_EQ(error, GoldenError::kNoCheckpoint);

    // One power cycle commits once but is too short to finish.
    TortureConfig one_cycle;
    one_cycle.stableCycles = 60'000;
    one_cycle.lowCycles = 30'000;
    one_cycle.maxPowerCycles = 1;
    EXPECT_EQ(GoldenRun::build(soc::makeCrc32Program(4096, 11),
                               one_cycle, &error),
              nullptr);
    EXPECT_EQ(error, GoldenError::kNeverFinished);
    EXPECT_NE(std::string(goldenErrorMessage(error)), "ok");

    // The same schedule with its full budget anchors a campaign.
    TortureConfig sound = one_cycle;
    sound.maxPowerCycles = TortureConfig{}.maxPowerCycles;
    const auto golden =
        GoldenRun::build(soc::makeCrc32Program(4096, 11), sound, &error);
    ASSERT_NE(golden, nullptr);
    EXPECT_EQ(error, GoldenError::kNone);
    EXPECT_GE(golden->windows.size(), 2u);
    EXPECT_FALSE(golden->snapshots.empty());
    EXPECT_EQ(golden->probeSteps.back().cycleAfter, golden->cleanCycles);
    EXPECT_EQ(golden->snapshots.size(), 1 + 2 * golden->windows.size())
        << "golden images: boot plus every commit-window boundary";
}

} // namespace
} // namespace fault
} // namespace fs
