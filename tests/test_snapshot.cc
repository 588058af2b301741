/**
 * @file
 * Snapshot-fork fault grading tests: PagedImage copy-on-write
 * semantics and incremental keys, translated blocks across power
 * failures, forked torture campaigns against the replay-from-boot
 * reference (with and without convergence memoization, at 1 and 8
 * threads, and on one recycled recovery SoC), the v2 wire format's
 * exhaustive point-range shards and coverage maps, and shard-merge
 * byte-identity through the engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/firmware_linter.h"
#include "fault/fault_plan.h"
#include "fault/torture_rig.h"
#include "harvest/intermittent_sim.h"
#include "harvest/system_comparison.h"
#include "riscv/assembler.h"
#include "serve/engine.h"
#include "serve/wire.h"
#include "soc/guest_programs.h"
#include "soc/snapshot.h"
#include "soc/soc.h"
#include "util/parallel.h"

namespace fs {
namespace {

/** Scoped environment override (nullptr value = unset). */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            had_ = true;
            old_ = old;
        }
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~EnvGuard()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    bool had_ = false;
    std::string old_;
};

// ---------------------------------------------------------------------
// PagedImage
// ---------------------------------------------------------------------

TEST(PagedImage, RoundTripSharingAndDistinctBytes)
{
    std::vector<std::uint8_t> mem(4096);
    for (std::size_t i = 0; i < mem.size(); ++i)
        mem[i] = std::uint8_t(i * 7 + 3);

    soc::PagedImage a;
    a.capture(mem, nullptr);
    EXPECT_EQ(a.size(), mem.size());
    std::vector<std::uint8_t> out(mem.size());
    a.restore(out);
    EXPECT_EQ(out, mem);

    // Dirty one byte: the successor owns exactly that one page and
    // shares the rest with its predecessor.
    mem[300] ^= 0xff;
    soc::PagedImage b;
    b.capture(mem, &a);
    EXPECT_EQ(b.pagesOwnedVs(a), 1u);
    b.restore(out);
    EXPECT_EQ(out, mem);
    EXPECT_NE(a.key(), b.key());

    // Shared pages are counted once in the memory high-water.
    EXPECT_EQ(soc::distinctPageBytes({&a, &b}),
              mem.size() + soc::PagedImage::kPageBytes);

    // An unchanged re-capture shares everything.
    soc::PagedImage c;
    c.capture(mem, &b);
    EXPECT_EQ(c.pagesOwnedVs(b), 0u);
    EXPECT_EQ(c.key(), b.key());
}

/** Deterministic xorshift64 stream for the randomized image tests. */
struct XorShift {
    std::uint64_t x;
    std::uint64_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
};

TEST(PagedImage, IncrementalKeyEqualsRecomputedKey)
{
    // A short final page exercises the partial-page path.
    constexpr std::size_t kSize = 64 * soc::PagedImage::kPageBytes + 100;
    constexpr std::size_t kPages = 65;
    XorShift rng{0x9E3779B97F4A7C15ull};
    std::vector<std::uint8_t> base_mem(kSize);
    for (std::uint8_t &b : base_mem)
        b = std::uint8_t(rng.next());
    soc::PagedImage base;
    base.capture(base_mem, nullptr);

    soc::DirtyPages dirty;
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> mem = base_mem;
        dirty.reset(kPages);
        const std::size_t writes = rng.next() % 12;
        for (std::size_t w = 0; w < writes; ++w) {
            const std::size_t addr = rng.next() % kSize;
            dirty.mark(addr / soc::PagedImage::kPageBytes);
            // Every fourth write stores the byte already there: a
            // dirty page whose bytes did not change.
            if (w % 4 != 3)
                mem[addr] = std::uint8_t(rng.next());
        }
        SCOPED_TRACE("trial " + std::to_string(trial));

        soc::PagedImage fresh;
        fresh.capture(mem, nullptr);
        EXPECT_EQ(soc::PagedImage::keyOf(mem, base, dirty),
                  fresh.key());

        // captureDirty shares exactly the pages capture() shares.
        soc::PagedImage full, delta;
        full.capture(mem, &base);
        delta.captureDirty(mem, base, dirty);
        EXPECT_EQ(delta.key(), fresh.key());
        EXPECT_EQ(full.key(), fresh.key());
        ASSERT_EQ(delta.pages().size(), full.pages().size());
        for (std::size_t p = 0; p < kPages; ++p) {
            EXPECT_EQ(delta.pages()[p] == base.pages()[p],
                      full.pages()[p] == base.pages()[p])
                << "page " << p;
        }
        EXPECT_TRUE(delta.matches(mem, base, dirty));
        EXPECT_TRUE(fresh.matches(mem, base, dirty));

        // One more real change on a dirty page: the old images must
        // no longer match, pointer sharing or not.
        if (!dirty.list().empty()) {
            const std::size_t p = dirty.list().front();
            mem[p * soc::PagedImage::kPageBytes] ^= 0x5a;
            EXPECT_FALSE(delta.matches(mem, base, dirty));
            EXPECT_FALSE(fresh.matches(mem, base, dirty));
        }
    }

    // The key is order-aware: swapping two pages changes it.
    std::vector<std::uint8_t> swapped = base_mem;
    std::swap_ranges(swapped.begin(),
                     swapped.begin() + soc::PagedImage::kPageBytes,
                     swapped.begin() + soc::PagedImage::kPageBytes);
    soc::PagedImage sw;
    sw.capture(swapped, nullptr);
    EXPECT_NE(sw.key(), base.key());
}

// ---------------------------------------------------------------------
// Translated blocks across power failures
// ---------------------------------------------------------------------

struct SocBench {
    std::unique_ptr<core::FailureSentinels> monitor;
    std::shared_ptr<harvest::VoltageCell> cell;
    std::unique_ptr<soc::Soc> soc;
};

SocBench
makeBench()
{
    SocBench b;
    b.monitor = harvest::makeFsLowPower();
    b.cell = std::make_shared<harvest::VoltageCell>();
    b.cell->volts = 3.3;
    soc::CheckpointLayout layout;
    layout.sramSize = 1024;
    b.soc = std::make_unique<soc::Soc>(
        *b.monitor, [cell = b.cell](double) { return cell->volts; },
        layout);
    harvest::SystemLoad load;
    const double v_ckpt = load.coreVmin() +
                          load.activeCurrentWith(*b.monitor) * 0.025 /
                              47e-6 +
                          b.monitor->resolution();
    b.soc->loadRuntime(b.monitor->countThresholdFor(v_ckpt));
    return b;
}

TEST(SocSnapshot, PowerFailKeepsFramBlocksAndDropsSramBlocks)
{
    EnvGuard trace("FS_NO_TRACE_CACHE", nullptr);
    const soc::GuestProgram prog = soc::makeCrc32Program(1024, 7);
    SocBench b = makeBench();
    b.soc->loadGuest(prog);
    b.soc->powerOn();
    b.soc->run(20'000);
    const riscv::DbtCache &dbt = b.soc->hart().dbtCache();
    ASSERT_GT(dbt.blockCount(), 0u);
    b.soc->powerFail();
    EXPECT_GT(dbt.blockCount(), 0u)
        << "FRAM code survives an outage; its blocks should too";

    // Code in SRAM decays with it, and so must its blocks.
    using namespace riscv;
    b.soc->sram().loadWords(
        0, {addi(kA0, kZero, 42), addi(kA0, kA0, 1), ecall()});
    b.soc->powerOn();
    b.soc->hart().setPc(b.soc->layout().sramBase);
    b.soc->run(100);
    ASSERT_TRUE(b.soc->appFinished());
    ASSERT_EQ(b.soc->hart().reg(kA0), 43u);
    ASSERT_GT(dbt.blockCount(), 0u);
    b.soc->powerFail();
    EXPECT_EQ(dbt.blockCount(), 0u);
}

// ---------------------------------------------------------------------
// Forked torture campaigns vs. the replay-from-boot reference
// ---------------------------------------------------------------------

void
expectSameOutcome(const fault::TortureOutcome &a,
                  const fault::TortureOutcome &b, std::size_t i)
{
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

class SnapshotFork : public ::testing::Test
{
  protected:
    static fault::TortureRig &rig()
    {
        static fault::TortureRig *rig = [] {
            fault::TortureConfig config;
            config.stableCycles = 60'000;
            config.lowCycles = 30'000;
            return new fault::TortureRig(soc::makeCrc32Program(2048, 11),
                                         config);
        }();
        return *rig;
    }

    static std::vector<fault::PowerKill> kills()
    {
        std::vector<fault::PowerKill> out;
        const std::uint64_t clean = rig().cleanRunCycles();
        const std::uint64_t stride = clean / 36;
        for (std::uint64_t c = stride; c < clean + 2 * stride;
             c += stride)
            out.push_back(fault::PowerKill{
                c, unsigned(out.size() % 4),
                (out.size() % 3 == 0) ? 0xA5A5A5A5u : 0u});
        // Commit-window kills exercise the tear path specifically.
        if (rig().checkpointCount() > 0) {
            const fault::CommitWindow w = rig().commitWindow(0);
            for (std::uint64_t c = w.begin; c < w.end;
                 c += std::max<std::uint64_t>(1, w.length() / 6))
                out.push_back(fault::PowerKill{c, 2, 0x5A5A5A5Au});
        }
        return out;
    }

    static const std::vector<fault::TortureOutcome> &reference()
    {
        static const std::vector<fault::TortureOutcome> *ref = [] {
            auto *out = new std::vector<fault::TortureOutcome>();
            // runKill() is the replay-from-boot reference path,
            // untouched by snapshot forking.
            for (const fault::PowerKill &kill : kills())
                out->push_back(rig().runKill(kill));
            return out;
        }();
        return *ref;
    }
};

TEST_F(SnapshotFork, ForkedVerdictsMatchFromBootAtOneAndEightThreads)
{
    ASSERT_TRUE(rig().snapshotsActive())
        << "FS_NO_SNAPSHOT leaked into the test environment";
    const std::vector<fault::PowerKill> batch = kills();
    const std::vector<fault::TortureOutcome> &ref = reference();

    util::ThreadPool one(1);
    const auto forked1 = rig().runKills(batch, &one);
    ASSERT_EQ(forked1.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        expectSameOutcome(ref[i], forked1[i], i);

    util::ThreadPool eight(8);
    const auto forked8 = rig().runKills(batch, &eight);
    ASSERT_EQ(forked8.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        expectSameOutcome(ref[i], forked8[i], i);

    const fault::ConvergeStats stats = rig().convergeStats();
    EXPECT_GT(stats.goldenSnapshots, 1u);
    EXPECT_GT(stats.memoEntries, 0u);
    EXPECT_GT(stats.memoHits, 0u)
        << "the second campaign should replay recoveries from the memo";
    EXPECT_GT(rig().snapshotMemoryBytes(), 0u);
}

TEST_F(SnapshotFork, ConvergenceOffStillMatchesTheReference)
{
    const std::vector<fault::PowerKill> batch = kills();
    const std::vector<fault::TortureOutcome> &ref = reference();

    rig().setConvergenceEnabled(false);
    util::ThreadPool pool(4);
    const auto forked = rig().runKills(batch, &pool);
    rig().setConvergenceEnabled(true);

    ASSERT_EQ(forked.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        expectSameOutcome(ref[i], forked[i], i);
}

TEST_F(SnapshotFork, NoSnapshotEnvForcesTheLegacyPathWithSameVerdicts)
{
    EnvGuard guard("FS_NO_SNAPSHOT", "1");
    EXPECT_FALSE(rig().snapshotsActive());
    const std::vector<fault::PowerKill> batch = kills();
    const std::vector<fault::TortureOutcome> &ref = reference();

    util::ThreadPool pool(4);
    const auto legacy = rig().runKills(batch, &pool);
    ASSERT_EQ(legacy.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        expectSameOutcome(ref[i], legacy[i], i);
}

TEST_F(SnapshotFork, RigsSharingOneGoldenRunGradeConcurrently)
{
    // Three campaigns over one immutable golden run, each from its own
    // thread and pool: two share rig `a` (its memo and benches), the
    // third runs on rig `b`.
    const std::vector<fault::PowerKill> batch = kills();
    const std::vector<fault::TortureOutcome> &ref = reference();
    fault::TortureRig a(rig().golden());
    fault::TortureRig b(rig().golden());
    std::vector<std::vector<fault::TortureOutcome>> outs(3);
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < outs.size(); ++t)
        callers.emplace_back([&, t] {
            util::ThreadPool pool(2);
            outs[t] = (t < 2 ? a : b).runKills(batch, &pool);
        });
    for (std::thread &caller : callers)
        caller.join();
    for (const std::vector<fault::TortureOutcome> &out : outs) {
        ASSERT_EQ(out.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            expectSameOutcome(ref[i], out[i], i);
    }
    EXPECT_EQ(a.convergeStats().goldenSnapshots,
              rig().convergeStats().goldenSnapshots);
}

TEST_F(SnapshotFork, StrideZeroStillGradesFromTheWriteLog)
{
    // Stride 0 keeps only the boot and commit-window images; kills are
    // still graded from the write log, with the reference verdicts.
    const std::size_t dense = rig().convergeStats().goldenSnapshots;
    EnvGuard guard("FS_SNAPSHOT_STRIDE", "0");
    fault::TortureRig sparse(rig().golden()->prog, rig().golden()->config);
    ASSERT_TRUE(sparse.snapshotsActive());
    EXPECT_EQ(sparse.golden()->config.snapshotStride, 0u);
    EXPECT_EQ(sparse.convergeStats().goldenSnapshots,
              1 + 2 * sparse.checkpointCount());
    EXPECT_LT(sparse.convergeStats().goldenSnapshots, dense);

    const std::vector<fault::PowerKill> batch = kills();
    const std::vector<fault::TortureOutcome> &ref = reference();
    util::ThreadPool pool(4);
    fault::PruneStats stats;
    const auto graded = sparse.runKills(batch, &pool, &stats);
    EXPECT_LT(stats.executedKills, batch.size())
        << "kills sharing a death image should be graded once";
    ASSERT_EQ(graded.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        expectSameOutcome(ref[i], graded[i], i);
}

TEST_F(SnapshotFork, EveryWritingStepTearsLikeTheBootReplay)
{
    // One kill on every FRAM-storing instruction of the golden run:
    // kept prefixes 0..4 (4 = the whole store lands) against flip
    // masks that between them touch every byte lane. The periods are
    // coprime, so every (prefix, mask) pair occurs.
    const fault::GoldenRun &g = *rig().golden();
    static constexpr std::uint32_t kMasks[] = {
        0xFFFFFFFFu, 0x000000FFu, 0x0000FF00u, 0x00FF0000u,
        0xFF000000u, 0x5A5A5A5Au, 0u};
    std::vector<fault::PowerKill> batch;
    for (std::size_t s = 0; s < g.probeSteps.size(); ++s) {
        if (!g.stepWrote(s))
            continue;
        const std::size_t n = batch.size();
        batch.push_back(fault::PowerKill{g.probeSteps[s].cycleAfter,
                                         unsigned(n % 5), kMasks[n % 7]});
    }
    ASSERT_GE(batch.size(), 35u);
    // A tear shows in the slots at the commit-magic store: give each
    // checkpoint's every pair.
    for (std::size_t w = 0; w < rig().checkpointCount(); ++w)
        for (unsigned kept = 0; kept <= 4; ++kept)
            for (const std::uint32_t mask : kMasks)
                batch.push_back(fault::PowerKill{
                    rig().commitWindow(w).end - 1, kept, mask});
    // The app's finishing step, and a kill that never fires.
    batch.push_back(fault::PowerKill{g.cleanCycles, 0, 0});
    batch.push_back(fault::PowerKill{g.cleanCycles + 1, 0, 0});

    util::ThreadPool one(1);
    util::ThreadPool eight(8);
    const std::vector<fault::TortureOutcome> ref =
        eight.parallelMap(batch.size(), [&](std::size_t i) {
            return rig().runKill(batch[i]);
        });
    std::size_t tore = 0;
    for (const fault::TortureOutcome &out : ref)
        tore += out.killTore ? 1 : 0;
    EXPECT_GT(tore, batch.size() / 2);

    for (const bool converge : {true, false}) {
        rig().setConvergenceEnabled(converge);
        for (util::ThreadPool *pool : {&one, &eight}) {
            const auto graded = rig().runKills(batch, pool);
            ASSERT_EQ(graded.size(), ref.size());
            for (std::size_t i = 0; i < ref.size(); ++i)
                expectSameOutcome(ref[i], graded[i], i);
        }
    }
    rig().setConvergenceEnabled(true);
}

TEST_F(SnapshotFork, TornCommitMagicDecidesWhichCheckpointSurvives)
{
    // The second checkpoint's commit-magic store, killed three ways:
    // it lands; its upper half reverts to the old bytes; its upper
    // half "reverts" through noise that recreates exactly the magic.
    // Dropping the tear, or putting it on the wrong lanes, changes
    // which checkpoint the slots hold.
    ASSERT_GE(rig().checkpointCount(), 2u);
    const fault::GoldenRun &g = *rig().golden();
    const std::uint64_t cycle = rig().commitWindow(1).end - 1;
    const std::size_t step = g.stepAt(cycle);
    ASSERT_LT(step, g.probeSteps.size());
    ASSERT_TRUE(g.stepWrote(step));
    const fault::GoldenRun::FramWrite &magic =
        g.writeLog[g.probeSteps[step].writeEnd - 1];
    ASSERT_EQ(magic.width, 4u);
    ASSERT_EQ(magic.step, step);
    std::uint32_t remagic = 0;
    for (unsigned i = 2; i < 4; ++i)
        remagic |= std::uint32_t(magic.pre[i] ^ magic.post[i]) << (8 * i);
    ASSERT_NE(remagic, 0u);

    const std::vector<fault::PowerKill> batch = {
        {cycle, 4, 0xFFFFFFFFu}, {cycle, 2, 0}, {cycle, 2, remagic}};
    util::ThreadPool pool(2);
    const auto graded = rig().runKills(batch, &pool);
    ASSERT_EQ(graded.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectSameOutcome(rig().runKill(batch[i]), graded[i], i);

    const fault::TortureOutcome &landed = graded[0];
    const fault::TortureOutcome &reverted = graded[1];
    const fault::TortureOutcome &remade = graded[2];
    EXPECT_FALSE(landed.killTore);
    EXPECT_EQ(landed.validSlots, 2);
    EXPECT_EQ(landed.newestSeq, 2u);
    EXPECT_TRUE(reverted.killTore);
    EXPECT_EQ(reverted.validSlots, 1);
    EXPECT_EQ(reverted.newestSeq, 1u);
    EXPECT_TRUE(remade.killTore);
    EXPECT_EQ(remade.validSlots, 2);
    EXPECT_EQ(remade.newestSeq, 2u);
    for (const fault::TortureOutcome &out : graded) {
        EXPECT_EQ(out.tornSlots, 0);
        EXPECT_TRUE(out.resultCorrect);
    }
}

// ---------------------------------------------------------------------
// Recovery on one recycled SoC
// ---------------------------------------------------------------------

struct Tier {
    const char *name;
    const char *noTrace; ///< FS_NO_TRACE_CACHE value (null = unset)
};

constexpr Tier kTiers[] = {
    {"dbt", nullptr},
    {"interp", "1"},
};

/** Iterations of selfPatchingProgram() before its patch lands. */
constexpr std::int32_t kPatchAt = 2'000;

/**
 * A loop that patches one of its own instructions mid-run: iterations
 * before kPatchAt add 1 to the result, the rest add 7. @p patch_addr
 * receives the patched instruction's address.
 */
soc::GuestProgram
selfPatchingProgram(std::uint32_t &patch_addr)
{
    constexpr std::int32_t kIters = 3'000;
    using namespace riscv;
    soc::GuestProgram prog;
    prog.name = "self-patch";
    prog.dataAddr = soc::kGuestDataAddr;
    prog.resultAddr = soc::kGuestResultAddr;
    prog.expected = std::uint32_t(kPatchAt + (kIters - kPatchAt) * 7);

    Assembler as(soc::CheckpointLayout{}.appBase);
    const auto loop = as.newLabel();
    const auto patch = as.newLabel();
    const auto done = as.newLabel();
    as.li(kT0, 0);
    as.li(kT1, kIters);
    as.li(kA2, 0);
    as.li(kT4, std::int32_t(addi(kA2, kA2, 7)));
    as.li(kT5, kPatchAt);
    const std::uint32_t anchor = as.here();
    as.emit(auipc(kT3, 0));
    as.emit(addi(kT3, kT3, 20)); // t3 = &patch (checked below)
    as.bind(loop);
    as.bgeuTo(kT0, kT1, done);
    as.bneTo(kT0, kT5, patch);
    as.emit(sw(kT4, kT3, 0));
    as.bind(patch);
    as.emit(addi(kA2, kA2, 1));
    as.emit(addi(kT0, kT0, 1));
    as.jTo(loop);
    as.bind(done);
    as.li(kT0, std::int32_t(prog.resultAddr));
    as.emit(sw(kA2, kT0, 0));
    as.emit(jalr(kZero, kRa, 0));
    prog.code = as.finalize();
    patch_addr = as.labelAddress(patch);
    EXPECT_EQ(patch_addr, anchor + 20);
    return prog;
}

TEST(RecycledRecovery, StoreIntoCachedCodeBetweenRecoveriesForcesRedecode)
{
    std::uint32_t patch_addr = 0;
    const soc::GuestProgram prog = selfPatchingProgram(patch_addr);
    const std::uint32_t off = patch_addr - soc::CheckpointLayout{}.framBase;
    for (const Tier &tier : kTiers) {
        SCOPED_TRACE(tier.name);
        EnvGuard trace("FS_NO_TRACE_CACHE", tier.noTrace);
        fault::TortureRig rig(prog);
        const fault::GoldenRun &g = *rig.golden();
        const auto patch = std::find_if(
            g.writeLog.begin(), g.writeLog.end(),
            [&](const fault::GoldenRun::FramWrite &w) {
                return w.addr == off;
            });
        ASSERT_NE(patch, g.writeLog.end());
        const std::uint64_t patch_cycle =
            g.probeSteps[patch->step].cycleAfter;

        // Kills spread over the run up to the patch. Each recovery
        // reboots with the unpatched code, runs into the patch, and
        // leaves the code page patched (and, on the DBT tier, the
        // patched loop translated) on the one recycled SoC; the next
        // image rebuild must copy the page back and the reboot must
        // drop the blocks.
        std::vector<fault::PowerKill> batch;
        for (std::uint64_t i = 1; i <= 6; ++i)
            batch.push_back(fault::PowerKill{patch_cycle * i / 7, 0, 0});
        rig.setConvergenceEnabled(false);
        util::ThreadPool one(1);
        const auto graded = rig.runKills(batch, &one);
        ASSERT_EQ(graded.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const fault::TortureOutcome ref = rig.runKill(batch[i]);
            EXPECT_TRUE(ref.killed) << "kill " << i;
            EXPECT_TRUE(ref.resultCorrect) << "kill " << i;
            expectSameOutcome(ref, graded[i], i);
        }
    }
}

TEST(RecycledRecovery, FinishedRecoveryDoesNotLeakIntoTheNext)
{
    fault::TortureConfig config;
    config.stableCycles = 60'000;
    config.lowCycles = 30'000;
    // Late kills (restoring the last checkpoint) finish within this
    // budget; early ones (rebooting cold) do not.
    config.recoveryCycles = 60'000;
    fault::TortureRig rig(soc::makeCrc32Program(2048, 11), config);
    ASSERT_GE(rig.checkpointCount(), 2u);
    const std::uint64_t first = rig.commitWindow(0).begin;
    const std::uint64_t last =
        rig.commitWindow(rig.checkpointCount() - 1).end;
    const std::uint64_t clean = rig.cleanRunCycles();

    // Every finishing kill is followed by non-finishing ones. With
    // convergence off and one thread, kills recover in input order on
    // one recycled SoC.
    std::vector<fault::PowerKill> batch;
    for (std::uint64_t i = 1; i <= 4; ++i) {
        batch.push_back(fault::PowerKill{last + (clean - last) * i / 6, 0, 0});
        batch.push_back(fault::PowerKill{first * i / 6, 0, 0});
        batch.push_back(fault::PowerKill{first * i / 6 + 97, 0, 0});
    }
    std::vector<fault::TortureOutcome> ref;
    std::size_t finished = 0;
    for (const fault::PowerKill &kill : batch) {
        ref.push_back(rig.runKill(kill));
        ASSERT_TRUE(ref.back().killed);
        finished += ref.back().finished ? 1 : 0;
    }
    ASSERT_EQ(finished, 4u) << "only the late kills may finish";
    for (std::size_t i = 0; i < batch.size(); i += 3)
        ASSERT_TRUE(ref[i].finished) << "kill " << i;

    rig.setConvergenceEnabled(false);
    util::ThreadPool one(1);
    const auto graded = rig.runKills(batch, &one);
    ASSERT_EQ(graded.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        expectSameOutcome(ref[i], graded[i], i);
}

// ---------------------------------------------------------------------
// Wire v2: exhaustive point-range shards and coverage maps
// ---------------------------------------------------------------------

TEST(WireV2, TortureJobExhaustiveFieldsRoundTrip)
{
    serve::TortureJob job;
    job.workload.kind = serve::WorkloadSpec::Kind::kCrc32;
    job.workload.a = 1024;
    job.seed = 0xfeedface;
    job.exhaustivePoints = 1'000'000;
    job.pointOffset = 123'456;
    job.pointCount = 10'000;
    job.coverageMap = 1;

    const std::vector<std::uint8_t> bytes =
        serve::encodeRequestPayload(serve::Request{job});
    serve::Request decoded;
    std::string err;
    ASSERT_TRUE(serve::decodeRequestPayload(
        serve::MsgKind::kTorture, bytes.data(), bytes.size(), decoded,
        err))
        << err;
    const auto *t = std::get_if<serve::TortureJob>(&decoded);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->exhaustivePoints, job.exhaustivePoints);
    EXPECT_EQ(t->pointOffset, job.pointOffset);
    EXPECT_EQ(t->pointCount, job.pointCount);
    EXPECT_EQ(t->coverageMap, job.coverageMap);
}

TEST(WireV2, TortureResultCoverageRoundTrip)
{
    serve::TortureResult res;
    res.cleanCycles = 777;
    res.points = 2;
    res.outcomeFlags = {0x1f, 0x00};
    res.results = {0xdeadbeef, 0};
    serve::TortureCoverageWire c;
    c.addr = 0x8000'0010;
    c.cls = 2;
    c.rank = 5;
    c.points = 2;
    c.killed = 1;
    c.correct = 1;
    c.incorrect = 1;
    c.coldRestarts = 1;
    c.killTears = 1;
    res.coverage.push_back(c);

    const std::vector<std::uint8_t> bytes =
        serve::encodeResponsePayload(serve::Response{res});
    serve::Response decoded;
    std::string err;
    ASSERT_TRUE(serve::decodeResponsePayload(
        serve::MsgKind::kTortureReply, bytes.data(), bytes.size(),
        decoded, err))
        << err;
    const auto *t = std::get_if<serve::TortureResult>(&decoded);
    ASSERT_NE(t, nullptr);
    ASSERT_EQ(t->coverage.size(), 1u);
    EXPECT_EQ(t->coverage[0].addr, c.addr);
    EXPECT_EQ(t->coverage[0].cls, c.cls);
    EXPECT_EQ(t->coverage[0].rank, c.rank);
    EXPECT_EQ(t->coverage[0].points, c.points);
    EXPECT_EQ(t->coverage[0].killed, c.killed);
    EXPECT_EQ(t->coverage[0].killTears, c.killTears);
}

TEST(WireV2, MergeRejectsGoldenRunMismatchUntouched)
{
    serve::TortureResult a, b;
    a.cleanCycles = 100;
    a.points = 1;
    a.outcomeFlags = {1};
    a.results = {2};
    b = a;
    b.cleanCycles = 101;
    const serve::TortureResult before = a;
    std::string err;
    EXPECT_FALSE(serve::mergeTortureResult(a, b, err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(a.points, before.points);
    EXPECT_EQ(a.outcomeFlags, before.outcomeFlags);
}

TEST(WireV2, MergeRejectsClassRankMismatchUntouched)
{
    serve::TortureResult a, b;
    a.points = 1;
    a.outcomeFlags = {1};
    a.results = {2};
    serve::TortureCoverageWire c;
    c.addr = 0x100;
    c.cls = 2;
    c.rank = 1;
    c.points = 1;
    a.coverage.push_back(c);
    b = a;
    b.coverage[0].cls = 0;
    std::string err;
    EXPECT_FALSE(serve::mergeTortureResult(a, b, err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(a.points, 1u);
    EXPECT_EQ(a.coverage[0].cls, 2u);
}

TEST(WireV2, MergeSumsCountersAndKeepsCoverageSorted)
{
    serve::TortureResult a;
    a.points = 2;
    a.killed = 1;
    a.outcomeFlags = {1, 0};
    a.results = {10, 20};
    serve::TortureCoverageWire c1;
    c1.addr = 0x200;
    c1.cls = 2;
    c1.points = 2;
    c1.killed = 1;
    a.coverage.push_back(c1);

    serve::TortureResult b;
    b.points = 1;
    b.killed = 1;
    b.outcomeFlags = {3};
    b.results = {30};
    serve::TortureCoverageWire c2;
    c2.addr = 0x100;
    c2.cls = 0;
    c2.points = 1;
    c2.killed = 1;
    b.coverage.push_back(c2);
    serve::TortureCoverageWire c3 = c1;
    c3.points = 1;
    c3.killed = 1;
    b.coverage.push_back(c3);

    std::string err;
    ASSERT_TRUE(serve::mergeTortureResult(a, b, err)) << err;
    EXPECT_EQ(a.points, 3u);
    EXPECT_EQ(a.killed, 2u);
    EXPECT_EQ(a.outcomeFlags,
              (std::vector<std::uint8_t>{1, 0, 3}));
    EXPECT_EQ(a.results, (std::vector<std::uint32_t>{10, 20, 30}));
    ASSERT_EQ(a.coverage.size(), 2u);
    EXPECT_EQ(a.coverage[0].addr, 0x100u);
    EXPECT_EQ(a.coverage[1].addr, 0x200u);
    EXPECT_EQ(a.coverage[1].points, 3u);
    EXPECT_EQ(a.coverage[1].killed, 2u);
}

// ---------------------------------------------------------------------
// Engine: sharded exhaustive campaigns merge to the unsharded bytes
// ---------------------------------------------------------------------

serve::TortureJob
campaignJob()
{
    serve::TortureJob job;
    job.workload.kind = serve::WorkloadSpec::Kind::kCrc32;
    job.workload.a = 1024;
    job.workload.seed = 7;
    job.seed = 0x5eed;
    job.exhaustivePoints = 160;
    job.coverageMap = 1;
    return job;
}

TEST(EngineExhaustive, ShardedCampaignMergesToTheUnshardedBytes)
{
    serve::Engine engine(serve::Engine::Options{2, 16u << 20, ""});

    const serve::Response full =
        engine.execute(serve::Request{campaignJob()});
    const auto *whole = std::get_if<serve::TortureResult>(&full);
    ASSERT_NE(whole, nullptr);
    ASSERT_EQ(whole->points, 160u);
    ASSERT_FALSE(whole->coverage.empty());

    serve::TortureResult merged;
    for (int s = 0; s < 4; ++s) {
        serve::TortureJob shard = campaignJob();
        shard.pointOffset = std::uint64_t(s) * 40;
        shard.pointCount = 40;
        const serve::Response resp =
            engine.execute(serve::Request{shard});
        const auto *part = std::get_if<serve::TortureResult>(&resp);
        ASSERT_NE(part, nullptr) << "shard " << s;
        if (s == 0) {
            merged = *part;
            continue;
        }
        std::string err;
        ASSERT_TRUE(serve::mergeTortureResult(merged, *part, err))
            << err;
    }
    EXPECT_EQ(serve::encodeResponsePayload(serve::Response{merged}),
              serve::encodeResponsePayload(full));
}

TEST(EngineExhaustive, NoSnapshotEnvProducesTheSameBytes)
{
    const serve::Response forked = [] {
        serve::Engine engine(serve::Engine::Options{2, 16u << 20, ""});
        return engine.execute(serve::Request{campaignJob()});
    }();
    const serve::Response legacy = [] {
        EnvGuard guard("FS_NO_SNAPSHOT", "1");
        serve::Engine engine(serve::Engine::Options{2, 16u << 20, ""});
        return engine.execute(serve::Request{campaignJob()});
    }();
    EXPECT_EQ(serve::encodeResponsePayload(legacy),
              serve::encodeResponsePayload(forked));
}

TEST(EngineExhaustive, RejectsMalformedShardRanges)
{
    serve::Engine engine(serve::Engine::Options{1, 16u << 20, ""});

    serve::TortureJob job = campaignJob();
    job.pointOffset = 160; // at the end: nothing to grade
    const serve::Response r1 = engine.execute(serve::Request{job});
    EXPECT_NE(std::get_if<serve::ErrorResult>(&r1), nullptr);

    job = campaignJob();
    job.pointOffset = 100;
    job.pointCount = 100; // runs past the campaign
    const serve::Response r2 = engine.execute(serve::Request{job});
    EXPECT_NE(std::get_if<serve::ErrorResult>(&r2), nullptr);

    job = campaignJob();
    job.exhaustivePoints = 200'000'000; // over the 1e8 cap
    const serve::Response r3 = engine.execute(serve::Request{job});
    EXPECT_NE(std::get_if<serve::ErrorResult>(&r3), nullptr);

    job = campaignJob();
    job.exhaustivePoints = 1'000'000; // whole-campaign shard > 1e5
    const serve::Response r4 = engine.execute(serve::Request{job});
    EXPECT_NE(std::get_if<serve::ErrorResult>(&r4), nullptr);
}

} // namespace
} // namespace fs
