/**
 * @file
 * Snapshot-fork fault grading tests: PagedImage copy-on-write
 * semantics and incremental keys, translated blocks across power
 * failures, forked torture campaigns against the replay-from-boot
 * reference (at 1 and 8 threads, from concurrent calls, and on one
 * recycled recovery SoC), the v2 wire format's
 * exhaustive point-range shards and coverage maps, and shard-merge
 * byte-identity through the engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
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
#include "util/hash.h"
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
        const std::size_t allocated = delta.captureDirty(mem, base, dirty);
        EXPECT_EQ(delta.key(), fresh.key());
        EXPECT_EQ(allocated, soc::distinctPageBytes({&base, &delta}) -
                                 soc::distinctPageBytes({&base}));
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

TEST(PagedImage, MaskedKeyAndCompareSeeOnlyUnmaskedBytes)
{
    // Ranges that start and end mid-page, share a page, span a page
    // boundary, and end in the short final page.
    constexpr std::size_t kPage = soc::PagedImage::kPageBytes;
    constexpr std::size_t kSize = 8 * kPage + 60;
    const std::vector<soc::ByteRange> mask = {
        {10, 20}, {30, 2 * kPage + 5}, {5 * kPage - 3, 5 * kPage + 4},
        {8 * kPage + 10, kSize}};
    const auto masked = [&](std::size_t addr) {
        for (const soc::ByteRange &r : mask)
            if (addr >= r.begin && addr < r.end)
                return true;
        return false;
    };
    XorShift rng{0xC0FFEE42u};
    std::vector<std::uint8_t> base_mem(kSize);
    for (std::uint8_t &b : base_mem)
        b = std::uint8_t(rng.next());
    soc::PagedImage base;
    base.capture(base_mem, nullptr);
    soc::DirtyPages none;
    none.reset(9);

    for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        std::vector<std::uint8_t> mem = base_mem;
        soc::DirtyPages dirty;
        dirty.reset(9);
        for (std::size_t w = rng.next() % 6; w > 0; --w) {
            const std::size_t addr = rng.next() % kSize;
            mem[addr] = std::uint8_t(rng.next());
            dirty.mark(addr / kPage);
        }
        bool outside = false; // an unmasked byte changed
        for (std::size_t a = 0; a < kSize; ++a)
            outside = outside || (!masked(a) && mem[a] != base_mem[a]);
        // The masked key is the plain key of the image with every
        // masked byte zeroed.
        std::vector<std::uint8_t> zeroed = mem;
        for (std::size_t a = 0; a < kSize; ++a)
            if (masked(a))
                zeroed[a] = 0;
        soc::PagedImage z;
        z.capture(zeroed, nullptr);
        EXPECT_EQ(soc::PagedImage::maskedKeyOf(mem, base, dirty, mask),
                  z.key());
        EXPECT_EQ(soc::PagedImage::maskedKeyOf(mem, base, dirty, mask) ==
                      soc::PagedImage::maskedKeyOf(base_mem, base, none,
                                                   mask),
                  !outside);
        EXPECT_EQ(base.matchesOutside(mem, base, dirty, mask), !outside);
        EXPECT_TRUE(base.matchesOutside(mem, base, dirty, {{0, kSize}}));
        soc::PagedImage held;
        held.captureDirty(mem, base, dirty);
        EXPECT_TRUE(held.matchesOutside(mem, base, dirty, mask));
        EXPECT_EQ(held.matchesOutside(base_mem, base, none, mask),
                  !outside);
    }
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
    EXPECT_EQ(a.site, b.site) << "kill " << i;
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
    const std::vector<fault::PowerKill> batch = kills();
    const std::vector<fault::TortureOutcome> &ref = reference();

    // Both calls share the rig (and its recycled SoCs) but not a memo:
    // each recovers its own leaders and counts its own hits.
    std::vector<fault::ConvergeStats> stats{rig().convergeStats()};
    util::ThreadPool one(1);
    util::ThreadPool eight(8);
    for (util::ThreadPool *pool : {&one, &eight}) {
        const auto forked = rig().runKills(batch, pool);
        ASSERT_EQ(forked.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            expectSameOutcome(ref[i], forked[i], i);
        stats.push_back(rig().convergeStats());
    }

    EXPECT_GT(stats[2].goldenSnapshots, 1u);
    const std::size_t entries1 = stats[1].memoEntries - stats[0].memoEntries;
    const std::size_t hits1 = stats[1].memoHits - stats[0].memoHits;
    EXPECT_GT(entries1, 0u);
    EXPECT_GT(hits1, 0u) << "kills sharing a key should share a recovery";
    EXPECT_EQ(stats[2].memoEntries - stats[1].memoEntries, entries1)
        << "the second call should recover as many leaders as the first";
    EXPECT_EQ(stats[2].memoHits - stats[1].memoHits, hits1);
    EXPECT_GT(rig().snapshotMemoryBytes(), 0u);
}

TEST_F(SnapshotFork, RigsSharingOneGoldenRunGradeConcurrently)
{
    // Three callers over one immutable golden run, each from its own
    // thread and pool: two share rig `a` (its benches and counters) and
    // grade the batch twice each, the third grades it once on rig `b`.
    const std::vector<fault::PowerKill> batch = kills();
    const std::vector<fault::TortureOutcome> &ref = reference();
    fault::TortureRig a(rig().golden());
    fault::TortureRig b(rig().golden());
    std::vector<std::vector<fault::TortureOutcome>> outs(5);
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < 3; ++t)
        callers.emplace_back([&, t] {
            util::ThreadPool pool(2);
            if (t == 2) {
                outs[4] = b.runKills(batch, &pool);
                return;
            }
            for (std::size_t c = 0; c < 2; ++c)
                outs[2 * t + c] = a.runKills(batch, &pool);
        });
    for (std::thread &caller : callers)
        caller.join();
    for (const std::vector<fault::TortureOutcome> &out : outs) {
        ASSERT_EQ(out.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            expectSameOutcome(ref[i], out[i], i);
    }
    const fault::ConvergeStats sa = a.convergeStats();
    const fault::ConvergeStats sb = b.convergeStats();
    EXPECT_EQ(sa.goldenSnapshots, rig().convergeStats().goldenSnapshots);
    // Every call grades on its own, so `a`'s four calls, two at a time,
    // count exactly four times `b`'s one.
    EXPECT_GT(sb.memoEntries, 0u);
    EXPECT_EQ(sa.memoEntries, 4 * sb.memoEntries);
    EXPECT_EQ(sa.memoHits, 4 * sb.memoHits);
    EXPECT_EQ(sa.fallbacks, 4 * sb.fallbacks);
}

TEST_F(SnapshotFork, BootAndCommitWindowImagesGradeFromTheWriteLog)
{
    // The golden run keeps only the boot and commit-window images;
    // kills are graded from the write log, with the reference verdicts.
    fault::TortureRig fresh(rig().golden());
    EXPECT_EQ(fresh.convergeStats().goldenSnapshots,
              1 + 2 * fresh.checkpointCount());

    const std::vector<fault::PowerKill> batch = kills();
    const std::vector<fault::TortureOutcome> &ref = reference();
    util::ThreadPool pool(4);
    fault::PruneStats stats;
    const auto graded = fresh.runKills(batch, &pool, &stats);
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

    for (util::ThreadPool *pool : {&one, &eight}) {
        const auto graded = rig().runKills(batch, pool);
        ASSERT_EQ(graded.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            expectSameOutcome(ref[i], graded[i], i);
    }
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
// Memo keys on the restored checkpoint
// ---------------------------------------------------------------------

/** Kills that fire before the app's last step: the memoized ones. */
std::vector<fault::PowerKill>
memoizedOnly(const fault::GoldenRun &g, std::vector<fault::PowerKill> kills)
{
    kills.erase(std::remove_if(kills.begin(), kills.end(),
                               [&](const fault::PowerKill &k) {
                                   return g.stepAt(k.cycle) + 1 >=
                                          g.probeSteps.size();
                               }),
                kills.end());
    return kills;
}

/** A kill on every @p every-th FRAM-storing golden step, landing, torn
 *  back whole, and torn with noise. */
std::vector<fault::PowerKill>
storingStepKills(const fault::GoldenRun &g, std::size_t every)
{
    std::vector<fault::PowerKill> out;
    std::size_t n = 0;
    for (std::size_t s = 0; s < g.probeSteps.size(); ++s) {
        if (!g.stepWrote(s) || n++ % every != 0)
            continue;
        const std::uint64_t c = g.probeSteps[s].cycleAfter;
        out.push_back(fault::PowerKill{c, 4, 0});
        out.push_back(fault::PowerKill{c, 0, 0});
        out.push_back(fault::PowerKill{c, 1, 0x5A5A5A5Au});
    }
    return out;
}

/** Memo key of a death image, keyed from scratch. */
std::uint64_t
keyOfDeath(const std::vector<std::uint8_t> &fram,
           const soc::CheckpointLayout &layout)
{
    soc::PagedImage base;
    base.capture(fram, nullptr);
    soc::DirtyPages none;
    none.reset(base.pages().size());
    return fault::recoveryKeyOf(fault::recoveryMaskOf(fram, layout), fram,
                                base, none);
}

/** The layout every torture rig of these tests runs on. */
soc::CheckpointLayout
rigLayout()
{
    soc::CheckpointLayout layout;
    layout.sramSize = fault::TortureConfig{}.sramSize;
    return layout;
}

/** What a recovery holds at the first instruction of app code. */
struct Reentry {
    std::uint64_t cycles = 0; ///< since power-on
    riscv::Hart::ArchState arch;
    std::vector<std::uint8_t> sram;
};

Reentry
bootToApp(soc::Soc &sys, const std::vector<std::uint8_t> &fram)
{
    sys.powerFail();
    std::copy(fram.begin(), fram.end(), sys.fram().data().begin());
    sys.powerOn();
    const std::uint64_t start = sys.hart().cycles();
    for (int i = 0; i < 1'000'000 && sys.hart().pc() < sys.layout().appBase;
         ++i)
        sys.step();
    Reentry r;
    r.cycles = sys.hart().cycles() - start;
    r.arch = sys.hart().saveArch();
    r.sram = sys.sram().data();
    return r;
}

TEST(RecoveryKey, KeyGroupsReenterTheAppInOneState)
{
    // Every image sharing a memo key must reach app code with the same
    // cycle count, pc, x1-x31, CSRs and SRAM: the boot path the key's
    // tag fixes, restoring what its unmasked bytes hold. From the third
    // checkpoint on, a commit overwrites a committed slot, so a torn
    // first store can leave the slot the boot does not restore valid.
    fault::TortureConfig config;
    config.stableCycles = 60'000;
    config.lowCycles = 30'000;
    const fault::TortureRig rig(soc::makeCrc32Program(4096, 11), config);
    ASSERT_GE(rig.checkpointCount(), 3u);
    const fault::GoldenRun &g = *rig.golden();
    std::vector<fault::PowerKill> batch = storingStepKills(g, 1);
    for (std::uint64_t c = g.cleanCycles / 64; c < g.cleanCycles;
         c += g.cleanCycles / 64)
        batch.push_back(fault::PowerKill{c, 0, 0});
    batch = memoizedOnly(g, std::move(batch));
    const soc::CheckpointLayout layout = rigLayout();

    std::vector<std::uint64_t> keys(batch.size());
    std::vector<Reentry> states(batch.size());
    constexpr std::size_t kWorkers = 4;
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kWorkers; ++t)
        workers.emplace_back([&, t] {
            SocBench b = makeBench();
            for (std::size_t i = t; i < batch.size(); i += kWorkers) {
                const std::vector<std::uint8_t> fram =
                    rig.deathFram(batch[i]);
                keys[i] = keyOfDeath(fram, layout);
                states[i] = bootToApp(*b.soc, fram);
            }
        });
    for (std::thread &w : workers)
        w.join();

    std::unordered_map<std::uint64_t, std::size_t> first;
    std::size_t shared = 0;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_GE(states[i].arch.pc, layout.appBase) << "kill " << i;
        const auto at = first.emplace(keys[i], i);
        if (at.second)
            continue;
        ++shared;
        const Reentry &a = states[at.first->second];
        const Reentry &b = states[i];
        if (a.cycles != b.cycles || a.arch.pc != b.arch.pc ||
            a.arch.regs != b.arch.regs || a.arch.csrs != b.arch.csrs ||
            a.sram != b.sram) {
            if (mismatches++ == 0)
                ADD_FAILURE() << "kills " << at.first->second << " and " << i
                              << " share a key but re-enter at cycles "
                              << a.cycles << " / " << b.cycles << ", pc 0x"
                              << std::hex << a.arch.pc << " / 0x"
                              << b.arch.pc;
        }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(shared, batch.size() / 2) << "keys should collapse images";
    EXPECT_GT(first.size(), 2 * rig.checkpointCount());
}

TEST_F(SnapshotFork, RecoveriesRunOncePerKeyAtOneAndEightThreads)
{
    const fault::GoldenRun &g = *rig().golden();
    std::vector<fault::PowerKill> batch = kills();
    const std::vector<fault::PowerKill> storing = storingStepKills(g, 7);
    batch.insert(batch.end(), storing.begin(), storing.end());
    batch = memoizedOnly(g, std::move(batch));
    std::unordered_set<std::uint64_t> keys;
    for (const fault::PowerKill &kill : batch)
        keys.insert(keyOfDeath(rig().deathFram(kill), rigLayout()));

    util::ThreadPool one(1);
    util::ThreadPool eight(8);
    std::vector<fault::ConvergeStats> stats;
    std::vector<std::vector<fault::TortureOutcome>> graded;
    for (util::ThreadPool *pool : {&one, &eight}) {
        fault::TortureRig fresh(rig().golden());
        fault::PruneStats prune;
        graded.push_back(fresh.runKills(batch, pool, &prune));
        stats.push_back(fresh.convergeStats());
        EXPECT_EQ(stats.back().memoEntries, keys.size())
            << "one recovery per distinct key";
        EXPECT_EQ(stats.back().memoEntries + stats.back().memoHits,
                  prune.executedKills)
            << "every distinct death image recovered or hit";
        EXPECT_EQ(stats.back().fallbacks, 0u);
    }
    EXPECT_EQ(stats[0].memoEntries, stats[1].memoEntries);
    EXPECT_EQ(stats[0].memoHits, stats[1].memoHits);
    EXPECT_LT(keys.size(), batch.size() / 4);
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectSameOutcome(graded[0][i], graded[1][i], i);
}

/**
 * Points [@p offset, @p offset + @p count) of an exhaustive campaign of
 * @p points kills: ascending in cycle, with every kill's tear drawn
 * from (seed, point), storing step or not.
 */
std::vector<fault::PowerKill>
exhaustiveShard(const fault::GoldenRun &g, std::uint64_t points,
                std::uint64_t offset, std::uint64_t count,
                std::uint64_t seed)
{
    std::vector<fault::PowerKill> out;
    for (std::uint64_t i = offset; i < offset + count; ++i) {
        Rng rng = util::rngForIndex(seed, i);
        fault::PowerKill kill;
        kill.cycle = i * g.cleanCycles / points;
        kill.tearBytesKept = unsigned(rng.uniformInt(0, 4));
        kill.tearFlipMask = std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
        out.push_back(kill);
    }
    return out;
}

TEST_F(SnapshotFork, KillStepWalkEqualsBinarySearch)
{
    const fault::GoldenRun &g = *rig().golden();
    const std::size_t n = g.probeSteps.size();
    // An exhaustive shard, denser than one kill per step, then every
    // cycle of one commit window and the cycles around the run's end.
    std::vector<fault::PowerKill> shard =
        exhaustiveShard(g, 3 * n, n / 2, n / 4, 1);
    const fault::CommitWindow w = rig().commitWindow(0);
    for (std::uint64_t c = w.begin - 3; c <= w.end + 3; ++c)
        shard.push_back(fault::PowerKill{c, 0, 0});
    for (std::uint64_t c = g.cleanCycles - 3; c <= g.cleanCycles + 3; ++c)
        shard.push_back(fault::PowerKill{c, 0, 0});

    // A sampled batch: random cycles (some past the end), repeated
    // ones, shuffled.
    std::vector<fault::PowerKill> sampled;
    Rng rng(0x5EED);
    for (int i = 0; i < 4000; ++i)
        sampled.push_back(fault::PowerKill{
            std::uint64_t(rng.uniformInt(
                0, std::int64_t(g.cleanCycles + g.cleanCycles / 50))),
            0, 0});
    sampled.insert(sampled.end(), sampled.begin(), sampled.begin() + 100);
    rng.shuffle(sampled);

    for (const auto *batch : {&shard, &sampled}) {
        const std::vector<std::size_t> steps = g.killSteps(*batch);
        ASSERT_EQ(steps.size(), batch->size());
        for (std::size_t i = 0; i < batch->size(); ++i)
            ASSERT_EQ(steps[i], g.stepAt((*batch)[i].cycle))
                << "kill " << i << " at cycle " << (*batch)[i].cycle;
    }

    // The gallop from any step at or before the answer finds it.
    for (std::size_t i = 0; i < sampled.size(); i += 37) {
        const std::uint64_t c = sampled[i].cycle;
        const std::size_t at = g.stepAt(c);
        for (std::size_t back : {0, 1, 2, 3, 5, 8, 100, 4097}) {
            if (back > at)
                continue;
            ASSERT_EQ(g.stepAtFrom(at - back, c), at)
                << "cycle " << c << " from " << at - back;
        }
    }
}

/**
 * Check g.pointKills(@p seed, @p points, @p offset, @p count) against
 * its definition point by point: point i kills at
 * floor(i * cleanCycles / points) and carries rngForIndex(seed, i)'s
 * tear exactly when that cycle lands on a storing step. Returns how
 * many of the points tear.
 */
std::size_t
expectPointKills(const fault::GoldenRun &g, std::uint64_t seed,
                 std::uint64_t points, std::uint64_t offset,
                 std::uint64_t count)
{
    const std::vector<fault::PowerKill> kills =
        g.pointKills(seed, points, offset, count);
    EXPECT_EQ(kills.size(), count);
    std::size_t tearing = 0;
    for (std::size_t k = 0; k < kills.size(); ++k) {
        const std::uint64_t i = offset + k;
        fault::PowerKill want{i * g.cleanCycles / points, 0, 0};
        const std::size_t step = g.stepAt(want.cycle);
        if (step < g.probeSteps.size() && g.stepWrote(step)) {
            Rng rng = util::rngForIndex(seed, i);
            want.tearBytesKept = unsigned(rng.uniformInt(0, 4));
            want.tearFlipMask =
                std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
            ++tearing;
        }
        const fault::PowerKill &got = kills[k];
        if (got.cycle != want.cycle ||
            got.tearBytesKept != want.tearBytesKept ||
            got.tearFlipMask != want.tearFlipMask) {
            ADD_FAILURE() << "point " << i << " of " << points
                          << " (shard at " << offset << ", step " << step
                          << ")";
            break;
        }
    }
    return tearing;
}

TEST(PointKills, EveryShardOfTheGradeCampaignTearsOnStoringStepsOnly)
{
    // perfbench's `grade` campaign: CRC-32 over 4096 bytes (data seed
    // 11), 60k stable / 30k brown-out cycles, 48,000 points in 8
    // shards.
    fault::TortureConfig config;
    config.stableCycles = 60'000;
    config.lowCycles = 30'000;
    const std::shared_ptr<const fault::GoldenRun> g =
        fault::GoldenRun::build(soc::makeCrc32Program(4096, 11), config);
    ASSERT_TRUE(g);
    constexpr std::uint64_t kPoints = 48'000;
    constexpr std::uint64_t kShards = 8;
    for (std::uint64_t seed : {1ull, 7919ull}) {
        std::size_t tearing = 0;
        for (std::uint64_t s = 0; s < kShards; ++s)
            tearing += expectPointKills(*g, seed, kPoints,
                                        s * kPoints / kShards,
                                        kPoints / kShards);
        EXPECT_GT(tearing, 0u) << "seed " << seed;
        EXPECT_LT(tearing, kPoints / 2) << "seed " << seed;
    }
    // The first and the last point, each as a 1-point shard.
    expectPointKills(*g, 1, kPoints, 0, 1);
    expectPointKills(*g, 1, kPoints, kPoints - 1, 1);
}

TEST_F(SnapshotFork, PointKillsDenserThanCyclesTearOnStoringStepsOnly)
{
    // More points than cycles: up to four points share each cycle, and
    // every storing step's first and last cycle are some point's.
    const fault::GoldenRun &g = *rig().golden();
    const std::uint64_t points = 3 * g.cleanCycles + 1;
    const fault::CommitWindow w = rig().commitWindow(0);
    const std::uint64_t offset = (w.begin - 4) * points / g.cleanCycles;
    const std::uint64_t count =
        (w.end + 4) * points / g.cleanCycles - offset;
    EXPECT_GT(expectPointKills(g, 9, points, offset, count), 0u);

    // Every point of that range as a 1-point shard, so each storing
    // step's first and last point start and end a shard.
    const std::vector<fault::PowerKill> shard =
        g.pointKills(9, points, offset, count);
    for (std::uint64_t k = 0; k < count; ++k) {
        const std::vector<fault::PowerKill> one =
            g.pointKills(9, points, offset + k, 1);
        ASSERT_EQ(one.size(), 1u);
        ASSERT_EQ(one[0].cycle, shard[k].cycle) << "point " << offset + k;
        ASSERT_EQ(one[0].tearBytesKept, shard[k].tearBytesKept)
            << "point " << offset + k;
        ASSERT_EQ(one[0].tearFlipMask, shard[k].tearFlipMask)
            << "point " << offset + k;
    }
    expectPointKills(g, 9, points, 0, 1);
    expectPointKills(g, 9, points, points - 1, 1);
}

TEST_F(SnapshotFork, ShuffledShardGradesLikeTheAscendingShard)
{
    const fault::GoldenRun &g = *rig().golden();
    // A shard whose kills ascend in cycle, a few of them past the end.
    std::vector<fault::PowerKill> ascending =
        exhaustiveShard(g, 2000, 0, 2000, 7);
    for (std::uint64_t c = g.cleanCycles - 2; c <= g.cleanCycles + 2; ++c)
        ascending.push_back(fault::PowerKill{c, 1, 0x00FF00FFu});
    std::vector<std::size_t> perm(ascending.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = i;
    Rng rng(31);
    rng.shuffle(perm);
    std::vector<fault::PowerKill> shuffled;
    for (const std::size_t i : perm)
        shuffled.push_back(ascending[i]);

    util::ThreadPool pool(4);
    fault::TortureRig a(rig().golden());
    fault::TortureRig b(rig().golden());
    fault::PruneStats pa, pb;
    const auto asc = a.runKills(ascending, &pool, &pa);
    const auto shuf = b.runKills(shuffled, &pool, &pb);
    ASSERT_EQ(shuf.size(), asc.size());
    for (std::size_t j = 0; j < perm.size(); ++j)
        expectSameOutcome(asc[perm[j]], shuf[j], j);

    EXPECT_EQ(pa.executedKills, pb.executedKills);
    EXPECT_EQ(pa.vulnerableKills, pb.vulnerableKills);
    EXPECT_EQ(pa.neverFires, pb.neverFires);
    EXPECT_GT(pa.neverFires, 0u);
    const fault::ConvergeStats sa = a.convergeStats();
    const fault::ConvergeStats sb = b.convergeStats();
    EXPECT_GT(sa.memoHits, 0u);
    EXPECT_EQ(sa.memoEntries, sb.memoEntries);
    EXPECT_EQ(sa.memoHits, sb.memoHits);
    EXPECT_EQ(sa.fallbacks, sb.fallbacks);
}

/**
 * makeCrc32Program(2048, 11), except that it XORs both checkpoint
 * slots' magic words into the CRC before storing it. The fault-free
 * run finishes with both slots committed, so the words cancel; a
 * recovery that restored one slot reads the other one after re-entry.
 */
soc::GuestProgram
otherSlotReadingProgram(const soc::CheckpointLayout &layout)
{
    using namespace riscv;
    soc::GuestProgram prog = soc::makeCrc32Program(2048, 11);
    prog.name = "crc32-reads-both-slots";
    Assembler as(layout.appBase);
    const auto byte_loop = as.newLabel();
    const auto bit_loop = as.newLabel();
    const auto skip_xor = as.newLabel();
    const auto done = as.newLabel();
    as.li(kT0, std::int32_t(prog.dataAddr));
    as.li(kT1, std::int32_t(prog.dataAddr + prog.data.size()));
    as.li(kA2, -1);
    as.li(kT4, std::int32_t(0xedb88320u));
    as.bind(byte_loop);
    as.bgeuTo(kT0, kT1, done);
    as.emit(lbu(kT2, kT0, 0));
    as.emit(xor_(kA2, kA2, kT2));
    as.li(kT5, 8);
    as.bind(bit_loop);
    as.emit(andi(kT3, kA2, 1));
    as.emit(srli(kA2, kA2, 1));
    as.beqTo(kT3, kZero, skip_xor);
    as.emit(xor_(kA2, kA2, kT4));
    as.bind(skip_xor);
    as.emit(addi(kT5, kT5, -1));
    as.bneTo(kT5, kZero, bit_loop);
    as.emit(addi(kT0, kT0, 1));
    as.jTo(byte_loop);
    as.bind(done);
    as.emit(xori(kA2, kA2, -1));
    for (unsigned slot = 0; slot < soc::kCheckpointSlots; ++slot) {
        as.li(kT0, std::int32_t(layout.slotMagicAddr(slot)));
        as.emit(lw(kT1, kT0, 0));
        as.emit(xor_(kA2, kA2, kT1));
    }
    as.li(kT0, std::int32_t(prog.resultAddr));
    as.emit(sw(kA2, kT0, 0));
    as.emit(jalr(kZero, kRa, 0));
    prog.code = as.finalize();
    return prog;
}

TEST(RecoveryWatch, ReadingTheOtherSlotFallsBackToFullImageKeys)
{
    fault::TortureConfig config;
    config.stableCycles = 60'000;
    config.lowCycles = 30'000;
    const soc::CheckpointLayout layout = rigLayout();
    fault::TortureRig rig(otherSlotReadingProgram(layout), config);
    ASSERT_GE(rig.checkpointCount(), 2u);
    const fault::GoldenRun &g = *rig.golden();

    // Every storing step of the second commit window (it overwrites
    // slot 1 while slot 0 is restored), the commit-magic store of every
    // window torn three ways, and kills spread over the run.
    std::vector<fault::PowerKill> batch;
    const fault::CommitWindow w1 = rig.commitWindow(1);
    for (std::size_t s = g.stepAt(w1.begin); s <= g.stepAt(w1.end - 1); ++s)
        if (g.stepWrote(s))
            batch.push_back(fault::PowerKill{g.probeSteps[s].cycleAfter, 4, 0});
    for (std::size_t w = 0; w < rig.checkpointCount(); ++w)
        for (unsigned kept = 1; kept < 4; ++kept)
            batch.push_back(
                fault::PowerKill{rig.commitWindow(w).end - 1, kept, 0});
    for (std::uint64_t c = g.cleanCycles / 16; c < g.cleanCycles;
         c += g.cleanCycles / 16)
        batch.push_back(fault::PowerKill{c, 0, 0});
    batch = memoizedOnly(g, std::move(batch));

    util::ThreadPool pool(4);
    const std::vector<fault::TortureOutcome> ref =
        pool.parallelMap(batch.size(), [&](std::size_t i) {
            return rig.runKill(batch[i]);
        });
    const std::vector<fault::TortureOutcome> graded =
        rig.runKills(batch, &pool);
    ASSERT_EQ(graded.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        expectSameOutcome(ref[i], graded[i], i);

    // A masked key alone would share verdicts that differ.
    std::unordered_map<std::uint64_t, std::uint32_t> result_of;
    bool differ = false;
    // Restored images recover once per full image, cold starts (whose
    // key keeps both magic words) once per masked key.
    std::unordered_set<std::uint64_t> restored_images, cold_keys;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::vector<std::uint8_t> fram = rig.deathFram(batch[i]);
        const std::uint64_t key = keyOfDeath(fram, layout);
        const auto at = result_of.emplace(key, ref[i].result);
        differ = differ || at.first->second != ref[i].result;
        if (ref[i].coldRestart) {
            cold_keys.insert(key);
        } else {
            soc::PagedImage whole;
            whole.capture(fram, nullptr);
            restored_images.insert(whole.key());
        }
    }
    EXPECT_TRUE(differ);
    const fault::ConvergeStats stats = rig.convergeStats();
    EXPECT_GT(stats.fallbacks, 0u);
    EXPECT_EQ(stats.memoEntries, restored_images.size() + cold_keys.size());
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

        // Kills spread over the run up to the patch, one per call on
        // one thread, so each recovers in input order on the rig's one
        // recycled SoC. Each recovery reboots with the unpatched code,
        // runs into the patch, and leaves the code page patched (and,
        // on the DBT tier, the patched loop translated); the next
        // image rebuild must copy the page back and the reboot must
        // drop the blocks.
        util::ThreadPool one(1);
        for (std::uint64_t i = 1; i <= 6; ++i) {
            const fault::PowerKill kill{patch_cycle * i / 7, 0, 0};
            const auto graded = rig.runKills({kill}, &one);
            ASSERT_EQ(graded.size(), 1u);
            const fault::TortureOutcome ref = rig.runKill(kill);
            EXPECT_TRUE(ref.killed) << "kill " << i;
            EXPECT_TRUE(ref.resultCorrect) << "kill " << i;
            expectSameOutcome(ref, graded[0], i);
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

    // Every finishing kill is followed by non-finishing ones. One kill
    // per call on one thread recovers them in input order on the rig's
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

    util::ThreadPool one(1);
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const auto graded = rig.runKills({batch[i]}, &one);
        ASSERT_EQ(graded.size(), 1u);
        expectSameOutcome(ref[i], graded[0], i);
    }
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

/**
 * The reply to exhaustive CRC-32 @p job graded from boot: runKill on
 * every one of the job's point kills.
 */
serve::TortureResult
fromBootReply(const serve::TortureJob &job)
{
    fault::TortureConfig config;
    config.sramSize = job.sramSize;
    config.stableCycles = job.stableCycles;
    config.lowCycles = job.lowCycles;
    const fault::TortureRig rig(
        soc::makeCrc32Program(job.workload.a, job.workload.seed), config);
    const fault::GoldenRun &g = *rig.golden();
    const std::vector<fault::PowerKill> kills = g.pointKills(
        job.seed, job.exhaustivePoints, job.pointOffset,
        job.pointCount != 0 ? job.pointCount
                            : job.exhaustivePoints - job.pointOffset);
    const std::vector<fault::TortureOutcome> outcomes =
        util::ThreadPool::shared().parallelMap(
            kills.size(),
            [&](std::size_t i) { return rig.runKill(kills[i]); });
    return serve::tortureResult(g, outcomes, job.coverageMap != 0);
}

TEST(EngineExhaustive, RepliesMatchFromBootGrading)
{
    serve::Engine engine(serve::Engine::Options{2, 16u << 20, ""});
    const serve::TortureJob job = campaignJob();
    EXPECT_EQ(serve::encodeResponsePayload(
                  engine.execute(serve::Request{job})),
              serve::encodeResponsePayload(fromBootReply(job)));
}

TEST(EngineExhaustive, SmokeCampaignMatchesFromBootAtEveryPoint)
{
    // `fs_client --local campaign --workload crc32 --a 1024 --wseed 7
    // --exhaustive 10000 --digest --coverage-json` under two seeds:
    // one job over every point, and its digest (FNV-1a over the
    // outcome flags, then the results) as replay-from-boot grading
    // recorded it.
    const struct {
        std::uint64_t seed;
        std::uint64_t digest;
    } campaigns[] = {{0xF5C0FFEE, 0xee31260af14e1dc5ull},
                     {77, 0xc81ec0f139ecdf8bull}};
    serve::Engine engine(serve::Engine::Options{0, 64u << 20, ""});
    for (const auto &campaign : campaigns) {
        serve::TortureJob job;
        job.workload.kind = serve::WorkloadSpec::Kind::kCrc32;
        job.workload.a = 1024;
        job.workload.seed = 7;
        job.seed = campaign.seed;
        job.exhaustivePoints = 10'000;
        job.pointCount = 10'000;
        job.coverageMap = 1;
        const serve::TortureResult ref = fromBootReply(job);
        std::uint64_t digest =
            util::fnv1a64(ref.outcomeFlags.data(), ref.outcomeFlags.size());
        digest = util::fnv1a64(ref.results.data(),
                               ref.results.size() * sizeof(std::uint32_t),
                               digest);
        EXPECT_EQ(digest, campaign.digest) << "seed " << campaign.seed;
        EXPECT_FALSE(ref.coverage.empty());
        EXPECT_EQ(serve::encodeResponsePayload(
                      engine.execute(serve::Request{job})),
                  serve::encodeResponsePayload(ref))
            << "seed " << campaign.seed;
    }
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
