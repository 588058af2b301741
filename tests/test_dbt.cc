/**
 * @file
 * DBT-tier mechanics: translation-cache bookkeeping (insert, lookup,
 * byte-budget eviction, chain link/unlink hygiene), superblock
 * chaining on a live hart, eviction under a tiny cache budget with
 * results still bit-identical to the interpreter, every kind of block
 * exit charging the interpreter's cycle and retirement counts, and the
 * FS_NO_TRACE_CACHE / FS_DBT_CACHE_BYTES environment knobs. Tier
 * *equivalence* (interp vs. DBT over random programs, full SoC
 * scenarios, torture campaigns, self-modifying code) lives in
 * test_trace_cache.cc.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "riscv/assembler.h"
#include "riscv/dbt.h"
#include "riscv/hart.h"
#include "riscv/memory.h"
#include "soc/bus.h"

namespace fs {
namespace {

using riscv::DbtBlock;
using riscv::DbtCache;
using riscv::DbtOp;
using riscv::DbtOpcode;

// ---------------------------------------------------------------------
// DbtCache bookkeeping (no hart)
// ---------------------------------------------------------------------

DbtBlock
makeBlock(std::uint32_t base, std::size_t ops)
{
    DbtBlock block;
    block.base = base;
    block.worstTotal = ops;
    for (std::size_t i = 0; i < ops; ++i) {
        DbtOp op;
        op.opcode = DbtOpcode::kAddi;
        block.ops.push_back(op);
    }
    DbtOp tail;
    tail.opcode = DbtOpcode::kFallthrough;
    tail.imm = std::int32_t(base + std::uint32_t(ops) * 4u);
    block.ops.push_back(tail);
    return block;
}

TEST(DbtCache, InsertLookupFlushAndCodeExtent)
{
    DbtCache cache;
    EXPECT_EQ(cache.lookup(0x100), nullptr);
    DbtBlock *a = cache.insert(makeBlock(0x100, 4));
    DbtBlock *b = cache.insert(makeBlock(0x200, 2));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(cache.blockCount(), 2u);
    EXPECT_GT(cache.cacheBytes(), 0u);

    EXPECT_EQ(cache.lookup(0x100), a);
    EXPECT_EQ(cache.lookup(0x100), a); // direct-slot hit second time
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().translations, 2u);

    // The conservative code extent spans both blocks; the tail
    // kFallthrough pseudo-op is not guest code, so each block covers
    // ops*4 bytes.
    EXPECT_TRUE(cache.overlapsCode(0x100, 4));
    EXPECT_TRUE(cache.overlapsCode(0x204, 4));
    EXPECT_FALSE(cache.overlapsCode(0x0fc, 4));
    EXPECT_FALSE(cache.overlapsCode(0x20c, 4));

    const std::uint64_t gen = cache.generation();
    cache.flush();
    EXPECT_EQ(cache.blockCount(), 0u);
    EXPECT_EQ(cache.cacheBytes(), 0u);
    EXPECT_GT(cache.generation(), gen);
    EXPECT_EQ(cache.lookup(0x100), nullptr); // slots cleared too
    EXPECT_FALSE(cache.overlapsCode(0x100, 4));
    EXPECT_EQ(cache.stats().flushes, 1u);
}

TEST(DbtCache, ReplacingABlockUnlinksItsChains)
{
    DbtCache cache;
    DbtBlock *a = cache.insert(makeBlock(0x100, 4));
    DbtBlock *b = cache.insert(makeBlock(0x200, 4));
    // a's tail chains to b, b's tail chains back to a.
    cache.link(&a->ops.back(), b);
    cache.link(&b->ops.back(), a);
    EXPECT_EQ(cache.stats().chainLinks, 2u);

    // Re-inserting at 0x200 (a fresh translation of the same pc) must
    // null a's chain slot -- it points into the freed block -- and
    // must not leak the old block's byte accounting.
    DbtBlock *b2 = cache.insert(makeBlock(0x200, 4));
    ASSERT_NE(b2, nullptr);
    EXPECT_EQ(cache.blockCount(), 2u);
    EXPECT_EQ(a->ops.back().chain, nullptr);
    EXPECT_GE(cache.stats().unlinks, 1u);
    EXPECT_EQ(cache.lookup(0x200), b2);

    // Replace-and-relink repeatedly: the byte accounting must reach a
    // fixed point (any per-cycle leak -- in either direction -- would
    // show up as monotone drift here).
    cache.link(&a->ops.back(), b2);
    const std::size_t steady = cache.cacheBytes();
    for (int i = 0; i < 10; ++i) {
        DbtBlock *fresh = cache.insert(makeBlock(0x200, 4));
        cache.link(&a->ops.back(), fresh);
        EXPECT_EQ(cache.cacheBytes(), steady) << "cycle " << i;
    }
}

TEST(DbtCache, ByteBudgetEvictsLruAndUnlinksBothDirections)
{
    DbtCache cache;
    DbtBlock *a = cache.insert(makeBlock(0x100, 8));
    const std::size_t one_block = cache.cacheBytes();
    DbtBlock *b = cache.insert(makeBlock(0x200, 8));
    DbtBlock *c = cache.insert(makeBlock(0x300, 8));
    cache.link(&a->ops.back(), b); // a -> b
    cache.link(&b->ops.back(), c); // b -> c

    // Touch a and c so b is the LRU, then shrink the budget to three
    // blocks' worth (plus slack for the chain back-refs) and trigger
    // eviction with a fourth insert.
    cache.lookup(0x100);
    cache.lookup(0x300);
    cache.setBudgetBytes(3 * one_block + 64);
    DbtBlock *d = cache.insert(makeBlock(0x400, 8));
    ASSERT_NE(d, nullptr);

    EXPECT_GE(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.lookup(0x200), nullptr) << "LRU block evicted";
    // The chain INTO the victim is nulled (a would otherwise jump
    // into freed memory)...
    EXPECT_EQ(a->ops.back().chain, nullptr);
    EXPECT_GE(cache.stats().unlinks, 1u);
    // ...and the victim's own outgoing back-ref was dropped from c,
    // so evicting c later must not touch freed memory. The insert
    // below replaces 0x300's entry, which walks c's incoming list.
    DbtBlock *c2 = cache.insert(makeBlock(0x300, 8));
    ASSERT_NE(c2, nullptr);
    EXPECT_EQ(cache.lookup(0x100), a);
}

TEST(DbtCache, SelfLoopUnlinkedOnEviction)
{
    DbtCache cache;
    DbtBlock *a = cache.insert(makeBlock(0x100, 8));
    cache.link(&a->ops.back(), a); // hot single-block loop
    EXPECT_EQ(a->ops.back().chain, a);
    cache.setBudgetBytes(1); // nothing fits...
    // ...but insert never evicts the block it just inserted, so the
    // new block displaces only the self-looped one.
    DbtBlock *b = cache.insert(makeBlock(0x200, 8));
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(cache.blockCount(), 1u);
    EXPECT_EQ(cache.lookup(0x100), nullptr);
    EXPECT_GE(cache.stats().unlinks, 1u);
}

// ---------------------------------------------------------------------
// Environment knobs
// ---------------------------------------------------------------------

TEST(DbtCache, EnvKillSwitchDisablesTier)
{
    // A tiny program the fast path would otherwise translate.
    riscv::Ram ram(256);
    ram.loadWords(0, {riscv::addi(riscv::kA0, riscv::kA0, 1),
                      riscv::addi(riscv::kA0, riscv::kA0, 2),
                      riscv::ebreak()});
    setenv("FS_NO_TRACE_CACHE", "1", 1);
    riscv::Hart off(ram);
    unsetenv("FS_NO_TRACE_CACHE");
    EXPECT_FALSE(off.traceCacheEnabled());
    off.reset(0);
    EXPECT_EQ(off.runDecoded(100), 0u) << "fast path must be off";
    off.run(100);
    EXPECT_TRUE(off.halted());
    EXPECT_EQ(off.reg(riscv::kA0), 3u);
    EXPECT_EQ(off.dbtCache().stats().translations, 0u);

    riscv::Hart on(ram);
    EXPECT_TRUE(on.traceCacheEnabled());
    on.reset(0);
    EXPECT_EQ(on.runDecoded(100), 2u) << "both addis run translated";
    EXPECT_EQ(on.dbtCache().stats().translations, 1u);
    on.run(100);
    EXPECT_TRUE(on.halted());
    EXPECT_EQ(on.reg(riscv::kA0), 3u);
}

TEST(DbtCache, EnvKillSwitchZeroLeavesFastPathOn)
{
    riscv::Ram ram(256);
    ram.loadWords(0, {riscv::addi(riscv::kA0, riscv::kA0, 1),
                      riscv::addi(riscv::kA0, riscv::kA0, 2),
                      riscv::ebreak()});
    for (const char *value : {"0", ""}) {
        setenv("FS_NO_TRACE_CACHE", value, 1);
        riscv::Hart hart(ram);
        unsetenv("FS_NO_TRACE_CACHE");
        EXPECT_TRUE(hart.traceCacheEnabled()) << "value '" << value << "'";
        hart.reset(0);
        EXPECT_EQ(hart.runDecoded(100), 2u) << "value '" << value << "'";
        EXPECT_EQ(hart.dbtCache().stats().translations, 1u);
    }
}

TEST(DbtCache, EnvBudget)
{
    setenv("FS_DBT_CACHE_BYTES", "65536", 1);
    DbtCache tuned;
    EXPECT_EQ(tuned.budgetBytes(), 65536u);
    unsetenv("FS_DBT_CACHE_BYTES");
    DbtCache defaults;
    EXPECT_EQ(defaults.budgetBytes(), DbtCache::kDefaultBudgetBytes);
}

// ---------------------------------------------------------------------
// Live-hart chaining and eviction
// ---------------------------------------------------------------------

/**
 * Nested-loop workload: an outer loop over an inner accumulate loop,
 * producing several distinct hot blocks with taken-branch backedges
 * and fall-through edges between them.
 */
std::vector<riscv::Word>
nestedLoopProgram(std::int32_t outer, std::int32_t inner)
{
    using namespace riscv;
    Assembler as(0);
    as.li(kA0, 0);     // acc
    as.li(kT0, 0);     // i
    as.li(kT1, outer); // outer limit
    as.li(kT4, inner); // inner limit
    const auto outer_loop = as.newLabel();
    const auto inner_loop = as.newLabel();
    as.bind(outer_loop);
    as.li(kT2, 0); // j
    as.bind(inner_loop);
    as.emit(mul(kT3, kT2, kT0));
    as.emit(add(kA0, kA0, kT3));
    as.emit(addi(kA0, kA0, 7));
    as.emit(addi(kT2, kT2, 1));
    as.bltTo(kT2, kT4, inner_loop);
    as.emit(addi(kT0, kT0, 1));
    as.bltTo(kT0, kT1, outer_loop);
    as.emit(ebreak());
    return as.finalize();
}

struct HartRun {
    std::uint32_t a0 = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instret = 0;
    riscv::DbtStats stats;
};

HartRun
runNestedLoops(bool dbt, std::size_t budget_bytes, std::uint64_t chunk)
{
    riscv::Ram ram(4096);
    ram.loadWords(0, nestedLoopProgram(40, 25));
    riscv::Hart hart(ram);
    hart.setTraceCacheEnabled(dbt);
    if (budget_bytes != 0)
        hart.dbtCache().setBudgetBytes(budget_bytes);
    hart.reset(0);
    while (!hart.halted() && hart.cycles() < 2'000'000)
        hart.run(chunk);
    EXPECT_TRUE(hart.halted());
    HartRun res;
    res.a0 = hart.reg(riscv::kA0);
    res.cycles = hart.cycles();
    res.instret = hart.instructionsRetired();
    res.stats = hart.dbtCache().stats();
    return res;
}

TEST(DbtHart, HotLoopsChainWithoutDispatchExits)
{
    const HartRun interp = runNestedLoops(false, 0, 1u << 20);
    const HartRun dbt = runNestedLoops(true, 0, 1u << 20);
    EXPECT_EQ(interp.a0, dbt.a0);
    EXPECT_EQ(interp.cycles, dbt.cycles);
    EXPECT_EQ(interp.instret, dbt.instret);

    EXPECT_GE(dbt.stats.translations, 2u) << "inner + outer blocks";
    EXPECT_GE(dbt.stats.chainLinks, 1u);
    // The inner loop runs ~1000 iterations: essentially all of them
    // must be direct block->block transfers, not dispatch-loop trips.
    EXPECT_GT(dbt.stats.chainTransfers, 500u);
    EXPECT_LT(dbt.stats.dispatchExits, dbt.stats.chainTransfers / 4);
}

TEST(DbtHart, TinyCacheBudgetEvictsAndStaysExact)
{
    const HartRun interp = runNestedLoops(false, 0, 1u << 20);
    // A budget of one DbtBlock's worth of bytes forces the inner and
    // outer blocks to keep evicting each other, exercising unlink +
    // retranslate on the hot path.
    const HartRun tiny = runNestedLoops(true, 600, 1u << 20);
    EXPECT_EQ(interp.a0, tiny.a0);
    EXPECT_EQ(interp.cycles, tiny.cycles);
    EXPECT_EQ(interp.instret, tiny.instret);
    EXPECT_GE(tiny.stats.evictions, 1u);
    EXPECT_GT(tiny.stats.translations, 2u) << "retranslation churn";

    // Choppy budgets on top of the tiny cache: entry guards, chain
    // guards, and eviction all interleave; the result must not move.
    const HartRun choppy = runNestedLoops(true, 600, 13);
    EXPECT_EQ(interp.a0, choppy.a0);
    EXPECT_EQ(interp.cycles, choppy.cycles);
    EXPECT_EQ(interp.instret, choppy.instret);
}

TEST(DbtHart, BlocksAndChainsStayStrictlyUnderTheBudget)
{
    // Block A: two ALU ops and a jal (worst case 1 + 1 + 2 = 4 cycles);
    // block B at the jal target: two ALU ops (worst case 2), then the
    // ebreak, which is never translated.
    using namespace riscv;
    Assembler as(0);
    const auto b = as.newLabel();
    as.emit(addi(kA0, kA0, 1));
    as.emit(addi(kA0, kA0, 1));
    as.jTo(b);
    as.bind(b);
    const std::uint32_t b_pc = as.here();
    as.emit(addi(kA0, kA0, 1));
    as.emit(addi(kA0, kA0, 1));
    const std::uint32_t ebreak_pc = as.here();
    as.emit(ebreak());
    riscv::Ram ram(256);
    ram.loadWords(0, as.finalize());
    riscv::Hart hart(ram);
    hart.setTraceCacheEnabled(true);
    hart.reset(0);

    // A block whose worst case could reach the budget does not run:
    // the caller's step() takes the next op on the interpreter.
    EXPECT_EQ(hart.runDecoded(4), 0u);
    EXPECT_EQ(hart.pc(), 0u);

    // Run both blocks once so B is translated too; the ebreak then
    // hands back with no translation.
    EXPECT_EQ(hart.runDecoded(7), 6u);
    EXPECT_EQ(hart.pc(), ebreak_pc);
    EXPECT_EQ(hart.runDecoded(100), 0u);
    EXPECT_EQ(hart.dbtCache().stats().translations, 2u);

    // A fits, but chaining into B would reach the budget: stop at B.
    hart.setPc(0);
    EXPECT_EQ(hart.runDecoded(6), 4u);
    EXPECT_EQ(hart.pc(), b_pc);

    // One more cycle of budget and A chains straight into B.
    hart.setPc(0);
    const std::uint64_t transfers = hart.dbtCache().stats().chainTransfers;
    EXPECT_EQ(hart.runDecoded(7), 6u);
    EXPECT_EQ(hart.pc(), ebreak_pc);
    EXPECT_EQ(hart.dbtCache().stats().chainTransfers, transfers + 1);
    EXPECT_FALSE(hart.halted());
}

// ---------------------------------------------------------------------
// Per-exit accounting
// ---------------------------------------------------------------------

constexpr std::uint32_t kProbeBase = 0x1000;

/**
 * MMIO registers with no direct window: every access leaves the fast
 * path. Reads return the hart's committed cycle count; every access is
 * logged as (cycles, value), so a tier that commits cycles late or
 * early at an MMIO access shows up in the log.
 */
class CycleProbe : public riscv::MemoryDevice
{
  public:
    std::uint32_t
    read(std::uint32_t, unsigned) override
    {
        log.emplace_back(hart->cycles(), 0u);
        return std::uint32_t(hart->cycles());
    }

    void
    write(std::uint32_t, std::uint32_t value, unsigned) override
    {
        log.emplace_back(hart->cycles(), value);
    }

    std::uint32_t size() const override { return 64; }

    const riscv::Hart *hart = nullptr;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> log;
};

/** A hart over 4 KiB of RAM at 0 and a CycleProbe at kProbeBase. */
struct ExitRig {
    ExitRig(const std::vector<riscv::Word> &code, bool dbt)
    {
        bus.attach("ram", 0, ram);
        bus.attach("probe", kProbeBase, probe);
        ram.loadWords(0, code);
        probe.hart = &hart;
        hart.setTraceCacheEnabled(dbt);
        hart.reset(0);
        hart.setReg(riscv::kT5, 1000);
        hart.setReg(riscv::kT6, 7);
    }

    riscv::Ram ram{4096};
    CycleProbe probe;
    soc::Bus bus;
    riscv::Hart hart{bus};
};

/**
 * A loop whose blocks leave through every kind of exit, each with a
 * mul and a div (3 and 32 cycles) ahead of it so that a dropped or
 * doubled `before` charge moves the counters: a taken branch
 * mid-block, a 64-op block's kFallthrough, a jal, a jalr, a store
 * into translated code, an MMIO store, and the loop's backedge.
 * A mid-block MMIO load sits between them.
 */
std::vector<riscv::Word>
everyExitProgram()
{
    using namespace riscv;
    Assembler as(0);
    as.li(kS1, std::int32_t(kProbeBase));
    as.li(kT0, 0);
    as.li(kT1, 3); // iterations
    const auto loop = as.newLabel();
    as.bind(loop);

    // Taken branch mid-block: the superblock runs on past it.
    const auto past_dead = as.newLabel();
    as.emit(mul(kA1, kT5, kT6));
    as.emit(div(kA2, kT5, kT6));
    as.beqTo(kZero, kZero, past_dead);
    as.emit(addi(kA3, kA3, 1)); // never runs
    as.bind(past_dead);

    // 64 ops and no control transfer: the block ends in kFallthrough.
    as.emit(mul(kA1, kA1, kT6));
    as.emit(div(kA2, kA1, kT6));
    for (int i = 0; i < 62; ++i)
        as.emit(addi(kA3, kA3, 1));

    // Mid-block MMIO load, then a jal.
    const auto after_jal = as.newLabel();
    as.emit(mul(kA1, kA1, kT6));
    as.emit(div(kA2, kA1, kT6));
    as.emit(lw(kA4, kS1, 4));
    as.emit(mul(kA1, kA1, kT6));
    as.emit(div(kA2, kA1, kT6));
    as.jTo(after_jal);
    as.bind(after_jal);

    // jalr to two ops ahead of the auipc that anchors it.
    as.emit(mul(kA1, kA1, kT6));
    as.emit(div(kA2, kA1, kT6));
    as.emit(auipc(kT2, 0));
    as.emit(jalr(kZero, kT2, 12));
    as.emit(addi(kA3, kA3, 100)); // skipped

    // Store into translated code: the auipc rewrites itself with its
    // own bytes, which flushes the cache and bails out of the block.
    as.emit(mul(kA1, kA1, kT6));
    as.emit(div(kA2, kA1, kT6));
    as.emit(auipc(kT3, 0));
    as.emit(lw(kT4, kT3, 0));
    as.emit(sw(kT4, kT3, 0));

    // MMIO store: a slow event, so the block bails out after it.
    as.emit(mul(kA1, kA1, kT6));
    as.emit(div(kA2, kA1, kT6));
    as.emit(sw(kA2, kS1, 0));

    // Backedge: a taken branch that chains to the loop head.
    as.emit(mul(kA1, kA1, kT6));
    as.emit(div(kA2, kA1, kT6));
    as.emit(addi(kT0, kT0, 1));
    as.bltTo(kT0, kT1, loop);
    as.emit(ebreak());
    return as.finalize();
}

TEST(DbtHart, EveryExitChargesTheInterpretersCounters)
{
    const auto code = everyExitProgram();
    // Chunks from one cycle up put the budget at every offset of
    // every block, so each exit also meets the entry and chain guards.
    for (const std::uint64_t chunk :
         {1u, 2u, 3u, 5u, 7u, 11u, 13u, 17u, 31u, 37u, 64u, 97u, 1u << 20}) {
        SCOPED_TRACE("chunk " + std::to_string(chunk));
        ExitRig interp(code, false);
        ExitRig dbt(code, true);
        for (int runs = 0; !interp.hart.halted(); ++runs) {
            ASSERT_LT(runs, 100'000);
            interp.hart.run(chunk);
            dbt.hart.run(chunk);
            ASSERT_EQ(interp.hart.cycles(), dbt.hart.cycles());
            ASSERT_EQ(interp.hart.instructionsRetired(),
                      dbt.hart.instructionsRetired());
            ASSERT_EQ(interp.hart.pc(), dbt.hart.pc());
        }
        EXPECT_TRUE(dbt.hart.halted());
        for (unsigned r = 0; r < 32; ++r)
            EXPECT_EQ(interp.hart.reg(r), dbt.hart.reg(r)) << "x" << r;
        EXPECT_EQ(interp.probe.log, dbt.probe.log);
        EXPECT_EQ(dbt.probe.log.size(), 6u) << "3 MMIO loads, 3 stores";
        const riscv::DbtStats &st = dbt.hart.dbtCache().stats();
        EXPECT_GE(st.flushes, 3u) << "the self-modifying store";
        EXPECT_GT(st.translations, 0u);
    }

    // The chain guard, pinned: block A (mul, div, a taken beq back to
    // B) chains into block B. Some budget must let A run and stop at
    // B's entry -- B is translated and linked, so only the guard stops
    // there -- and every budget must leave the interpreter's counters.
    using namespace riscv;
    Assembler as(0);
    const auto a = as.newLabel();
    const auto b = as.newLabel();
    as.jTo(a);
    as.bind(b);
    const std::uint32_t b_pc = as.here();
    as.emit(mul(kA1, kA1, kT6));
    as.emit(div(kA2, kA1, kT6));
    as.emit(div(kA2, kA2, kT6));
    as.emit(ebreak());
    as.bind(a);
    as.emit(mul(kA1, kT5, kT6));
    as.emit(div(kA2, kT5, kT6));
    as.beqTo(kZero, kZero, b);
    const auto chain_code = as.finalize();
    ExitRig interp(chain_code, false);
    ExitRig dbt(chain_code, true);
    const Hart::ArchState start = dbt.hart.saveArch();
    // The first pass translates A and B, the second links A -> B.
    for (int pass = 0; pass < 2; ++pass) {
        dbt.hart.restoreArch(start);
        dbt.hart.run(1u << 20);
        ASSERT_TRUE(dbt.hart.halted());
    }
    ASSERT_GE(dbt.hart.dbtCache().stats().chainLinks, 1u);
    bool guard_stop = false;
    for (std::uint64_t budget = 1; budget < 120; ++budget) {
        SCOPED_TRACE("budget " + std::to_string(budget));
        dbt.hart.restoreArch(start);
        const std::uint64_t spent = dbt.hart.runDecoded(budget);
        ASSERT_LT(spent, budget);
        interp.hart.restoreArch(start);
        while (interp.hart.instructionsRetired() <
               dbt.hart.instructionsRetired())
            interp.hart.step();
        EXPECT_EQ(interp.hart.pc(), dbt.hart.pc());
        EXPECT_EQ(interp.hart.cycles(), dbt.hart.cycles());
        EXPECT_EQ(interp.hart.instructionsRetired(),
                  dbt.hart.instructionsRetired());
        guard_stop |= spent > 0 && dbt.hart.pc() == b_pc;
    }
    EXPECT_TRUE(guard_stop) << "no budget stopped A at the chain guard";
}

} // namespace
} // namespace fs
