/**
 * @file
 * Execution-tier equivalence tests: the fast path (DBT threaded code,
 * with strict ops and horizon-crossing ops handed to the interpreter)
 * must be bit-identical to the pure interpreter -- same architectural
 * state, same cycle counts, same torture-campaign outcomes at any
 * thread count. Covers full-SoC guest workloads (steady power and a
 * forced checkpoint/power-failure/resume), a seeded decoder<->executor
 * differential fuzzer over random legal RV32IM programs run both ways
 * (including choppy and tight event-horizon budgets, and on some seeds
 * a cycle-stamping MMIO device that loads and stores hit mid-block),
 * and self-modifying code (a store into translated code must flush).
 * DBT-cache-specific mechanics (chaining, eviction, unlink, the
 * environment knobs) live in test_dbt.cc.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <memory>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/torture_rig.h"
#include "harvest/system_comparison.h"
#include "riscv/assembler.h"
#include "riscv/decoder.h"
#include "riscv/hart.h"
#include "riscv/memory.h"
#include "soc/bus.h"
#include "soc/guest_programs.h"
#include "soc/soc.h"
#include "util/parallel.h"
#include "util/random.h"

namespace fs {
namespace {

/** Which execution tiers a hart under test may use. */
enum class Mode { kInterp, kDbt };

/** Pin a hart to the interpreter, or let it take the fast path. */
void
configureHart(riscv::Hart &hart, Mode mode)
{
    hart.setTraceCacheEnabled(mode == Mode::kDbt);
}

// ---------------------------------------------------------------------
// Full-SoC guest workloads, interpreter vs. DBT
// ---------------------------------------------------------------------

/** Everything observable about a finished SoC run. */
struct SocSnapshot {
    bool appFinished = false;
    std::uint64_t totalCycles = 0;
    std::uint64_t powerCycles = 0;
    std::uint64_t hartCycles = 0;
    std::uint64_t instret = 0;
    std::uint32_t pc = 0;
    std::array<std::uint32_t, 32> regs{};
    std::uint32_t result = 0;
    bool checkpointCommitted = false;
    std::uint32_t newestSeq = 0;
    std::vector<std::uint8_t> fram;
    std::vector<std::uint8_t> sram;
};

void
expectSameSnapshot(const SocSnapshot &a, const SocSnapshot &b,
                   const std::string &label)
{
    EXPECT_EQ(a.appFinished, b.appFinished) << label;
    EXPECT_EQ(a.totalCycles, b.totalCycles) << label;
    EXPECT_EQ(a.powerCycles, b.powerCycles) << label;
    EXPECT_EQ(a.hartCycles, b.hartCycles) << label;
    EXPECT_EQ(a.instret, b.instret) << label;
    EXPECT_EQ(a.pc, b.pc) << label;
    for (unsigned r = 0; r < 32; ++r)
        EXPECT_EQ(a.regs[r], b.regs[r]) << label << " x" << r;
    EXPECT_EQ(a.result, b.result) << label;
    EXPECT_EQ(a.checkpointCommitted, b.checkpointCommitted) << label;
    EXPECT_EQ(a.newestSeq, b.newestSeq) << label;
    EXPECT_EQ(a.fram, b.fram) << label << " fram image";
    EXPECT_EQ(a.sram, b.sram) << label << " sram image";
}

/**
 * Run one guest workload to completion on a full SoC (runtime +
 * peripheral). When @p force_checkpoint is set, the supply dips below
 * the checkpoint threshold mid-run, power then fails outright, and the
 * app resumes from its checkpoint after power returns -- the complete
 * intermittent-computation cycle on the fast path.
 */
SocSnapshot
runSocScenario(const soc::GuestProgram &prog, Mode mode,
               bool force_checkpoint)
{
    const auto monitor = harvest::makeFsLowPower();
    const auto supply = std::make_shared<double>(3.3);
    soc::CheckpointLayout layout;
    layout.sramSize = 1024;
    soc::Soc soc(*monitor, [supply](double) { return *supply; },
                 layout);
    configureHart(soc.hart(), mode);
    soc.loadRuntime(monitor->countThresholdFor(1.87));
    soc.loadGuest(prog);
    soc.powerOn();

    if (force_checkpoint) {
        soc.run(20'000);
        EXPECT_FALSE(soc.appFinished()) << prog.name;
        *supply = 1.85; // below the checkpoint threshold
        soc.run(100'000);
        EXPECT_TRUE(soc.checkpointCommitted()) << prog.name;
        soc.powerFail();
        *supply = 3.3;
        soc.powerOn(); // runtime restores from the checkpoint
    }
    soc.run(300'000'000);
    EXPECT_TRUE(soc.appFinished()) << prog.name;

    SocSnapshot snap;
    snap.appFinished = soc.appFinished();
    snap.totalCycles = soc.totalCycles();
    snap.powerCycles = soc.powerCycles();
    snap.hartCycles = soc.hart().cycles();
    snap.instret = soc.hart().instructionsRetired();
    snap.pc = soc.hart().pc();
    for (unsigned r = 0; r < 32; ++r)
        snap.regs[r] = soc.hart().reg(r);
    snap.result = soc.guestResult(prog);
    snap.checkpointCommitted = soc.checkpointCommitted();
    snap.newestSeq = soc.newestCheckpointSeq();
    snap.fram = soc.fram().data();
    snap.sram = soc.sram().data();
    EXPECT_EQ(snap.result, prog.expected) << prog.name;
    return snap;
}

TEST(FastPathSoc, GuestWorkloadsBitIdenticalSteadyPower)
{
    for (const auto &prog : soc::standardWorkloads()) {
        const SocSnapshot interp =
            runSocScenario(prog, Mode::kInterp, false);
        const SocSnapshot translated =
            runSocScenario(prog, Mode::kDbt, false);
        expectSameSnapshot(interp, translated,
                           prog.name + std::string("+dbt"));
    }
}

TEST(FastPathSoc, CheckpointPowerFailResumeBitIdentical)
{
    const soc::GuestProgram prog = soc::makeCrc32Program(4096, 11);
    const SocSnapshot interp =
        runSocScenario(prog, Mode::kInterp, true);
    EXPECT_GE(interp.newestSeq, 1u);
    const SocSnapshot translated =
        runSocScenario(prog, Mode::kDbt, true);
    expectSameSnapshot(interp, translated,
                       prog.name + "+checkpoint+dbt");
}

// ---------------------------------------------------------------------
// Torture-campaign identity: fast path on/off x 1 and 8 threads
// ---------------------------------------------------------------------

void
expectSameOutcomes(const std::vector<fault::TortureOutcome> &a,
                   const std::vector<fault::TortureOutcome> &b,
                   const std::string &label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].killed, b[i].killed) << label << " kill " << i;
        EXPECT_EQ(a[i].killTore, b[i].killTore)
            << label << " kill " << i;
        EXPECT_EQ(a[i].validSlots, b[i].validSlots)
            << label << " kill " << i;
        EXPECT_EQ(a[i].tornSlots, b[i].tornSlots)
            << label << " kill " << i;
        EXPECT_EQ(a[i].newestSeq, b[i].newestSeq)
            << label << " kill " << i;
        EXPECT_EQ(a[i].coldRestart, b[i].coldRestart)
            << label << " kill " << i;
        EXPECT_EQ(a[i].finished, b[i].finished)
            << label << " kill " << i;
        EXPECT_EQ(a[i].resultCorrect, b[i].resultCorrect)
            << label << " kill " << i;
        EXPECT_EQ(a[i].result, b[i].result) << label << " kill " << i;
    }
}

TEST(FastPathTorture, CampaignBitIdenticalAcrossTiersAndThreads)
{
    const soc::GuestProgram prog = soc::makeCrc32Program(1024, 5);
    fault::TortureConfig config;
    config.stableCycles = 60'000;
    config.lowCycles = 30'000;

    util::ThreadPool pool1(1);
    util::ThreadPool pool8(8);

    // The interpreter-only campaign: the env var must stay set while
    // the kills replay, because every replay builds a fresh hart that
    // reads the environment at construction.
    setenv("FS_NO_TRACE_CACHE", "1", 1);
    fault::TortureRig rig_off(prog, config);
    std::vector<fault::PowerKill> kills;
    const std::uint64_t clean = rig_off.cleanRunCycles();
    const std::uint64_t stride = std::max<std::uint64_t>(1, clean / 16);
    for (std::uint64_t c = stride / 2; c < clean; c += stride) {
        fault::PowerKill kill;
        kill.cycle = c;
        kill.tearBytesKept = unsigned(kills.size() % 4);
        kill.tearFlipMask =
            (kills.size() % 3 == 0) ? 0xA5A5A5A5u : 0u;
        kills.push_back(kill);
    }
    ASSERT_GE(rig_off.checkpointCount(), 1u);
    const fault::CommitWindow w = rig_off.commitWindow(0);
    const std::uint64_t wstride =
        std::max<std::uint64_t>(1, w.length() / 8);
    for (std::uint64_t c = w.begin; c < w.end; c += wstride) {
        fault::PowerKill kill;
        kill.cycle = c;
        kill.tearBytesKept = unsigned(kills.size() % 4);
        kills.push_back(kill);
    }
    const auto off1 = rig_off.runKills(kills, &pool1);
    const auto off8 = rig_off.runKills(kills, &pool8);
    unsetenv("FS_NO_TRACE_CACHE");

    // Fast path on: blocks run as threaded code mid-campaign.
    fault::TortureRig rig_dbt(prog, config);
    const auto dbt1 = rig_dbt.runKills(kills, &pool1);
    const auto dbt8 = rig_dbt.runKills(kills, &pool8);

    // The instrumented clean runs must agree before any kill does.
    EXPECT_EQ(rig_off.cleanRunCycles(), rig_dbt.cleanRunCycles());
    ASSERT_EQ(rig_off.checkpointCount(), rig_dbt.checkpointCount());
    for (std::size_t i = 0; i < rig_dbt.checkpointCount(); ++i) {
        EXPECT_EQ(rig_off.commitWindow(i).begin,
                  rig_dbt.commitWindow(i).begin);
        EXPECT_EQ(rig_off.commitWindow(i).end,
                  rig_dbt.commitWindow(i).end);
    }

    expectSameOutcomes(off1, off8, "interp 1 vs 8 threads");
    expectSameOutcomes(dbt1, dbt8, "dbt 1 vs 8 threads");
    expectSameOutcomes(off1, dbt1, "interp vs dbt");
}

// ---------------------------------------------------------------------
// Decoder <-> executor differential fuzz
// ---------------------------------------------------------------------

constexpr std::uint32_t kDataBase = 0x8000;
constexpr std::uint32_t kDataSize = 4096;
constexpr std::uint32_t kRamSize = 64 * 1024;
/** The MMIO device, when mapped, sits right after the RAM. */
constexpr std::uint32_t kMmioBase = kRamSize;
constexpr std::uint32_t kMmioSize = 64;

/**
 * Cycle-stamping MMIO registers. They have no direct window, so every
 * access leaves the fast path mid-block. Loads return a value derived
 * from the hart's committed cycle count; every access is logged with
 * that count. A tier that commits cycles late or early at an MMIO
 * access changes both the loaded values and the log.
 */
class CycleStampDevice : public riscv::MemoryDevice
{
  public:
    struct Access {
        bool store = false;
        std::uint32_t addr = 0;
        std::uint32_t value = 0;
        std::uint64_t cycles = 0;

        bool operator==(const Access &) const = default;
    };

    std::uint32_t
    read(std::uint32_t addr, unsigned bytes) override
    {
        const std::uint64_t c = hart->cycles();
        std::uint32_t v = std::uint32_t(c * 0x9E3779B1ull) ^ (addr << 24);
        if (bytes < 4)
            v &= (1u << (8 * bytes)) - 1;
        log.push_back({false, addr, v, c});
        return v;
    }

    void
    write(std::uint32_t addr, std::uint32_t value, unsigned) override
    {
        log.push_back({true, addr, value, hart->cycles()});
    }

    std::uint32_t size() const override { return kMmioSize; }

    const riscv::Hart *hart = nullptr;
    std::vector<Access> log;
};

/** Any register but x8 (s0), which anchors the data region, and, when
 *  @p mmio, x9 (s1), which anchors the MMIO device. */
riscv::Word
randomRd(Rng &rng, bool mmio)
{
    if (mmio) {
        const auto r = riscv::Word(rng.uniformInt(0, 29));
        return r >= 8 ? r + 2 : r;
    }
    const auto r = riscv::Word(rng.uniformInt(0, 30));
    return r >= 8 ? r + 1 : r;
}

/**
 * One random legal RV32IM program: every ALU/M op, loads and stores
 * confined to [kDataBase, kDataBase+kDataSize), forward-only branches
 * and jumps (so the program always terminates), CSR traffic on
 * mscratch plus mcycle/minstret probes (the sharpest cycle-exactness
 * oracle), fence, and fs.mark. Ends in ebreak. With @p mmio, a quarter
 * of the loads and stores target the MMIO device through s1 instead.
 */
std::vector<riscv::Word>
randomProgram(Rng &rng, std::size_t body_ops, bool mmio)
{
    using namespace riscv;
    using RType = Word (*)(Word, Word, Word);
    static constexpr RType kRType[] = {
        add,  sub,  sll,    slt,   sltu, xor_, srl, sra, or_,
        and_, mul,  mulh,   mulhsu, mulhu, div, divu, rem, remu};
    using IType = Word (*)(Word, Word, std::int32_t);
    static constexpr IType kIType[] = {addi, slti, sltiu,
                                       xori, ori,  andi};
    static constexpr IType kLoad[] = {lb, lh, lw, lbu, lhu};
    static constexpr unsigned kLoadAlign[] = {1, 2, 4, 1, 2};
    static constexpr IType kStore[] = {sb, sh, sw};
    static constexpr unsigned kStoreAlign[] = {1, 2, 4};

    Assembler as(0);
    as.li(kS0, std::int32_t(kDataBase));
    if (mmio)
        as.li(kS1, std::int32_t(kMmioBase));
    for (Word r = 1; r < 32; ++r) {
        if (r == kS0 || (mmio && r == kS1))
            continue;
        as.li(r, std::int32_t(std::uint32_t(
                     rng.uniformInt(0, 0xFFFFFFFFll))));
    }

    struct Pending {
        Assembler::Label label;
        std::size_t deadline;
    };
    std::vector<Pending> pending;

    for (std::size_t i = 0; i < body_ops; ++i) {
        for (auto it = pending.begin(); it != pending.end();) {
            if (it->deadline <= i) {
                as.bind(it->label);
                it = pending.erase(it);
            } else {
                ++it;
            }
        }
        const auto roll = rng.uniformInt(0, 99);
        if (roll < 30) {
            as.emit(kRType[rng.index(std::size(kRType))](
                randomRd(rng, mmio), Word(rng.uniformInt(0, 31)),
                Word(rng.uniformInt(0, 31))));
        } else if (roll < 42) {
            as.emit(kIType[rng.index(std::size(kIType))](
                randomRd(rng, mmio), Word(rng.uniformInt(0, 31)),
                std::int32_t(rng.uniformInt(-2048, 2047))));
        } else if (roll < 48) {
            const auto shamt = Word(rng.uniformInt(0, 31));
            const auto rd = randomRd(rng, mmio);
            const auto rs1 = Word(rng.uniformInt(0, 31));
            switch (rng.uniformInt(0, 2)) {
            case 0: as.emit(slli(rd, rs1, shamt)); break;
            case 1: as.emit(srli(rd, rs1, shamt)); break;
            default: as.emit(srai(rd, rs1, shamt)); break;
            }
        } else if (roll < 54) {
            const auto imm20 =
                std::int32_t(rng.uniformInt(0, 0xFFFFF));
            if (rng.bernoulli(0.5))
                as.emit(lui(randomRd(rng, mmio), imm20));
            else
                as.emit(auipc(randomRd(rng, mmio), imm20));
        } else if (roll < 66) {
            const auto which = rng.index(std::size(kLoad));
            const unsigned align = kLoadAlign[which];
            const bool from_mmio = mmio && rng.bernoulli(0.25);
            // imm12 caps the reachable data window at [0, 2047].
            const auto off = std::int32_t(
                align * rng.uniformInt(
                            0, (from_mmio ? kMmioSize - 4 : 2044) / align));
            as.emit(kLoad[which](randomRd(rng, mmio),
                                 from_mmio ? kS1 : kS0, off));
        } else if (roll < 76) {
            const auto which = rng.index(std::size(kStore));
            const unsigned align = kStoreAlign[which];
            const bool to_mmio = mmio && rng.bernoulli(0.25);
            const auto off = std::int32_t(
                align * rng.uniformInt(
                            0, (to_mmio ? kMmioSize - 4 : 2044) / align));
            as.emit(kStore[which](Word(rng.uniformInt(0, 31)),
                                  to_mmio ? kS1 : kS0, off));
        } else if (roll < 84) {
            const auto target = as.newLabel();
            pending.push_back(
                {target, i + std::size_t(rng.uniformInt(2, 8))});
            const auto rs1 = Word(rng.uniformInt(0, 31));
            const auto rs2 = Word(rng.uniformInt(0, 31));
            switch (rng.uniformInt(0, 5)) {
            case 0: as.beqTo(rs1, rs2, target); break;
            case 1: as.bneTo(rs1, rs2, target); break;
            case 2: as.bltTo(rs1, rs2, target); break;
            case 3: as.bgeTo(rs1, rs2, target); break;
            case 4: as.bltuTo(rs1, rs2, target); break;
            default: as.bgeuTo(rs1, rs2, target); break;
            }
        } else if (roll < 88) {
            const auto target = as.newLabel();
            pending.push_back(
                {target, i + std::size_t(rng.uniformInt(2, 6))});
            as.jalTo(rng.bernoulli(0.5) ? kRa : kZero, target);
        } else if (roll < 91) {
            // Computed forward jump: auipc anchors t1 at this pc, the
            // jalr lands past two filler ops -- an in-block indirect
            // transfer with a statically known target.
            as.emit(auipc(kT1, 0));
            as.emit(jalr(kZero, kT1, 16));
            as.emit(addi(kT2, kT2, 1));
            as.emit(addi(kT3, kT3, 1));
        } else if (roll < 95) {
            const auto rd = randomRd(rng, mmio);
            switch (rng.uniformInt(0, 3)) {
            case 0:
                as.emit(csrrw(rd, kCsrMscratch,
                              Word(rng.uniformInt(0, 31))));
                break;
            case 1:
                as.emit(csrrs(rd, kCsrMscratch,
                              Word(rng.uniformInt(0, 31))));
                break;
            case 2:
                as.emit(csrrc(rd, kCsrMscratch,
                              Word(rng.uniformInt(0, 31))));
                break;
            default:
                as.emit(csrrwi(rd, kCsrMscratch,
                               Word(rng.uniformInt(0, 31))));
                break;
            }
        } else if (roll < 98) {
            // Cycle/instret probes: the strongest oracle that the
            // block path commits counters on the interpreter's exact
            // schedule.
            as.emit(csrrs(randomRd(rng, mmio),
                          rng.bernoulli(0.5) ? kCsrMcycle
                                             : kCsrMinstret,
                          kZero));
        } else if (roll < 99) {
            as.emit(0x0000000fu); // fence
        } else {
            as.emit(fsMark());
        }
    }
    for (const auto &p : pending)
        as.bind(p.label);
    as.emit(riscv::ebreak());
    return as.finalize();
}

struct FuzzResult {
    bool halted = false;
    std::uint32_t pc = 0;
    std::array<std::uint32_t, 32> regs{};
    std::uint64_t cycles = 0;
    std::uint64_t instret = 0;
    std::uint32_t mscratch = 0;
    std::vector<std::uint8_t> mem;
    std::vector<CycleStampDevice::Access> mmio;
    /** Tier bookkeeping (not part of the identity comparison). */
    std::uint64_t translations = 0;
};

/** Execute a fuzz image to ebreak, in chunks of @p chunk cycles (odd
 *  small chunks stress the budget guards and the hand-off to the
 *  interpreter). With @p mmio, the hart sees the RAM and the
 *  cycle-stamping device through a bus. */
FuzzResult
runFuzzProgram(const std::vector<riscv::Word> &code,
               const std::vector<std::uint8_t> &data, Mode mode,
               std::uint64_t chunk, bool mmio)
{
    riscv::Ram ram(kRamSize);
    ram.loadWords(0, code);
    std::copy(data.begin(), data.end(),
              ram.data().begin() + kDataBase);
    CycleStampDevice stamp;
    soc::Bus bus;
    bus.attach("ram", 0, ram);
    bus.attach("stamp", kMmioBase, stamp);
    riscv::Hart hart(mmio ? static_cast<riscv::MemoryDevice &>(bus)
                          : ram);
    stamp.hart = &hart;
    configureHart(hart, mode);
    hart.reset(0);
    while (!hart.halted() && hart.cycles() < 2'000'000)
        hart.run(chunk);
    FuzzResult res;
    res.halted = hart.halted();
    res.pc = hart.pc();
    for (unsigned r = 0; r < 32; ++r)
        res.regs[r] = hart.reg(r);
    res.cycles = hart.cycles();
    res.instret = hart.instructionsRetired();
    res.mscratch = hart.csr(riscv::kCsrMscratch);
    res.mem = ram.data();
    res.mmio = stamp.log;
    res.translations = hart.dbtCache().stats().translations;
    return res;
}

void
expectSameFuzzResult(const FuzzResult &a, const FuzzResult &b,
                     const std::string &label)
{
    EXPECT_TRUE(a.halted) << label;
    EXPECT_TRUE(b.halted) << label;
    EXPECT_EQ(a.pc, b.pc) << label;
    for (unsigned r = 0; r < 32; ++r)
        EXPECT_EQ(a.regs[r], b.regs[r]) << label << " x" << r;
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.instret, b.instret) << label;
    EXPECT_EQ(a.mscratch, b.mscratch) << label;
    EXPECT_EQ(a.mem, b.mem) << label << " memory image";
    EXPECT_EQ(a.mmio.size(), b.mmio.size()) << label << " MMIO accesses";
    EXPECT_TRUE(a.mmio == b.mmio) << label << " MMIO access log";
}

TEST(FastPathFuzz, RandomProgramsBitIdenticalTwoWay)
{
    std::uint64_t total_translations = 0;
    std::size_t mmio_loads = 0;
    std::size_t mmio_stores = 0;
    // Seeds past 16 map the cycle-stamping device next to the RAM, so
    // the DBT's mid-block MMIO commit is fuzzed as well.
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const bool mmio = seed > 16;
        Rng rng(seed * 0x9E3779B97F4A7C15ull);
        const auto code = randomProgram(rng, 300, mmio);
        std::vector<std::uint8_t> data(kDataSize);
        for (auto &byte : data)
            byte = std::uint8_t(rng.uniformInt(0, 255));
        const std::string label = "seed " + std::to_string(seed);
        const FuzzResult interp =
            runFuzzProgram(code, data, Mode::kInterp, 1u << 20, mmio);
        const FuzzResult fast =
            runFuzzProgram(code, data, Mode::kDbt, 1u << 20, mmio);
        expectSameFuzzResult(interp, fast, label + " dbt");
        total_translations += fast.translations;
        for (const auto &access : fast.mmio)
            ++(access.store ? mmio_stores : mmio_loads);
        // Choppy and tight budgets force entry/chain budget-guard
        // bailouts and hand the ops before each horizon to the
        // interpreter, then re-enter translated code mid-block.
        for (const std::uint64_t chunk : {13u, 5u, 2u}) {
            const FuzzResult choppy =
                runFuzzProgram(code, data, Mode::kDbt, chunk, mmio);
            expectSameFuzzResult(interp, choppy,
                                 label + " dbt chunk=" +
                                     std::to_string(chunk));
        }
    }
    // The DBT runs must actually have exercised threaded code (the
    // CSR probes make some blocks strict, but never all of them), and
    // the MMIO seeds must have reached the device both ways.
    EXPECT_GT(total_translations, 0u);
    EXPECT_GT(mmio_loads, 0u);
    EXPECT_GT(mmio_stores, 0u);
}

// ---------------------------------------------------------------------
// Self-modifying code
// ---------------------------------------------------------------------

TEST(FastPathFuzz, SelfModifyingStoreFlushesAndStaysExact)
{
    using namespace riscv;
    // Pass 1 executes `addi a0, a0, 1`, then patches that very word to
    // `addi a0, a0, 100` and loops; pass 2 must execute the patched
    // instruction (a0 == 101), which requires the cached block to die.
    Assembler as(0);
    as.li(kA0, 0);
    as.li(kT2, 0);
    const auto loop = as.newLabel();
    const auto end = as.newLabel();
    as.bind(loop);
    const std::uint32_t target = as.here();
    as.emit(addi(kA0, kA0, 1));
    as.emit(addi(kT2, kT2, 1));
    as.li(kT3, 2);
    as.beqTo(kT2, kT3, end);
    as.li(kT0, std::int32_t(target));
    as.li(kT1, std::int32_t(addi(kA0, kA0, 100)));
    as.emit(sw(kT1, kT0, 0));
    as.jTo(loop);
    as.bind(end);
    as.emit(ebreak());
    const auto code = as.finalize();

    FuzzResult results[2];
    for (const Mode mode : {Mode::kInterp, Mode::kDbt}) {
        const bool dbt = mode == Mode::kDbt;
        riscv::Ram ram(4096);
        ram.loadWords(0, code);
        riscv::Hart hart(ram);
        configureHart(hart, mode);
        hart.reset(0);
        while (!hart.halted() && hart.cycles() < 100'000)
            hart.run(64);
        ASSERT_TRUE(hart.halted());
        EXPECT_EQ(hart.reg(kA0), 101u) << (dbt ? "dbt" : "interp");
        if (dbt) {
            // The patch store must have invalidated translated code.
            EXPECT_GE(hart.dbtCache().stats().translations, 1u);
            EXPECT_GE(hart.dbtCache().stats().flushes, 1u);
        }
        FuzzResult &res = results[dbt ? 1 : 0];
        res.pc = hart.pc();
        res.cycles = hart.cycles();
        res.instret = hart.instructionsRetired();
    }
    EXPECT_EQ(results[0].pc, results[1].pc);
    EXPECT_EQ(results[0].cycles, results[1].cycles);
    EXPECT_EQ(results[0].instret, results[1].instret);
}

} // namespace
} // namespace fs
