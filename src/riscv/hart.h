/**
 * @file
 * RV32IM hart with machine-mode traps and the Failure Sentinels
 * custom instructions -- the instruction-set-simulator substitute for
 * the paper's RocketChip FPGA prototype (Section IV-B).
 *
 * The core is cycle-counting (per-instruction cost model) rather than
 * cycle-accurate microarchitecture: what the reproduction needs is a
 * faithful software execution substrate with energy-relevant timing.
 *
 * Execution has two tiers that are bit-identical by construction.
 * The reference interpreter (step) fetches and decodes one instruction
 * at a time through riscv::decode() into executeDecoded(). The fast
 * path (runDecoded) translates each basic block on its first dispatch
 * -- through the same decoder, straight from the bus's direct
 * host-pointer windows -- into threaded code in a DbtCache, which
 * chains block-to-block without returning to the dispatch loop (see
 * dbt.h). Strict ops (system/CSR/custom) and the ops just before an
 * event horizon exit the fast path and run on the interpreter.
 * FS_NO_TRACE_CACHE disables the fast path.
 */

#ifndef FS_RISCV_HART_H_
#define FS_RISCV_HART_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "riscv/dbt.h"
#include "riscv/decoder.h"
#include "riscv/encoding.h"
#include "riscv/memory.h"

namespace fs {
namespace riscv {

/**
 * Hook for the custom-0 instructions: the SoC wires this to the
 * Failure Sentinels peripheral.
 */
class FsCoprocessor
{
  public:
    virtual ~FsCoprocessor();

    /** fs.read: the latest energy (counter) value. */
    virtual std::uint32_t fsRead() = 0;

    /** fs.cfg: program the interrupt threshold and control flags. */
    virtual void fsConfigure(std::uint32_t threshold,
                             std::uint32_t control) = 0;
};

class Hart
{
  public:
    /** Per-instruction-class cycle costs. */
    struct CycleCosts {
        std::uint64_t alu = 1;
        std::uint64_t loadStore = 2;
        std::uint64_t branchTaken = 2;
        std::uint64_t mul = 3;
        std::uint64_t div = 32;
        std::uint64_t csr = 2;
        std::uint64_t trap = 4;
    };

    /** Dense CSR file indices (see csrIndexOf). */
    enum CsrIndex : unsigned {
        kIdxMstatus,
        kIdxMie,
        kIdxMip,
        kIdxMtvec,
        kIdxMscratch,
        kIdxMepc,
        kIdxMcause,
        kNumCsrs,
    };

    /**
     * The complete architectural state: everything execution depends
     * on besides memory contents. Translated blocks are deliberately
     * excluded -- they are derived state, valid for as long as the
     * code bytes they were decoded from. A caller that restores
     * memory alongside an ArchState must call invalidateCode() on
     * every range whose bytes it rewrote (or invalidateTraceCache()
     * to drop everything); blocks over bytes it left alone stay
     * valid.
     */
    struct ArchState {
        std::array<std::uint32_t, 32> regs{};
        std::uint32_t pc = 0;
        std::array<std::uint32_t, kNumCsrs> csrs{};
        std::uint64_t cycles = 0;
        std::uint64_t instret = 0;
        bool wfi = false;
        bool halted = false;
    };

    /**
     * @param bus full 32-bit address space the hart loads/stores
     *            through (typically a soc::Bus)
     */
    explicit Hart(MemoryDevice &bus);

    // --- architectural state ---
    std::uint32_t pc() const { return pc_; }
    void setPc(std::uint32_t pc) { pc_ = pc; }
    std::uint32_t reg(Word index) const { return regs_.at(index); }
    void setReg(Word index, std::uint32_t value);
    std::uint32_t csr(Word addr) const;
    void setCsr(Word addr, std::uint32_t value);

    std::uint64_t cycles() const { return cycles_; }
    std::uint64_t instructionsRetired() const { return instret_; }
    bool waitingForInterrupt() const { return wfi_; }
    bool halted() const { return halted_; }

    /** Wire the Failure Sentinels coprocessor. */
    void attachCoprocessor(FsCoprocessor *cop) { cop_ = cop; }

    /** ecall handler; return true to halt the hart (program exit). */
    using EcallHandler = std::function<bool(Hart &)>;
    void onEcall(EcallHandler handler) { ecall_ = std::move(handler); }

    /**
     * Hook fired just before any access that leaves the direct-window
     * fast path (MMIO loads/stores, coprocessor ops). The SoC uses it
     * to sync the peripheral clock to cycles() so mid-block MMIO sees
     * exactly the time the interpreter would have shown it.
     */
    void onSlowAccess(std::function<void()> hook)
    {
        slow_sync_ = std::move(hook);
    }

    /** Assert/deassert the machine external interrupt line (MEIP). */
    void setExternalInterrupt(bool asserted);

    /**
     * Execute one instruction (or take a pending interrupt, or idle
     * one cycle in WFI). @return cycles consumed.
     */
    std::uint64_t step();

    /** Run until halted or the cycle budget is exhausted. */
    std::uint64_t run(std::uint64_t max_cycles);

    /**
     * Fast path: execute translated blocks (translating each on its
     * first dispatch) until the next block's worst case no longer
     * fits strictly under `budget`, an interrupt is pending, or an op
     * touches slow-path state (MMIO) that may have moved an event
     * horizon. Guarantees the return value < budget, so a caller that
     * bounds budget by its next external event (kill cycle, sample
     * latch) keeps that event on the exact interpreter cycle. Returns
     * the cycles spent so far -- 0 when nothing ran -- as soon as the
     * pc has no translation (outside direct-window memory, or a strict
     * op first); the caller then falls back to step().
     */
    std::uint64_t runDecoded(std::uint64_t budget);

    // --- fast-path control ---
    /** True when the fast path (DBT plus direct-window memory access)
     *  is on; false pins the hart to the interpreter. Defaults to on
     *  unless FS_NO_TRACE_CACHE is set (a historical name). */
    bool traceCacheEnabled() const { return trace_on_; }
    /** Toggle the fast path at runtime (flushes on any change). */
    void setTraceCacheEnabled(bool on);
    /** Drop all translated blocks (call after rewriting code
     *  memory). */
    void invalidateTraceCache() { dbt_.flush(); }
    /** Drop the translated blocks if their code extent overlaps
     *  [addr, addr+bytes) (call after rewriting that range behind the
     *  hart's back). */
    void
    invalidateCode(std::uint32_t addr, unsigned bytes)
    {
        if (dbt_.overlapsCode(addr, bytes))
            dbt_.flush();
    }
    const DbtCache &dbtCache() const { return dbt_; }
    DbtCache &dbtCache() { return dbt_; }
    /** Re-read the direct windows from the bus (call after a device
     *  changed the ranges it serves directly). */
    void refreshDirectWindows();

    /**
     * Power failure: all volatile architectural state decays. Cached
     * blocks are derived from memory, not architectural state, so they
     * survive; whoever owns a code memory that decays must call
     * invalidateCode() over it.
     */
    void powerFail();

    /** Cold-boot reset to the given pc; regs and CSRs cleared. */
    void reset(std::uint32_t pc);

    /** Capture the architectural state (see ArchState). */
    ArchState saveArch() const;

    /**
     * Restore a captured architectural state. Does not touch the
     * translation cache: callers that also restore memory must follow
     * up with invalidateCode() over the bytes they rewrote.
     */
    void restoreArch(const ArchState &state);

  private:
    bool interruptPending() const;
    void takeInterrupt();
    std::uint64_t executeDecoded(const Decoded &d);
    std::uint64_t executeCsr(const Decoded &d);
    std::uint32_t &csrRef(Word addr);
    Word fetch();
    std::uint32_t load(std::uint32_t addr, unsigned bytes);
    void store(std::uint32_t addr, std::uint32_t value, unsigned bytes);
    const DirectWindow *findWindow(std::uint32_t addr, unsigned bytes);
    void loadWindows();
    void syncSlowAccess();
    std::uint64_t worstCost(const Decoded &d) const;

    /** Decode the basic block at pc_ from its direct window, lower it
     *  into threaded code and insert it into the DBT cache. The block
     *  ends at a jal/jalr, at kMaxBlockOps, at the window's end, or
     *  just before the first strict (system/CSR/custom) or illegal
     *  op, which runs on the interpreter. Returns nullptr when that
     *  leaves nothing to translate (pc outside direct-window memory,
     *  or a strict op first). */
    DbtBlock *translateBlock();

    /**
     * Execute translated blocks starting at @p block, chaining
     * block-to-block while every successor's worst-case cost still
     * fits strictly under the remaining budget; returns the cycles
     * spent (< budget). The caller guarantees block->worstTotal <
     * budget, no pending interrupt, and slow_event_ == false on
     * entry. A nullptr @p block performs dispatcher initialization
     * only (publishes the computed-goto label table) and returns 0.
     */
    std::uint64_t runDbt(DbtBlock *block, std::uint64_t budget);

    MemoryDevice &bus_;
    CycleCosts costs_;
    std::array<std::uint32_t, 32> regs_{};
    std::uint32_t pc_ = 0;

    /** Machine-mode CSR file, indexed by CsrIndex. */
    std::array<std::uint32_t, kNumCsrs> csrs_{};

    std::uint64_t cycles_ = 0;
    std::uint64_t instret_ = 0;
    bool wfi_ = false;
    bool halted_ = false;

    // --- fast-path state ---
    bool trace_on_;
    DbtCache dbt_;
    /** Computed-goto handler table, published by the first runDbt
     *  call (label addresses only exist inside the executor). */
    const void *const *dbt_labels_ = nullptr;
    /** Direct host-pointer windows, fetched lazily from the bus (the
     *  SoC attaches devices after constructing the hart). */
    std::vector<DirectWindow> windows_;
    bool windows_init_ = false;
    std::size_t mru_window_ = 0;
    /** Set by syncSlowAccess: the op touched MMIO/coprocessor state,
     *  so runDecoded must return for an event-horizon recheck. */
    bool slow_event_ = false;

    FsCoprocessor *cop_ = nullptr;
    EcallHandler ecall_;
    std::function<void()> slow_sync_;
};

} // namespace riscv
} // namespace fs

#endif // FS_RISCV_HART_H_
