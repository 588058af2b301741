#include "riscv/hart.h"

#include <algorithm>

#include "util/env.h"
#include "util/logging.h"

namespace fs {
namespace riscv {

namespace {

std::int32_t
signExtend(std::uint32_t value, unsigned bits)
{
    const std::uint32_t mask = 1u << (bits - 1);
    return std::int32_t((value ^ mask) - mask);
}

/** Little-endian load from a direct window's host memory. */
std::uint32_t
loadDirect(const std::uint8_t *p, unsigned bytes)
{
    std::uint32_t v = std::uint32_t(p[0]);
    if (bytes > 1)
        v |= std::uint32_t(p[1]) << 8;
    if (bytes > 2) {
        v |= std::uint32_t(p[2]) << 16;
        v |= std::uint32_t(p[3]) << 24;
    }
    return v;
}

} // namespace

FsCoprocessor::~FsCoprocessor() = default;

Hart::Hart(MemoryDevice &bus)
    : bus_(bus), trace_on_(!util::envFlag("FS_NO_TRACE_CACHE"))
{
}

void
Hart::setReg(Word index, std::uint32_t value)
{
    FS_ASSERT(index < 32, "register index out of range");
    if (index != 0)
        regs_[index] = value;
}

std::uint32_t &
Hart::csrRef(Word addr)
{
    // Dense index table over the machine-mode CSR block [0x300, 0x345)
    // -- one bounds check and one byte load instead of a switch on the
    // raw 12-bit address.
    static constexpr auto kTable = [] {
        std::array<std::int8_t, 0x45> t{};
        for (auto &e : t)
            e = -1;
        t[kCsrMstatus - kCsrMstatus] = std::int8_t(kIdxMstatus);
        t[kCsrMie - kCsrMstatus] = std::int8_t(kIdxMie);
        t[kCsrMip - kCsrMstatus] = std::int8_t(kIdxMip);
        t[kCsrMtvec - kCsrMstatus] = std::int8_t(kIdxMtvec);
        t[kCsrMscratch - kCsrMstatus] = std::int8_t(kIdxMscratch);
        t[kCsrMepc - kCsrMstatus] = std::int8_t(kIdxMepc);
        t[kCsrMcause - kCsrMstatus] = std::int8_t(kIdxMcause);
        return t;
    }();
    const Word rel = addr - kCsrMstatus; // wraps large for addr < base
    if (rel < kTable.size()) {
        const std::int8_t idx = kTable[rel];
        if (idx >= 0)
            return csrs_[std::size_t(idx)];
    }
    fatal("unimplemented CSR 0x", std::hex, addr);
}

std::uint32_t
Hart::csr(Word addr) const
{
    if (addr == kCsrMcycle)
        return std::uint32_t(cycles_);
    if (addr == kCsrMinstret)
        return std::uint32_t(instret_);
    return const_cast<Hart *>(this)->csrRef(addr);
}

void
Hart::setCsr(Word addr, std::uint32_t value)
{
    csrRef(addr) = value;
}

void
Hart::setExternalInterrupt(bool asserted)
{
    if (asserted)
        csrs_[kIdxMip] |= kMipMeip;
    else
        csrs_[kIdxMip] &= ~kMipMeip;
}

bool
Hart::interruptPending() const
{
    return (csrs_[kIdxMstatus] & kMstatusMie) &&
           (csrs_[kIdxMie] & csrs_[kIdxMip] & kMipMeip);
}

void
Hart::takeInterrupt()
{
    csrs_[kIdxMepc] = pc_;
    csrs_[kIdxMcause] = kCauseMachineExternal;
    // MPIE <- MIE; MIE <- 0.
    if (csrs_[kIdxMstatus] & kMstatusMie)
        csrs_[kIdxMstatus] |= kMstatusMpie;
    else
        csrs_[kIdxMstatus] &= ~kMstatusMpie;
    csrs_[kIdxMstatus] &= ~kMstatusMie;
    pc_ = csrs_[kIdxMtvec] & ~3u;
    wfi_ = false;
    cycles_ += costs_.trap;
}

void
Hart::syncSlowAccess()
{
    slow_event_ = true;
    if (slow_sync_)
        slow_sync_();
}

void
Hart::loadWindows()
{
    windows_ = bus_.directWindows();
    // runDbt's window test (addr - base <= span - width) needs room
    // for a word; a smaller window takes the bus path.
    windows_.erase(std::remove_if(windows_.begin(), windows_.end(),
                                  [](const DirectWindow &w) {
                                      return w.span < 4;
                                  }),
                   windows_.end());
    windows_init_ = true;
    mru_window_ = 0;
}

void
Hart::refreshDirectWindows()
{
    if (windows_init_)
        loadWindows();
}

const DirectWindow *
Hart::findWindow(std::uint32_t addr, unsigned bytes)
{
    if (!windows_init_)
        loadWindows();
    if (mru_window_ < windows_.size() &&
        windows_[mru_window_].contains(addr, bytes))
        return &windows_[mru_window_];
    for (std::size_t i = 0; i < windows_.size(); ++i) {
        if (windows_[i].contains(addr, bytes)) {
            mru_window_ = i;
            return &windows_[i];
        }
    }
    return nullptr;
}

Word
Hart::fetch()
{
    if (trace_on_) {
        if (const DirectWindow *w = findWindow(pc_, 4))
            return loadDirect(w->data + (pc_ - w->base), 4);
    }
    return bus_.read(pc_, 4);
}

std::uint32_t
Hart::load(std::uint32_t addr, unsigned bytes)
{
    if (trace_on_) {
        if (const DirectWindow *w = findWindow(addr, bytes))
            return loadDirect(w->data + (addr - w->base), bytes);
    }
    syncSlowAccess();
    return bus_.read(addr, bytes);
}

void
Hart::store(std::uint32_t addr, std::uint32_t value, unsigned bytes)
{
    if (trace_on_) {
        // Self-modifying store into translated code: drop the cache
        // before anything can re-enter a stale block.
        invalidateCode(addr, bytes);
        if (const DirectWindow *w = findWindow(addr, bytes)) {
            // Stores keep the virtual dispatch (NVM write filters,
            // tear bookkeeping, write counters must all see them) but
            // skip the bus's region decode.
            w->device->write(addr - w->deviceBase, value, bytes);
            return;
        }
    }
    syncSlowAccess();
    bus_.write(addr, value, bytes);
}

std::uint64_t
Hart::step()
{
    if (halted_)
        return 0;
    if (interruptPending()) {
        takeInterrupt();
        return costs_.trap;
    }
    if (wfi_) {
        // Idle; wake only via interrupt (checked above). With
        // interrupts globally disabled, WFI still wakes on a pending
        // enabled interrupt per the spec.
        if (csrs_[kIdxMie] & csrs_[kIdxMip] & kMipMeip) {
            wfi_ = false;
        } else {
            ++cycles_;
            return 1;
        }
    }
    const Word inst = fetch();
    const std::uint64_t spent = executeDecoded(decode(inst));
    cycles_ += spent;
    ++instret_;
    return spent;
}

std::uint64_t
Hart::run(std::uint64_t max_cycles)
{
    std::uint64_t spent = 0;
    while (!halted_ && spent < max_cycles) {
        if (trace_on_) {
            spent += runDecoded(max_cycles - spent);
            if (halted_ || spent >= max_cycles)
                break;
        }
        spent += step();
    }
    return spent;
}

void
Hart::setTraceCacheEnabled(bool on)
{
    if (trace_on_ != on)
        dbt_.flush();
    trace_on_ = on;
}

std::uint64_t
Hart::worstCost(const Decoded &d) const
{
    switch (d.cls) {
      case InstrClass::kLoad:
      case InstrClass::kStore:
        return costs_.loadStore;
      case InstrClass::kBranch:
      case InstrClass::kJal:
      case InstrClass::kJalr:
        return std::max(costs_.branchTaken, costs_.alu);
      case InstrClass::kMul:
        return costs_.mul;
      case InstrClass::kDiv:
        return costs_.div;
      case InstrClass::kCsr:
        return costs_.csr;
      case InstrClass::kSystem:
        return std::max<std::uint64_t>(costs_.trap, 1); // wfi costs 1
      case InstrClass::kCustom:
        return std::max(costs_.csr, costs_.alu);
      default:
        return costs_.alu;
    }
}

std::uint64_t
Hart::runDecoded(std::uint64_t budget)
{
    if (!trace_on_ || halted_ || wfi_ || interruptPending())
        return 0;
    std::uint64_t spent = 0;
    slow_event_ = false;
    for (;;) {
        DbtBlock *block = dbt_.lookup(pc_);
        if (block == nullptr)
            block = translateBlock();
        // No translation here (MMIO-resident code, or a strict op
        // first), or the superblock's worst case could reach the
        // budget: hand back to the caller, whose step() runs the next
        // instruction on the interpreter -- so strict ops and the op
        // that crosses an event horizon (kill, sample latch, interrupt)
        // land on the exact interpreter cycle. Chaining inside runDbt
        // repeats the same guard per successor.
        if (block == nullptr || spent + block->worstTotal >= budget)
            break;
        spent += runDbt(block, budget - spent);
        if (slow_event_ || interruptPending())
            break;
    }
    return spent;
}

// --- DBT tier: translation + threaded-code execution -----------------

// Dispatch strategy: computed goto (direct threading) under GCC/Clang,
// a switch over DbtOpcode elsewhere. CMake probes for the extension
// and defines FS_DBT_COMPUTED_GOTO to 0/1 (FS_FORCE_SWITCH_DISPATCH
// pins the fallback for CI); standalone builds fall back to the
// compiler check below. Both dispatchers share the same handler
// bodies via FS_DBT_OP/FS_DBT_NEXT, so they are bit-identical by
// construction.
#ifndef FS_DBT_COMPUTED_GOTO
#if defined(__GNUC__) || defined(__clang__)
#define FS_DBT_COMPUTED_GOTO 1
#else
#define FS_DBT_COMPUTED_GOTO 0
#endif
#endif

DbtBlock *
Hart::translateBlock()
{
    const DirectWindow *w = findWindow(pc_, 4);
    if (w == nullptr)
        return nullptr; // MMIO-resident code: interpreter only
#if FS_DBT_COMPUTED_GOTO
    if (dbt_labels_ == nullptr)
        runDbt(nullptr, 0); // publish the label table
#endif
    // Decode into a fixed buffer (one slot spare for the fall-through
    // pseudo-op) so the block's op array is allocated once, exactly.
    std::array<DbtOp, DbtCache::kMaxBlockOps + 1> ops;
    std::size_t n = 0;
    std::uint64_t worst_total = 0;
    std::uint32_t before = 0; // not-taken cycles of ops[0, n)
    const std::uint64_t window_end = std::uint64_t(w->base) + w->span;
    std::uint32_t pc = pc_;
    bool terminal = false;
    while (n < DbtCache::kMaxBlockOps &&
           std::uint64_t(pc) + 4 <= window_end) {
        const Decoded d = decode(loadDirect(w->data + (pc - w->base), 4));
        bool translatable = true;
        DbtOp op;
        op.rd = std::uint8_t(d.rd);
        op.rs1 = std::uint8_t(d.rs1);
        op.rs2 = std::uint8_t(d.rs2);
        op.imm = d.imm;
        op.cost = std::uint32_t(costs_.alu);
        // Pure ALU writes to x0 are architectural no-ops: lower them
        // to kNop (cost preserved) so every other ALU handler may
        // write regs[rd] unguarded.
        const bool sink = d.rd == 0;
        const auto alu = [&op, sink](DbtOpcode code) {
            op.opcode = sink ? DbtOpcode::kNop : code;
        };
        switch (d.op) {
          case Mnemonic::kLui:
            alu(DbtOpcode::kConst);
            break;
          case Mnemonic::kAuipc:
            // Blocks are keyed by physical pc and die on any code
            // change, so the auipc result is a translation-time
            // constant.
            alu(DbtOpcode::kConst);
            op.imm = std::int32_t(pc + std::uint32_t(d.imm));
            break;
          case Mnemonic::kAddi:
            alu(d.rs1 == 0 ? DbtOpcode::kConst : DbtOpcode::kAddi);
            break;
          case Mnemonic::kSlti:  alu(DbtOpcode::kSlti); break;
          case Mnemonic::kSltiu: alu(DbtOpcode::kSltiu); break;
          case Mnemonic::kXori:  alu(DbtOpcode::kXori); break;
          case Mnemonic::kOri:   alu(DbtOpcode::kOri); break;
          case Mnemonic::kAndi:  alu(DbtOpcode::kAndi); break;
          case Mnemonic::kSlli:  alu(DbtOpcode::kSlli); break;
          case Mnemonic::kSrli:  alu(DbtOpcode::kSrli); break;
          case Mnemonic::kSrai:  alu(DbtOpcode::kSrai); break;
          case Mnemonic::kAdd:   alu(DbtOpcode::kAdd); break;
          case Mnemonic::kSub:   alu(DbtOpcode::kSub); break;
          case Mnemonic::kSll:   alu(DbtOpcode::kSll); break;
          case Mnemonic::kSlt:   alu(DbtOpcode::kSlt); break;
          case Mnemonic::kSltu:  alu(DbtOpcode::kSltu); break;
          case Mnemonic::kXor:   alu(DbtOpcode::kXor); break;
          case Mnemonic::kSrl:   alu(DbtOpcode::kSrl); break;
          case Mnemonic::kSra:   alu(DbtOpcode::kSra); break;
          case Mnemonic::kOr:    alu(DbtOpcode::kOr); break;
          case Mnemonic::kAnd:   alu(DbtOpcode::kAnd); break;
          case Mnemonic::kFence:
            op.opcode = DbtOpcode::kNop;
            break;
          case Mnemonic::kMul:
            alu(DbtOpcode::kMul);
            op.cost = std::uint32_t(costs_.mul);
            break;
          case Mnemonic::kMulh:
            alu(DbtOpcode::kMulh);
            op.cost = std::uint32_t(costs_.mul);
            break;
          case Mnemonic::kMulhsu:
            alu(DbtOpcode::kMulhsu);
            op.cost = std::uint32_t(costs_.mul);
            break;
          case Mnemonic::kMulhu:
            alu(DbtOpcode::kMulhu);
            op.cost = std::uint32_t(costs_.mul);
            break;
          case Mnemonic::kDiv:
            alu(DbtOpcode::kDiv);
            op.cost = std::uint32_t(costs_.div);
            break;
          case Mnemonic::kDivu:
            alu(DbtOpcode::kDivu);
            op.cost = std::uint32_t(costs_.div);
            break;
          case Mnemonic::kRem:
            alu(DbtOpcode::kRem);
            op.cost = std::uint32_t(costs_.div);
            break;
          case Mnemonic::kRemu:
            alu(DbtOpcode::kRemu);
            op.cost = std::uint32_t(costs_.div);
            break;
          // Loads keep rd == x0 (the access itself must happen: MMIO
          // reads can have side effects); the handler guards the
          // register write.
          case Mnemonic::kLb:  op.opcode = DbtOpcode::kLb;  goto load;
          case Mnemonic::kLh:  op.opcode = DbtOpcode::kLh;  goto load;
          case Mnemonic::kLw:  op.opcode = DbtOpcode::kLw;  goto load;
          case Mnemonic::kLbu: op.opcode = DbtOpcode::kLbu; goto load;
          case Mnemonic::kLhu: op.opcode = DbtOpcode::kLhu; goto load;
          load:
            op.cost = std::uint32_t(costs_.loadStore);
            break;
          case Mnemonic::kSb: op.opcode = DbtOpcode::kSb; goto store;
          case Mnemonic::kSh: op.opcode = DbtOpcode::kSh; goto store;
          case Mnemonic::kSw: op.opcode = DbtOpcode::kSw; goto store;
          store:
            op.cost = std::uint32_t(costs_.loadStore);
            op.aux = pc + 4; // exit pc if the store forces a bail-out
            break;
          case Mnemonic::kBeq:  op.opcode = DbtOpcode::kBeq;  goto branch;
          case Mnemonic::kBne:  op.opcode = DbtOpcode::kBne;  goto branch;
          case Mnemonic::kBlt:  op.opcode = DbtOpcode::kBlt;  goto branch;
          case Mnemonic::kBge:  op.opcode = DbtOpcode::kBge;  goto branch;
          case Mnemonic::kBltu: op.opcode = DbtOpcode::kBltu; goto branch;
          case Mnemonic::kBgeu: op.opcode = DbtOpcode::kBgeu; goto branch;
          branch:
            op.imm = std::int32_t(pc + std::uint32_t(d.imm)); // abs target
            op.cost2 = std::uint32_t(costs_.branchTaken);
            break;
          case Mnemonic::kJal:
            op.opcode = DbtOpcode::kJal;
            op.imm = std::int32_t(pc + std::uint32_t(d.imm)); // abs target
            op.aux = pc + 4; // link value
            op.cost = std::uint32_t(costs_.branchTaken);
            terminal = true;
            break;
          case Mnemonic::kJalr:
            op.opcode = DbtOpcode::kJalr;
            op.aux = pc + 4; // link value
            op.cost = std::uint32_t(costs_.branchTaken);
            terminal = true;
            break;
          default:
            // System/CSR/custom/illegal: cut the superblock here. The
            // translated prefix exits to this pc, where the lookup
            // misses again and the interpreter runs the op with
            // per-instruction counter commits, so mcycle/minstret
            // probes stay exact (and an illegal op traps at its pc).
            translatable = false;
            break;
        }
        if (!translatable)
            break;
        op.before = before;
        before += op.cost;
        ops[n++] = op;
        worst_total += worstCost(d);
        pc += 4;
        if (terminal)
            break;
    }
    if (n == 0)
        return nullptr; // first op already strict: nothing to run here
    if (!terminal) {
        // The block ended on the op cap, the window's end, or a
        // strict-op cutoff: chain to the next pc, charging the whole
        // block (the pseudo-op itself costs and retires nothing).
        DbtOp &tail = ops[n++];
        tail.opcode = DbtOpcode::kFallthrough;
        tail.imm = std::int32_t(pc);
        tail.before = before;
    }
#if FS_DBT_COMPUTED_GOTO
    for (std::size_t i = 0; i < n; ++i)
        ops[i].handler = dbt_labels_[std::size_t(ops[i].opcode)];
#endif
    DbtBlock blk;
    blk.base = pc_;
    blk.worstTotal = worst_total;
    blk.ops.assign(ops.begin(), ops.begin() + std::ptrdiff_t(n));
    return dbt_.insert(std::move(blk));
}

// Shared handler bodies for both dispatchers: FS_DBT_OP opens a
// handler (goto label vs. switch case), FS_DBT_ENTER dispatches the
// current op (block entry, chain transfer) and FS_DBT_NEXT its
// successor. Neither touches a counter: only exits charge cycles and
// retirement (see dbt.h).
#if FS_DBT_COMPUTED_GOTO
#define FS_DBT_OP(name) h_##name:
#define FS_DBT_ENTER() goto *op->handler
#else
#define FS_DBT_OP(name) case DbtOpcode::name:
#define FS_DBT_ENTER() goto dispatch
#endif
#define FS_DBT_NEXT()                                                  \
    do {                                                               \
        ++op;                                                          \
        FS_DBT_ENTER();                                                \
    } while (0)

__attribute__((flatten)) std::uint64_t
Hart::runDbt(DbtBlock *block, std::uint64_t budget)
{
#if FS_DBT_COMPUTED_GOTO
    // Order must match DbtOpcode exactly.
    static const void *const kLabels[std::size_t(DbtOpcode::kCount)] =
        {&&h_kNop,  &&h_kConst, &&h_kAddi,  &&h_kSlti,   &&h_kSltiu,
         &&h_kXori, &&h_kOri,   &&h_kAndi,  &&h_kSlli,   &&h_kSrli,
         &&h_kSrai, &&h_kAdd,   &&h_kSub,   &&h_kSll,    &&h_kSlt,
         &&h_kSltu, &&h_kXor,   &&h_kSrl,   &&h_kSra,    &&h_kOr,
         &&h_kAnd,  &&h_kMul,   &&h_kMulh,  &&h_kMulhsu, &&h_kMulhu,
         &&h_kDiv,  &&h_kDivu,  &&h_kRem,   &&h_kRemu,   &&h_kLb,
         &&h_kLh,   &&h_kLw,    &&h_kLbu,   &&h_kLhu,    &&h_kSb,
         &&h_kSh,   &&h_kSw,    &&h_kBeq,   &&h_kBne,    &&h_kBlt,
         &&h_kBge,  &&h_kBltu,  &&h_kBgeu,  &&h_kJal,    &&h_kJalr,
         &&h_kFallthrough};
    if (block == nullptr) {
        dbt_labels_ = kLabels;
        return 0;
    }
#else
    if (block == nullptr)
        return 0;
#endif
    const std::uint64_t cycles0 = cycles_;
    // Cycles charged by exits and not yet committed to cycles_. An
    // MMIO access rewinds it below zero (it wraps) by the cycles it
    // committed early; the exit that follows adds them back.
    std::uint64_t pending = 0;
    std::uint64_t retired = 0; // instret not yet committed
    std::uint64_t chained = 0;
    std::uint32_t *const r = regs_.data();
    DbtOp *first = block->ops.data(); // op 0 of the current block
    DbtOp *op = first;
    // The last direct data window, copied into locals so that a load
    // or store hit is one compare in registers. The block was
    // translated from a window, so the table is loaded and
    // mru_window_ indexes it.
    const DirectWindow *win = &windows_[mru_window_];
    std::uint32_t wbase = win->base;
    std::uint32_t wspan = win->span;
    const std::uint8_t *wdata = win->data;
    const auto refill = [&](std::uint32_t addr, unsigned width) {
        const DirectWindow *w = findWindow(addr, width);
        if (w == nullptr)
            return false;
        win = w;
        wbase = w->base;
        wspan = w->span;
        wdata = w->data;
        return true;
    };
    FS_DBT_ENTER();

#if !FS_DBT_COMPUTED_GOTO
dispatch:
    switch (op->opcode) {
#endif

    FS_DBT_OP(kNop) { FS_DBT_NEXT(); }
    FS_DBT_OP(kConst)
    {
        r[op->rd] = std::uint32_t(op->imm);
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kAddi)
    {
        r[op->rd] = r[op->rs1] + std::uint32_t(op->imm);
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kSlti)
    {
        r[op->rd] = std::int32_t(r[op->rs1]) < op->imm ? 1u : 0u;
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kSltiu)
    {
        r[op->rd] = r[op->rs1] < std::uint32_t(op->imm) ? 1u : 0u;
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kXori)
    {
        r[op->rd] = r[op->rs1] ^ std::uint32_t(op->imm);
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kOri)
    {
        r[op->rd] = r[op->rs1] | std::uint32_t(op->imm);
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kAndi)
    {
        r[op->rd] = r[op->rs1] & std::uint32_t(op->imm);
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kSlli)
    {
        r[op->rd] = r[op->rs1] << (std::uint32_t(op->imm) & 0x1f);
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kSrli)
    {
        r[op->rd] = r[op->rs1] >> (std::uint32_t(op->imm) & 0x1f);
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kSrai)
    {
        r[op->rd] = std::uint32_t(std::int32_t(r[op->rs1]) >>
                                  (std::uint32_t(op->imm) & 0x1f));
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kAdd)
    {
        r[op->rd] = r[op->rs1] + r[op->rs2];
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kSub)
    {
        r[op->rd] = r[op->rs1] - r[op->rs2];
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kSll)
    {
        r[op->rd] = r[op->rs1] << (r[op->rs2] & 0x1f);
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kSlt)
    {
        r[op->rd] =
            std::int32_t(r[op->rs1]) < std::int32_t(r[op->rs2]) ? 1u
                                                                : 0u;
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kSltu)
    {
        r[op->rd] = r[op->rs1] < r[op->rs2] ? 1u : 0u;
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kXor)
    {
        r[op->rd] = r[op->rs1] ^ r[op->rs2];
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kSrl)
    {
        r[op->rd] = r[op->rs1] >> (r[op->rs2] & 0x1f);
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kSra)
    {
        r[op->rd] = std::uint32_t(std::int32_t(r[op->rs1]) >>
                                  (r[op->rs2] & 0x1f));
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kOr)
    {
        r[op->rd] = r[op->rs1] | r[op->rs2];
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kAnd)
    {
        r[op->rd] = r[op->rs1] & r[op->rs2];
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kMul)
    {
        r[op->rd] = r[op->rs1] * r[op->rs2];
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kMulh)
    {
        r[op->rd] =
            std::uint32_t((std::int64_t(std::int32_t(r[op->rs1])) *
                           std::int64_t(std::int32_t(r[op->rs2]))) >>
                          32);
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kMulhsu)
    {
        r[op->rd] =
            std::uint32_t((std::int64_t(std::int32_t(r[op->rs1])) *
                           std::int64_t(std::uint64_t(r[op->rs2]))) >>
                          32);
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kMulhu)
    {
        r[op->rd] = std::uint32_t((std::uint64_t(r[op->rs1]) *
                                   std::uint64_t(r[op->rs2])) >>
                                  32);
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kDiv)
    {
        const std::uint32_t a = r[op->rs1];
        const std::uint32_t b = r[op->rs2];
        if (b == 0)
            r[op->rd] = 0xffffffffu;
        else if (a == 0x80000000u && b == 0xffffffffu)
            r[op->rd] = 0x80000000u;
        else
            r[op->rd] =
                std::uint32_t(std::int32_t(a) / std::int32_t(b));
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kDivu)
    {
        const std::uint32_t b = r[op->rs2];
        r[op->rd] = b == 0 ? 0xffffffffu : r[op->rs1] / b;
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kRem)
    {
        const std::uint32_t a = r[op->rs1];
        const std::uint32_t b = r[op->rs2];
        if (b == 0)
            r[op->rd] = a;
        else if (a == 0x80000000u && b == 0xffffffffu)
            r[op->rd] = 0;
        else
            r[op->rd] =
                std::uint32_t(std::int32_t(a) % std::int32_t(b));
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kRemu)
    {
        const std::uint32_t b = r[op->rs2];
        r[op->rd] = b == 0 ? r[op->rs1] : r[op->rs1] % b;
        FS_DBT_NEXT();
    }

    // Direct-window test: a hit on the cached window is one unsigned
    // compare; a miss refills it through findWindow, and a miss there
    // too is an MMIO access.
#define FS_DBT_DIRECT(addr, width)                                     \
    (std::uint32_t((addr) - wbase) <= wspan - (width) ||               \
     refill(addr, width))

    // An MMIO access commits the cycles up to its own start (the
    // exits' pending charge plus the block's cycles ahead of this op),
    // so the peripheral's time-sync hook sees exactly the
    // interpreter's cycle count. It then rewinds pending by those
    // in-block cycles, which the block's exit charges again.
    // syncSlowAccess raises slow_event_, checked at the next chain
    // point.
#define FS_DBT_SLOW_SYNC(before)                                       \
    do {                                                               \
        cycles_ += pending + (before);                                 \
        pending = std::uint64_t(0) - (before);                         \
        syncSlowAccess();                                              \
    } while (0)

    // Loads serve the direct-window fast path inline. MMIO *reads*
    // never move an event horizon or raise an interrupt, so a slow
    // load finishes the block.
#define FS_DBT_LOAD(width, transform)                                  \
    do {                                                               \
        const std::uint32_t addr =                                     \
            r[op->rs1] + std::uint32_t(op->imm);                       \
        std::uint32_t v;                                               \
        if (FS_DBT_DIRECT(addr, width)) {                              \
            v = loadDirect(wdata + (addr - wbase), width);             \
        } else {                                                       \
            FS_DBT_SLOW_SYNC(std::uint64_t(op->before));               \
            v = bus_.read(addr, width);                                \
        }                                                              \
        if (op->rd)                                                    \
            r[op->rd] = transform;                                     \
        FS_DBT_NEXT();                                                 \
    } while (0)

    FS_DBT_OP(kLb) { FS_DBT_LOAD(1, std::uint32_t(signExtend(v, 8))); }
    FS_DBT_OP(kLh) { FS_DBT_LOAD(2, std::uint32_t(signExtend(v, 16))); }
    FS_DBT_OP(kLw) { FS_DBT_LOAD(4, v); }
    FS_DBT_OP(kLbu) { FS_DBT_LOAD(1, v); }
    FS_DBT_OP(kLhu) { FS_DBT_LOAD(2, v); }

    // Stores mirror Hart::store (flush checks first, virtual device
    // write so NVM filters/tear bookkeeping always run), then re-check
    // the DBT generation: a store into translated code freed this very
    // op array, so what the exit needs is read into locals beforehand.
    // MMIO stores (slow_event_) can move an event horizon and exit
    // too.
#define FS_DBT_STORE(width)                                            \
    do {                                                               \
        const std::uint32_t addr =                                     \
            r[op->rs1] + std::uint32_t(op->imm);                       \
        const std::uint32_t value = r[op->rs2];                        \
        const std::uint64_t before = op->before;                       \
        const std::uint64_t charge = before + op->cost;                \
        const std::uint64_t count = std::uint64_t(op - first) + 1;     \
        const std::uint32_t next = op->aux;                            \
        const std::uint64_t gen = dbt_.generation();                   \
        invalidateCode(addr, width);                                   \
        if (FS_DBT_DIRECT(addr, width)) {                              \
            win->device->write(addr - win->deviceBase, value, width);  \
        } else {                                                       \
            FS_DBT_SLOW_SYNC(before);                                  \
            bus_.write(addr, value, width);                            \
        }                                                              \
        if (dbt_.generation() != gen || slow_event_) {                 \
            pending += charge;                                         \
            retired += count;                                          \
            pc_ = next;                                                \
            goto done;                                                 \
        }                                                              \
        FS_DBT_NEXT();                                                 \
    } while (0)

    FS_DBT_OP(kSb) { FS_DBT_STORE(1); }
    FS_DBT_OP(kSh) { FS_DBT_STORE(2); }
    FS_DBT_OP(kSw) { FS_DBT_STORE(4); }

#define FS_DBT_BRANCH(cond)                                            \
    do {                                                               \
        if (cond)                                                      \
            goto branch_taken;                                         \
        FS_DBT_NEXT();                                                 \
    } while (0)

    FS_DBT_OP(kBeq) { FS_DBT_BRANCH(r[op->rs1] == r[op->rs2]); }
    FS_DBT_OP(kBne) { FS_DBT_BRANCH(r[op->rs1] != r[op->rs2]); }
    FS_DBT_OP(kBlt)
    {
        FS_DBT_BRANCH(std::int32_t(r[op->rs1]) <
                      std::int32_t(r[op->rs2]));
    }
    FS_DBT_OP(kBge)
    {
        FS_DBT_BRANCH(std::int32_t(r[op->rs1]) >=
                      std::int32_t(r[op->rs2]));
    }
    FS_DBT_OP(kBltu) { FS_DBT_BRANCH(r[op->rs1] < r[op->rs2]); }
    FS_DBT_OP(kBgeu) { FS_DBT_BRANCH(r[op->rs1] >= r[op->rs2]); }

    FS_DBT_OP(kJal)
    {
        if (op->rd)
            r[op->rd] = op->aux;
        pending += op->before + op->cost;
        retired += std::uint64_t(op - first) + 1;
        goto chain_follow;
    }
    FS_DBT_OP(kJalr)
    {
        // Dynamic target: exit to the outer dispatch loop (which
        // re-enters translated code immediately on a hit). rs1 is
        // read before the link write, as the interpreter does.
        const std::uint32_t target =
            (r[op->rs1] + std::uint32_t(op->imm)) & ~1u;
        if (op->rd)
            r[op->rd] = op->aux;
        pending += op->before + op->cost;
        retired += std::uint64_t(op - first) + 1;
        pc_ = target;
        goto done;
    }
    FS_DBT_OP(kFallthrough)
    {
        // Pseudo-op: charges the block's ops but retires only them.
        pending += op->before;
        retired += std::uint64_t(op - first);
        goto chain_follow;
    }

#if !FS_DBT_COMPUTED_GOTO
      case DbtOpcode::kCount:
        break;
    }
    fatal("corrupt DBT opcode at pc 0x", std::hex, pc_);
#endif

branch_taken:
    pending += op->before + op->cost2;
    retired += std::uint64_t(op - first) + 1;
    // fall through to the chain follow (target in op->imm)

chain_follow: {
    // Direct block->block transfer. The guard set matches runDecoded's
    // dispatch loop exactly: bail to it on a slow event or pending
    // interrupt, and never enter a successor whose worst case could
    // cross the event horizon. Links are patched lazily on first use
    // and unlinked on eviction/flush.
    const std::uint32_t target = std::uint32_t(op->imm);
    DbtBlock *next = op->chain;
    if (next == nullptr) {
        next = dbt_.lookup(target);
        if (next == nullptr) {
            pc_ = target;
            goto done;
        }
        dbt_.link(op, next);
    }
    if (slow_event_ || interruptPending() ||
        (cycles_ - cycles0) + pending + next->worstTotal >= budget) {
        pc_ = target;
        goto done;
    }
    ++chained;
    first = op = next->ops.data();
    FS_DBT_ENTER();
}

done: {
    cycles_ += pending;
    instret_ += retired;
    DbtStats &st = dbt_.stats();
    st.chainTransfers += chained;
    ++st.dispatchExits;
    return cycles_ - cycles0;
}
}

#undef FS_DBT_OP
#undef FS_DBT_ENTER
#undef FS_DBT_NEXT
#undef FS_DBT_DIRECT
#undef FS_DBT_SLOW_SYNC
#undef FS_DBT_LOAD
#undef FS_DBT_STORE
#undef FS_DBT_BRANCH

void
Hart::powerFail()
{
    regs_.fill(0);
    pc_ = 0;
    csrs_.fill(0);
    wfi_ = false;
    halted_ = true;
}

void
Hart::reset(std::uint32_t pc)
{
    regs_.fill(0);
    csrs_.fill(0);
    pc_ = pc;
    wfi_ = false;
    halted_ = false;
    // Reset commonly follows reloading code memory (tests load a new
    // image and reset): translated blocks must not outlive the image.
    dbt_.flush();
}

Hart::ArchState
Hart::saveArch() const
{
    ArchState s;
    s.regs = regs_;
    s.pc = pc_;
    s.csrs = csrs_;
    s.cycles = cycles_;
    s.instret = instret_;
    s.wfi = wfi_;
    s.halted = halted_;
    return s;
}

void
Hart::restoreArch(const ArchState &s)
{
    regs_ = s.regs;
    pc_ = s.pc;
    csrs_ = s.csrs;
    cycles_ = s.cycles;
    instret_ = s.instret;
    wfi_ = s.wfi;
    halted_ = s.halted;
}

std::uint64_t
Hart::executeDecoded(const Decoded &d)
{
    const std::uint32_t a = regs_[d.rs1];
    const std::uint32_t b = regs_[d.rs2];
    const std::uint32_t imm = std::uint32_t(d.imm);
    std::uint32_t next_pc = pc_ + 4;
    std::uint64_t cost = costs_.alu;

    switch (d.op) {
      case Mnemonic::kLui:
        setReg(d.rd, imm);
        break;
      case Mnemonic::kAuipc:
        setReg(d.rd, pc_ + imm);
        break;
      case Mnemonic::kJal:
        setReg(d.rd, pc_ + 4);
        next_pc = pc_ + imm;
        cost = costs_.branchTaken;
        break;
      case Mnemonic::kJalr:
        setReg(d.rd, pc_ + 4);
        next_pc = (a + imm) & ~1u;
        cost = costs_.branchTaken;
        break;
      case Mnemonic::kBeq:
        if (a == b) {
            next_pc = pc_ + imm;
            cost = costs_.branchTaken;
        }
        break;
      case Mnemonic::kBne:
        if (a != b) {
            next_pc = pc_ + imm;
            cost = costs_.branchTaken;
        }
        break;
      case Mnemonic::kBlt:
        if (std::int32_t(a) < std::int32_t(b)) {
            next_pc = pc_ + imm;
            cost = costs_.branchTaken;
        }
        break;
      case Mnemonic::kBge:
        if (std::int32_t(a) >= std::int32_t(b)) {
            next_pc = pc_ + imm;
            cost = costs_.branchTaken;
        }
        break;
      case Mnemonic::kBltu:
        if (a < b) {
            next_pc = pc_ + imm;
            cost = costs_.branchTaken;
        }
        break;
      case Mnemonic::kBgeu:
        if (a >= b) {
            next_pc = pc_ + imm;
            cost = costs_.branchTaken;
        }
        break;
      case Mnemonic::kLb:
        setReg(d.rd, std::uint32_t(signExtend(load(a + imm, 1), 8)));
        cost = costs_.loadStore;
        break;
      case Mnemonic::kLh:
        setReg(d.rd, std::uint32_t(signExtend(load(a + imm, 2), 16)));
        cost = costs_.loadStore;
        break;
      case Mnemonic::kLw:
        setReg(d.rd, load(a + imm, 4));
        cost = costs_.loadStore;
        break;
      case Mnemonic::kLbu:
        setReg(d.rd, load(a + imm, 1));
        cost = costs_.loadStore;
        break;
      case Mnemonic::kLhu:
        setReg(d.rd, load(a + imm, 2));
        cost = costs_.loadStore;
        break;
      case Mnemonic::kSb:
        store(a + imm, b, 1);
        cost = costs_.loadStore;
        break;
      case Mnemonic::kSh:
        store(a + imm, b, 2);
        cost = costs_.loadStore;
        break;
      case Mnemonic::kSw:
        store(a + imm, b, 4);
        cost = costs_.loadStore;
        break;
      case Mnemonic::kAddi:
        setReg(d.rd, a + imm);
        break;
      case Mnemonic::kSlti:
        setReg(d.rd, std::int32_t(a) < d.imm ? 1 : 0);
        break;
      case Mnemonic::kSltiu:
        setReg(d.rd, a < imm ? 1 : 0);
        break;
      case Mnemonic::kXori:
        setReg(d.rd, a ^ imm);
        break;
      case Mnemonic::kOri:
        setReg(d.rd, a | imm);
        break;
      case Mnemonic::kAndi:
        setReg(d.rd, a & imm);
        break;
      case Mnemonic::kSlli:
        setReg(d.rd, a << (imm & 0x1f));
        break;
      case Mnemonic::kSrli:
        setReg(d.rd, a >> (imm & 0x1f));
        break;
      case Mnemonic::kSrai:
        setReg(d.rd, std::uint32_t(std::int32_t(a) >> (imm & 0x1f)));
        break;
      case Mnemonic::kAdd:
        setReg(d.rd, a + b);
        break;
      case Mnemonic::kSub:
        setReg(d.rd, a - b);
        break;
      case Mnemonic::kSll:
        setReg(d.rd, a << (b & 0x1f));
        break;
      case Mnemonic::kSlt:
        setReg(d.rd, std::int32_t(a) < std::int32_t(b) ? 1 : 0);
        break;
      case Mnemonic::kSltu:
        setReg(d.rd, a < b ? 1 : 0);
        break;
      case Mnemonic::kXor:
        setReg(d.rd, a ^ b);
        break;
      case Mnemonic::kSrl:
        setReg(d.rd, a >> (b & 0x1f));
        break;
      case Mnemonic::kSra:
        setReg(d.rd, std::uint32_t(std::int32_t(a) >> (b & 0x1f)));
        break;
      case Mnemonic::kOr:
        setReg(d.rd, a | b);
        break;
      case Mnemonic::kAnd:
        setReg(d.rd, a & b);
        break;
      case Mnemonic::kMul:
        setReg(d.rd, a * b);
        cost = costs_.mul;
        break;
      case Mnemonic::kMulh:
        setReg(d.rd,
               std::uint32_t((std::int64_t(std::int32_t(a)) *
                              std::int64_t(std::int32_t(b))) >>
                             32));
        cost = costs_.mul;
        break;
      case Mnemonic::kMulhsu:
        setReg(d.rd,
               std::uint32_t((std::int64_t(std::int32_t(a)) *
                              std::int64_t(std::uint64_t(b))) >>
                             32));
        cost = costs_.mul;
        break;
      case Mnemonic::kMulhu:
        setReg(d.rd,
               std::uint32_t((std::uint64_t(a) * std::uint64_t(b)) >>
                             32));
        cost = costs_.mul;
        break;
      case Mnemonic::kDiv:
        if (b == 0)
            setReg(d.rd, 0xffffffffu);
        else if (a == 0x80000000u && b == 0xffffffffu)
            setReg(d.rd, 0x80000000u);
        else
            setReg(d.rd, std::uint32_t(std::int32_t(a) / std::int32_t(b)));
        cost = costs_.div;
        break;
      case Mnemonic::kDivu:
        setReg(d.rd, b == 0 ? 0xffffffffu : a / b);
        cost = costs_.div;
        break;
      case Mnemonic::kRem:
        if (b == 0)
            setReg(d.rd, a);
        else if (a == 0x80000000u && b == 0xffffffffu)
            setReg(d.rd, 0);
        else
            setReg(d.rd, std::uint32_t(std::int32_t(a) % std::int32_t(b)));
        cost = costs_.div;
        break;
      case Mnemonic::kRemu:
        setReg(d.rd, b == 0 ? a : a % b);
        cost = costs_.div;
        break;
      case Mnemonic::kFence:
        break; // no-op in a single-hart system
      case Mnemonic::kFsMark:
        // Checkpoint-boundary marker. Architecturally a no-op; it only
        // exists so the static analyzer can locate commit points in
        // the binary. Works without a coprocessor.
        break;
      case Mnemonic::kFsRead:
        if (!cop_)
            fatal("custom-0 instruction with no coprocessor attached");
        syncSlowAccess();
        setReg(d.rd, cop_->fsRead());
        cost = costs_.csr;
        break;
      case Mnemonic::kFsCfg:
        if (!cop_)
            fatal("custom-0 instruction with no coprocessor attached");
        syncSlowAccess();
        cop_->fsConfigure(a, b);
        cost = costs_.csr;
        break;
      case Mnemonic::kEcall:
        pc_ += 4;
        if (ecall_ && ecall_(*this))
            halted_ = true;
        return costs_.trap;
      case Mnemonic::kEbreak:
        halted_ = true;
        pc_ += 4;
        return costs_.trap;
      case Mnemonic::kMret:
        pc_ = csrs_[kIdxMepc];
        // MIE <- MPIE; MPIE <- 1.
        if (csrs_[kIdxMstatus] & kMstatusMpie)
            csrs_[kIdxMstatus] |= kMstatusMie;
        else
            csrs_[kIdxMstatus] &= ~kMstatusMie;
        csrs_[kIdxMstatus] |= kMstatusMpie;
        return costs_.trap;
      case Mnemonic::kWfi:
        wfi_ = true;
        pc_ += 4;
        return 1;
      case Mnemonic::kCsrrw:
      case Mnemonic::kCsrrs:
      case Mnemonic::kCsrrc:
      case Mnemonic::kCsrrwi:
      case Mnemonic::kCsrrsi:
      case Mnemonic::kCsrrci:
        return executeCsr(d);
      case Mnemonic::kIllegal:
        fatal("illegal instruction 0x", std::hex, d.raw, " at pc 0x",
              pc_);
    }
    pc_ = next_pc;
    return cost;
}

std::uint64_t
Hart::executeCsr(const Decoded &d)
{
    const std::uint32_t old =
        (d.csr == kCsrMcycle || d.csr == kCsrMinstret) ? csr(d.csr)
                                                       : csrRef(d.csr);
    // Immediate forms carry the zimm in imm (the decoder zeroes rs1).
    const bool imm_form = d.op == Mnemonic::kCsrrwi ||
                          d.op == Mnemonic::kCsrrsi ||
                          d.op == Mnemonic::kCsrrci;
    const std::uint32_t src =
        imm_form ? std::uint32_t(d.imm) : regs_[d.rs1];
    switch (d.op) {
      case Mnemonic::kCsrrw:
      case Mnemonic::kCsrrwi:
        csrRef(d.csr) = src;
        break;
      case Mnemonic::kCsrrs:
      case Mnemonic::kCsrrsi:
        if (src)
            csrRef(d.csr) = old | src;
        break;
      default: // kCsrrc / kCsrrci
        if (src)
            csrRef(d.csr) = old & ~src;
        break;
    }
    setReg(d.rd, old);
    pc_ += 4;
    return costs_.csr;
}

} // namespace riscv
} // namespace fs
