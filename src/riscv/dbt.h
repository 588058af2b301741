/**
 * @file
 * Dynamic-binary-translation tier: the ISS's one fast executor.
 *
 * The interpreter re-fetches, re-decodes and switch-dispatches every
 * instruction on every execution. This tier decodes each basic block
 * once, on its first dispatch, straight from the bus's direct
 * host-pointer window (through riscv::decode(), the same decoder the
 * interpreter uses) and lowers it into contiguous *threaded code*:
 * every guest instruction becomes a DbtOp carrying a direct handler
 * pointer (computed-goto dispatch under GCC/Clang, a switch fallback
 * elsewhere -- see FS_DBT_COMPUTED_GOTO) and pre-folded operands.
 * Immediates, auipc results, branch/jal targets, and link values are
 * resolved to absolute constants at translation time (blocks are keyed
 * by physical pc and die on any code change, so that folding is
 * sound), which eliminates pc tracking inside a block entirely. Blocks
 * chain directly to their successors -- fall-through, jal, and
 * taken-branch edges patch a per-op `chain` pointer on first use -- so
 * hot loops execute without returning to the outer dispatch loop.
 *
 * Correctness contract: execution is bounded by the SoC event horizon
 * (a block or chained successor is only entered when its worst-case
 * cost still fits strictly under the remaining budget; otherwise the
 * hart exits to the interpreter, which runs the horizon-crossing
 * instruction on its exact cycle), the cache is flushed on stores into
 * translated code, reset, and image loads, and system/CSR/custom ops
 * are never translated: a superblock covers only the prefix up to the
 * first strict op and exits to it, so those ops run on the interpreter
 * and `mcycle`/`minstret` stay exact. Results are bit-identical to the
 * interpreter at any thread count; FS_NO_TRACE_CACHE disables the tier
 * (the historical name of the fast-path kill switch).
 *
 * Cycles and retired instructions are charged once per block exit,
 * not per op. A block is entered only at its first op and left
 * through exactly one op, and every op ahead of that exit took its
 * not-taken path. So when the block leaves through an op, the op's
 * DbtOp::before (the not-taken cycles of the ops ahead of it) plus
 * its own cost is everything the block spent, and its index plus one
 * is everything it retired. ALU, const, load and not-taken branch
 * handlers touch no counters; each exit charges:
 *  - taken branch: before + cost2, retiring index + 1;
 *  - jal / jalr, and a store that bails out (self-modifying store or
 *    MMIO store): before + cost, retiring index + 1;
 *  - kFallthrough: before, retiring index (the pseudo-op is not guest
 *    code).
 * A load or store that leaves the direct windows (MMIO) commits the
 * cycles up to its own start (pending plus before) to the hart before
 * the slow-access hook runs, so the peripheral sees the interpreter's
 * exact cycle, and rewinds the pending charge by before so the exit
 * that follows does not count those cycles twice.
 *
 * Invariants the executor relies on (established by translation):
 *  - pure ALU/const ops with rd == x0 are lowered to kNop (handlers
 *    may write regs[rd] unguarded); loads/jal/jalr keep an rd check
 *    because the access itself must still happen;
 *  - every block ends in a control transfer (kJal/kJalr) or an
 *    explicit kFallthrough pseudo-op, so dispatch never runs off the
 *    end of the op array;
 *  - worstTotal bounds the cycles any path through the block can
 *    spend, so the entry/chain budget guards compose with
 *    Soc::eventHorizon;
 *  - every direct window spans at least 4 bytes, so the executor's
 *    one-compare window test (addr - base <= span - width) cannot
 *    wrap.
 */

#ifndef FS_RISCV_DBT_H_
#define FS_RISCV_DBT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace fs {
namespace riscv {

struct DbtBlock;

/** Threaded-code opcodes (the switch fallback dispatches on these;
 *  the computed-goto dispatcher uses DbtOp::handler directly). One
 *  byte, so a DbtOp stays 40 bytes on a 64-bit host. */
enum class DbtOpcode : std::uint8_t {
    kNop,    ///< fence, and any pure ALU op with rd == x0
    kConst,  ///< rd <- imm (lui, auipc and li pre-folded)
    kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
    kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
    kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
    kLb, kLh, kLw, kLbu, kLhu,
    kSb, kSh, kSw,
    kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
    kJal,         ///< terminal: link + chain to static target
    kJalr,        ///< terminal: link + dispatch exit (dynamic target)
    kFallthrough, ///< terminal pseudo-op: chain to the next block
    kCount,
};

/**
 * One threaded-code op. Operands are pre-folded at translation time:
 * `imm` holds the sign-extended immediate for ALU/memory ops but the
 * *absolute* target pc for branches/jal/kFallthrough and the folded
 * constant for kConst; `aux` holds the link value (pc+4) for jal/jalr
 * and the post-op exit pc for stores (the only mid-block ops that can
 * force a dispatch exit). The cycle fields are read only at block
 * exits and MMIO accesses (see the accounting contract above).
 */
struct DbtOp {
    const void *handler = nullptr; ///< computed-goto label address
    DbtBlock *chain = nullptr;     ///< direct successor (lazily linked)
    std::int32_t imm = 0;
    std::uint32_t aux = 0;
    /** Cycles of this op's not-taken path: what it adds to the
     *  `before` of the ops after it, and what a jal, jalr or
     *  bailing-out store charges on top of its own `before`. */
    std::uint32_t cost = 0;
    std::uint32_t cost2 = 0;  ///< taken cost for branches
    /** Not-taken cycles of the block's earlier ops (for kFallthrough,
     *  of all of them): charged, with this op's own cost, at an exit
     *  through this op, and committed before an MMIO access. */
    std::uint32_t before = 0;
    DbtOpcode opcode = DbtOpcode::kNop;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
};

static_assert(sizeof(DbtOp) == 2 * sizeof(void *) + 24,
              "DbtOp must stay two pointers, five 32-bit fields and "
              "four bytes (40 bytes on a 64-bit host)");

/** A translated superblock: contiguous threaded code plus the chain
 *  bookkeeping needed to unlink it on eviction. */
struct DbtBlock {
    std::uint32_t base = 0;
    /** Sum of every op's worst-case cycle cost (a branch counts as
     *  taken): the entry and chain guards compare it against the
     *  remaining budget. */
    std::uint64_t worstTotal = 0;
    std::vector<DbtOp> ops;
    /** Chain slots in *other* blocks (or this one: self-loops are
     *  legal) that point at this block; nulled when it is evicted. */
    std::vector<DbtOp *> incoming;
    /** Recency stamp for LRU-ish eviction: bumped on lookup and on
     *  being chained into (chained blocks bypass lookup). */
    std::uint64_t lastUse = 0;

    std::size_t
    bytes() const
    {
        return sizeof(DbtBlock) + ops.capacity() * sizeof(DbtOp) +
               incoming.capacity() * sizeof(DbtOp *);
    }
};

/** Per-cache tier statistics (test/bench introspection). */
struct DbtStats {
    std::uint64_t translations = 0;  ///< blocks lowered to threaded code
    std::uint64_t hits = 0;          ///< dispatch-loop lookup hits
    std::uint64_t misses = 0;        ///< dispatch-loop lookup misses
    std::uint64_t chainLinks = 0;    ///< chain slots patched
    std::uint64_t chainTransfers = 0;///< block->block jumps taken inline
    std::uint64_t dispatchExits = 0; ///< returns to the outer loop
    std::uint64_t evictions = 0;     ///< blocks dropped for the budget
    std::uint64_t unlinks = 0;       ///< chain slots nulled by eviction
    std::uint64_t flushes = 0;       ///< full invalidations
};

/**
 * Translation cache: owns the threaded-code blocks, enforces a byte
 * budget with LRU-ish eviction (evicting a block unlinks every chain
 * into and out of it), and tracks a conservative code extent and a
 * generation counter for self-modifying-code flushes.
 */
class DbtCache
{
  public:
    /** Direct-mapped front-end slots ahead of the block map. */
    static constexpr std::size_t kDirectSlots = 2048;

    /** Default translation-cache byte budget (FS_DBT_CACHE_BYTES). */
    static constexpr std::size_t kDefaultBudgetBytes = 8u << 20;

    /** Cap on guest ops per translated block. */
    static constexpr std::size_t kMaxBlockOps = 64;

    DbtCache();

    /** Translated block starting exactly at @p pc (nullptr on miss). */
    DbtBlock *
    lookup(std::uint32_t pc)
    {
        Slot &slot = slots_[(pc >> 2) & (kDirectSlots - 1)];
        if (slot.block != nullptr && slot.pc == pc) {
            ++stats_.hits;
            slot.block->lastUse = ++tick_;
            return slot.block;
        }
        const auto it = blocks_.find(pc);
        if (it == blocks_.end()) {
            ++stats_.misses;
            return nullptr;
        }
        ++stats_.hits;
        slot.pc = pc;
        slot.block = it->second.get();
        slot.block->lastUse = ++tick_;
        return slot.block;
    }

    /**
     * Take ownership of a freshly translated block and return the
     * stable cached copy. May evict cold blocks (never the one just
     * inserted) to stay under the byte budget.
     */
    DbtBlock *insert(DbtBlock block);

    /** Patch @p from's chain slot to @p to and record the back-ref so
     *  eviction can unlink it. */
    void
    link(DbtOp *from, DbtBlock *to)
    {
        from->chain = to;
        // Keep bytes_ in sync with bytes(): removeBlock subtracts the
        // victim's *current* footprint, so growth of the incoming list
        // must be charged here or the counter drifts low.
        const std::size_t before = to->incoming.capacity();
        to->incoming.push_back(from);
        bytes_ +=
            (to->incoming.capacity() - before) * sizeof(DbtOp *);
        to->lastUse = ++tick_;
        ++stats_.chainLinks;
    }

    /**
     * True when [addr, addr+bytes) touches any translated code. The
     * extent is a single conservative range over all blocks, so a hit
     * flushes everything -- self-modifying code is vanishingly rare in
     * the firmware this simulates.
     */
    bool
    overlapsCode(std::uint32_t addr, unsigned bytes) const
    {
        return !blocks_.empty() && addr < code_hi_ &&
               std::uint64_t(addr) + bytes > code_lo_;
    }

    /** Drop every block and bump the generation counter. */
    void flush();

    /** Incremented by every flush; the executor re-checks it after
     *  stores so a mid-block flush can never dangle. */
    std::uint64_t generation() const { return generation_; }

    std::size_t blockCount() const { return blocks_.size(); }
    std::size_t cacheBytes() const { return bytes_; }

    std::size_t budgetBytes() const { return budget_; }
    /** Override the byte budget (tests force tiny caches to exercise
     *  eviction); takes effect at the next insert. */
    void setBudgetBytes(std::size_t bytes) { budget_ = bytes; }

    const DbtStats &stats() const { return stats_; }
    DbtStats &stats() { return stats_; }

  private:
    struct Slot {
        std::uint32_t pc = 0;
        DbtBlock *block = nullptr;
    };

    /** Evict the least-recently-used block other than @p keep. */
    void evictOne(const DbtBlock *keep);

    /** Drop one block: unlink every chain into and out of it, purge
     *  its front-end slots, and release its bytes. */
    void removeBlock(DbtBlock *victim);

    std::array<Slot, kDirectSlots> slots_{};
    std::unordered_map<std::uint32_t, std::unique_ptr<DbtBlock>>
        blocks_;
    std::size_t bytes_ = 0;
    std::size_t budget_ = kDefaultBudgetBytes;
    std::uint32_t code_lo_ = 0;
    std::uint32_t code_hi_ = 0;
    std::uint64_t generation_ = 0;
    std::uint64_t tick_ = 0;
    DbtStats stats_;
};

} // namespace riscv
} // namespace fs

#endif // FS_RISCV_DBT_H_
