/**
 * @file
 * RV32IM instruction decoder: the inverse of the encoding helpers.
 *
 * The static analyzer (src/analysis) recovers control flow and memory
 * behavior from assembled firmware images, so it needs every encoding
 * the hart executes turned back into structured fields. The decoder is
 * deliberately table-free and total: any 32-bit word decodes to either
 * a known mnemonic or Mnemonic::kIllegal, never a crash.
 */

#ifndef FS_RISCV_DECODER_H_
#define FS_RISCV_DECODER_H_

#include <cstdint>
#include <string>

#include "riscv/encoding.h"

namespace fs {
namespace riscv {

/** Every instruction the hart implements, one enumerator each. */
enum class Mnemonic {
    kIllegal,
    kLui, kAuipc, kJal, kJalr,
    kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
    kLb, kLh, kLw, kLbu, kLhu,
    kSb, kSh, kSw,
    kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
    kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
    kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
    kFence,
    kEcall, kEbreak, kMret, kWfi,
    kCsrrw, kCsrrs, kCsrrc, kCsrrwi, kCsrrsi, kCsrrci,
    kFsRead, kFsCfg, kFsMark,
};

/** Coarse classes the analyzer keys costs and dataflow off. */
enum class InstrClass {
    kIllegal,
    kAlu,    ///< register/immediate arithmetic, lui/auipc, fence
    kLoad,
    kStore,
    kBranch, ///< conditional branch
    kJal,    ///< direct jump/call
    kJalr,   ///< indirect jump/call/return
    kMul,
    kDiv,
    kCsr,    ///< Zicsr ops
    kSystem, ///< ecall/ebreak/mret/wfi
    kCustom, ///< Failure Sentinels custom-0 instructions
};

/** One decoded instruction. */
struct Decoded {
    Word raw = 0;
    Mnemonic op = Mnemonic::kIllegal;
    InstrClass cls = InstrClass::kIllegal;
    Word rd = 0;
    Word rs1 = 0;
    Word rs2 = 0;
    /** Sign-extended immediate (I/S/B/J forms; U form is the full
     *  shifted 32-bit value; shifts carry the shamt). */
    std::int32_t imm = 0;
    Word csr = 0; ///< CSR address for Zicsr ops

    bool valid() const { return op != Mnemonic::kIllegal; }
    bool isLoad() const { return cls == InstrClass::kLoad; }
    bool isStore() const { return cls == InstrClass::kStore; }
    /** True for jal/jalr with a live link register: a call. */
    bool isCall() const
    {
        return (cls == InstrClass::kJal || cls == InstrClass::kJalr) &&
               rd != 0;
    }
    /** True for the canonical return, jalr x0, 0(ra). */
    bool isReturn() const
    {
        return op == Mnemonic::kJalr && rd == 0 && rs1 == kRa &&
               imm == 0;
    }
    /** Access width in bytes for loads/stores (0 otherwise). */
    unsigned accessBytes() const;
    /** True when rd is actually written (x0 sinks are still "writes"
     *  architecturally; this reports the encoding's intent). */
    bool writesRd() const;
};

/** Decode one instruction word (total: never panics). */
Decoded decode(Word inst);

/** Lowercase mnemonic text, e.g. "bltu" or "fs.mark". */
std::string mnemonicName(Mnemonic op);

/** One-line disassembly, e.g. "bltu t2, t4, pc-20". */
std::string disassemble(const Decoded &d);

} // namespace riscv
} // namespace fs

#endif // FS_RISCV_DECODER_H_
