#include "riscv/decoder.h"

#include <sstream>

namespace fs {
namespace riscv {

namespace {

std::int32_t
signExtend(std::uint32_t value, unsigned bits)
{
    const std::uint32_t mask = 1u << (bits - 1);
    return std::int32_t((value ^ mask) - mask);
}

std::int32_t
immI(Word inst)
{
    return signExtend(inst >> 20, 12);
}

std::int32_t
immS(Word inst)
{
    return signExtend(((inst >> 25) << 5) | ((inst >> 7) & 0x1f), 12);
}

std::int32_t
immB(Word inst)
{
    const std::uint32_t v = (((inst >> 31) & 1) << 12) |
                            (((inst >> 7) & 1) << 11) |
                            (((inst >> 25) & 0x3f) << 5) |
                            (((inst >> 8) & 0xf) << 1);
    return signExtend(v, 13);
}

std::int32_t
immJ(Word inst)
{
    const std::uint32_t v = (((inst >> 31) & 1) << 20) |
                            (((inst >> 12) & 0xff) << 12) |
                            (((inst >> 20) & 1) << 11) |
                            (((inst >> 21) & 0x3ff) << 1);
    return signExtend(v, 21);
}

Decoded
make(Word raw, Mnemonic op, InstrClass cls, Word rd, Word rs1, Word rs2,
     std::int32_t imm)
{
    Decoded d;
    d.raw = raw;
    d.op = op;
    d.cls = cls;
    d.rd = rd;
    d.rs1 = rs1;
    d.rs2 = rs2;
    d.imm = imm;
    return d;
}

Decoded
illegal(Word raw)
{
    Decoded d;
    d.raw = raw;
    return d;
}

} // namespace

unsigned
Decoded::accessBytes() const
{
    switch (op) {
      case Mnemonic::kLb:
      case Mnemonic::kLbu:
      case Mnemonic::kSb:
        return 1;
      case Mnemonic::kLh:
      case Mnemonic::kLhu:
      case Mnemonic::kSh:
        return 2;
      case Mnemonic::kLw:
      case Mnemonic::kSw:
        return 4;
      default:
        return 0;
    }
}

bool
Decoded::writesRd() const
{
    switch (cls) {
      case InstrClass::kStore:
      case InstrClass::kBranch:
      case InstrClass::kSystem:
      case InstrClass::kIllegal:
        return false;
      case InstrClass::kCustom:
        return op == Mnemonic::kFsRead;
      default:
        return true;
    }
}

Decoded
decode(Word inst)
{
    const Word opcode = inst & 0x7f;
    const Word rd = (inst >> 7) & 0x1f;
    const Word funct3 = (inst >> 12) & 0x7;
    const Word rs1 = (inst >> 15) & 0x1f;
    const Word rs2 = (inst >> 20) & 0x1f;
    const Word funct7 = inst >> 25;

    switch (opcode) {
      case kOpLui:
        return make(inst, Mnemonic::kLui, InstrClass::kAlu, rd, 0, 0,
                    std::int32_t(inst & 0xfffff000u));
      case kOpAuipc:
        return make(inst, Mnemonic::kAuipc, InstrClass::kAlu, rd, 0, 0,
                    std::int32_t(inst & 0xfffff000u));
      case kOpJal:
        return make(inst, Mnemonic::kJal, InstrClass::kJal, rd, 0, 0,
                    immJ(inst));
      case kOpJalr:
        if (funct3 != 0)
            return illegal(inst);
        return make(inst, Mnemonic::kJalr, InstrClass::kJalr, rd, rs1, 0,
                    immI(inst));
      case kOpBranch: {
        static constexpr Mnemonic kOps[8] = {
            Mnemonic::kBeq,     Mnemonic::kBne,  Mnemonic::kIllegal,
            Mnemonic::kIllegal, Mnemonic::kBlt,  Mnemonic::kBge,
            Mnemonic::kBltu,    Mnemonic::kBgeu,
        };
        if (kOps[funct3] == Mnemonic::kIllegal)
            return illegal(inst);
        return make(inst, kOps[funct3], InstrClass::kBranch, 0, rs1, rs2,
                    immB(inst));
      }
      case kOpLoad: {
        static constexpr Mnemonic kOps[8] = {
            Mnemonic::kLb,      Mnemonic::kLh,  Mnemonic::kLw,
            Mnemonic::kIllegal, Mnemonic::kLbu, Mnemonic::kLhu,
            Mnemonic::kIllegal, Mnemonic::kIllegal,
        };
        if (kOps[funct3] == Mnemonic::kIllegal)
            return illegal(inst);
        return make(inst, kOps[funct3], InstrClass::kLoad, rd, rs1, 0,
                    immI(inst));
      }
      case kOpStore: {
        static constexpr Mnemonic kOps[8] = {
            Mnemonic::kSb,      Mnemonic::kSh,      Mnemonic::kSw,
            Mnemonic::kIllegal, Mnemonic::kIllegal, Mnemonic::kIllegal,
            Mnemonic::kIllegal, Mnemonic::kIllegal,
        };
        if (kOps[funct3] == Mnemonic::kIllegal)
            return illegal(inst);
        return make(inst, kOps[funct3], InstrClass::kStore, 0, rs1, rs2,
                    immS(inst));
      }
      case kOpImm:
        switch (funct3) {
          case 0:
            return make(inst, Mnemonic::kAddi, InstrClass::kAlu, rd, rs1,
                        0, immI(inst));
          case 1:
            if (funct7 != 0)
                return illegal(inst);
            return make(inst, Mnemonic::kSlli, InstrClass::kAlu, rd, rs1,
                        0, std::int32_t(rs2));
          case 2:
            return make(inst, Mnemonic::kSlti, InstrClass::kAlu, rd, rs1,
                        0, immI(inst));
          case 3:
            return make(inst, Mnemonic::kSltiu, InstrClass::kAlu, rd,
                        rs1, 0, immI(inst));
          case 4:
            return make(inst, Mnemonic::kXori, InstrClass::kAlu, rd, rs1,
                        0, immI(inst));
          case 5:
            if (funct7 == 0)
                return make(inst, Mnemonic::kSrli, InstrClass::kAlu, rd,
                            rs1, 0, std::int32_t(rs2));
            if (funct7 == 0x20)
                return make(inst, Mnemonic::kSrai, InstrClass::kAlu, rd,
                            rs1, 0, std::int32_t(rs2));
            return illegal(inst);
          case 6:
            return make(inst, Mnemonic::kOri, InstrClass::kAlu, rd, rs1,
                        0, immI(inst));
          case 7:
            return make(inst, Mnemonic::kAndi, InstrClass::kAlu, rd, rs1,
                        0, immI(inst));
          default:
            return illegal(inst);
        }
      case kOpReg:
        if (funct7 == 1) {
            static constexpr Mnemonic kOps[8] = {
                Mnemonic::kMul,  Mnemonic::kMulh, Mnemonic::kMulhsu,
                Mnemonic::kMulhu, Mnemonic::kDiv, Mnemonic::kDivu,
                Mnemonic::kRem,  Mnemonic::kRemu,
            };
            return make(inst, kOps[funct3],
                        funct3 < 4 ? InstrClass::kMul : InstrClass::kDiv,
                        rd, rs1, rs2, 0);
        }
        if (funct7 == 0) {
            static constexpr Mnemonic kOps[8] = {
                Mnemonic::kAdd, Mnemonic::kSll, Mnemonic::kSlt,
                Mnemonic::kSltu, Mnemonic::kXor, Mnemonic::kSrl,
                Mnemonic::kOr,  Mnemonic::kAnd,
            };
            return make(inst, kOps[funct3], InstrClass::kAlu, rd, rs1,
                        rs2, 0);
        }
        if (funct7 == 0x20) {
            if (funct3 == 0)
                return make(inst, Mnemonic::kSub, InstrClass::kAlu, rd,
                            rs1, rs2, 0);
            if (funct3 == 5)
                return make(inst, Mnemonic::kSra, InstrClass::kAlu, rd,
                            rs1, rs2, 0);
        }
        return illegal(inst);
      case kOpFence:
        return make(inst, Mnemonic::kFence, InstrClass::kAlu, 0, 0, 0, 0);
      case kOpCustom0:
        if (funct3 == 0)
            return make(inst, Mnemonic::kFsRead, InstrClass::kCustom, rd,
                        0, 0, 0);
        if (funct3 == 1)
            return make(inst, Mnemonic::kFsCfg, InstrClass::kCustom, 0,
                        rs1, rs2, 0);
        if (funct3 == 2)
            return make(inst, Mnemonic::kFsMark, InstrClass::kCustom, 0,
                        0, 0, 0);
        return illegal(inst);
      case kOpSystem:
        if (funct3 == 0) {
            if (inst == ecall())
                return make(inst, Mnemonic::kEcall, InstrClass::kSystem,
                            0, 0, 0, 0);
            if (inst == ebreak())
                return make(inst, Mnemonic::kEbreak, InstrClass::kSystem,
                            0, 0, 0, 0);
            if (inst == mret())
                return make(inst, Mnemonic::kMret, InstrClass::kSystem,
                            0, 0, 0, 0);
            if (inst == wfi())
                return make(inst, Mnemonic::kWfi, InstrClass::kSystem, 0,
                            0, 0, 0);
            return illegal(inst);
        }
        {
            static constexpr Mnemonic kOps[8] = {
                Mnemonic::kIllegal, Mnemonic::kCsrrw, Mnemonic::kCsrrs,
                Mnemonic::kCsrrc,   Mnemonic::kIllegal,
                Mnemonic::kCsrrwi,  Mnemonic::kCsrrsi, Mnemonic::kCsrrci,
            };
            if (kOps[funct3] == Mnemonic::kIllegal)
                return illegal(inst);
            Decoded d = make(inst, kOps[funct3], InstrClass::kCsr, rd,
                             rs1, 0, 0);
            d.csr = inst >> 20;
            if (funct3 & 4) {
                // Immediate forms carry the zimm in the rs1 field.
                d.imm = std::int32_t(rs1);
                d.rs1 = 0;
            }
            return d;
        }
      default:
        return illegal(inst);
    }
}

std::string
mnemonicName(Mnemonic op)
{
    switch (op) {
      case Mnemonic::kIllegal: return "illegal";
      case Mnemonic::kLui: return "lui";
      case Mnemonic::kAuipc: return "auipc";
      case Mnemonic::kJal: return "jal";
      case Mnemonic::kJalr: return "jalr";
      case Mnemonic::kBeq: return "beq";
      case Mnemonic::kBne: return "bne";
      case Mnemonic::kBlt: return "blt";
      case Mnemonic::kBge: return "bge";
      case Mnemonic::kBltu: return "bltu";
      case Mnemonic::kBgeu: return "bgeu";
      case Mnemonic::kLb: return "lb";
      case Mnemonic::kLh: return "lh";
      case Mnemonic::kLw: return "lw";
      case Mnemonic::kLbu: return "lbu";
      case Mnemonic::kLhu: return "lhu";
      case Mnemonic::kSb: return "sb";
      case Mnemonic::kSh: return "sh";
      case Mnemonic::kSw: return "sw";
      case Mnemonic::kAddi: return "addi";
      case Mnemonic::kSlti: return "slti";
      case Mnemonic::kSltiu: return "sltiu";
      case Mnemonic::kXori: return "xori";
      case Mnemonic::kOri: return "ori";
      case Mnemonic::kAndi: return "andi";
      case Mnemonic::kSlli: return "slli";
      case Mnemonic::kSrli: return "srli";
      case Mnemonic::kSrai: return "srai";
      case Mnemonic::kAdd: return "add";
      case Mnemonic::kSub: return "sub";
      case Mnemonic::kSll: return "sll";
      case Mnemonic::kSlt: return "slt";
      case Mnemonic::kSltu: return "sltu";
      case Mnemonic::kXor: return "xor";
      case Mnemonic::kSrl: return "srl";
      case Mnemonic::kSra: return "sra";
      case Mnemonic::kOr: return "or";
      case Mnemonic::kAnd: return "and";
      case Mnemonic::kMul: return "mul";
      case Mnemonic::kMulh: return "mulh";
      case Mnemonic::kMulhsu: return "mulhsu";
      case Mnemonic::kMulhu: return "mulhu";
      case Mnemonic::kDiv: return "div";
      case Mnemonic::kDivu: return "divu";
      case Mnemonic::kRem: return "rem";
      case Mnemonic::kRemu: return "remu";
      case Mnemonic::kFence: return "fence";
      case Mnemonic::kEcall: return "ecall";
      case Mnemonic::kEbreak: return "ebreak";
      case Mnemonic::kMret: return "mret";
      case Mnemonic::kWfi: return "wfi";
      case Mnemonic::kCsrrw: return "csrrw";
      case Mnemonic::kCsrrs: return "csrrs";
      case Mnemonic::kCsrrc: return "csrrc";
      case Mnemonic::kCsrrwi: return "csrrwi";
      case Mnemonic::kCsrrsi: return "csrrsi";
      case Mnemonic::kCsrrci: return "csrrci";
      case Mnemonic::kFsRead: return "fs.read";
      case Mnemonic::kFsCfg: return "fs.cfg";
      case Mnemonic::kFsMark: return "fs.mark";
    }
    return "illegal";
}

std::string
disassemble(const Decoded &d)
{
    std::ostringstream os;
    os << mnemonicName(d.op);
    switch (d.cls) {
      case InstrClass::kBranch:
        os << ' ' << regName(d.rs1) << ", " << regName(d.rs2) << ", pc"
           << (d.imm >= 0 ? "+" : "") << d.imm;
        break;
      case InstrClass::kLoad:
        os << ' ' << regName(d.rd) << ", " << d.imm << '('
           << regName(d.rs1) << ')';
        break;
      case InstrClass::kStore:
        os << ' ' << regName(d.rs2) << ", " << d.imm << '('
           << regName(d.rs1) << ')';
        break;
      case InstrClass::kJal:
        os << ' ' << regName(d.rd) << ", pc" << (d.imm >= 0 ? "+" : "")
           << d.imm;
        break;
      case InstrClass::kJalr:
        os << ' ' << regName(d.rd) << ", " << d.imm << '('
           << regName(d.rs1) << ')';
        break;
      case InstrClass::kCsr:
        os << ' ' << regName(d.rd) << ", 0x" << std::hex << d.csr;
        break;
      case InstrClass::kAlu:
        if (d.op == Mnemonic::kFence)
            break;
        os << ' ' << regName(d.rd) << ", " << regName(d.rs1);
        if (d.op == Mnemonic::kLui || d.op == Mnemonic::kAuipc)
            os << ", " << d.imm;
        else if (d.raw & 0x20) // register-register opcode (0x33)
            os << ", " << regName(d.rs2);
        else
            os << ", " << d.imm;
        break;
      default:
        break;
    }
    return os.str();
}

} // namespace riscv
} // namespace fs
