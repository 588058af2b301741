#include "soc/checkpoint_firmware.h"

#include <array>

#include "riscv/assembler.h"
#include "soc/fs_peripheral.h"
#include "util/logging.h"

namespace fs {
namespace soc {

using namespace riscv; // encoding helpers and register names

namespace {

/**
 * Reflected CRC-32 tables (polynomial 0xEDB88320) for slice-by-8:
 * [0] is the classic byte table the firmware uses; [k][i] is [k-1][i]
 * advanced by one more zero byte.
 */
const std::array<std::array<std::uint32_t, 256>, 8> &
crcTables()
{
    static const auto tables = [] {
        std::array<std::array<std::uint32_t, 256>, 8> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = i;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
            t[0][i] = crc;
        }
        for (std::size_t k = 1; k < t.size(); ++k) {
            for (std::size_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
        }
        return t;
    }();
    return tables;
}

/** Little-endian 32-bit word at @p p, assembled byte by byte. */
std::uint32_t
le32(const std::uint8_t *p)
{
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

std::uint32_t
readWord(const std::vector<std::uint8_t> &fram, std::uint32_t offset)
{
    FS_ASSERT(offset + 4 <= fram.size(), "slot word outside FRAM");
    return le32(fram.data() + offset);
}

} // namespace

std::uint32_t
checkpointCrc32(const std::uint8_t *data, std::size_t len)
{
    const auto &t = crcTables();
    std::uint32_t crc = 0xFFFFFFFFu;
    std::size_t i = 0;
    // Slice-by-8: eight bytes per step. Words are assembled from bytes,
    // so any host byte order and any alignment give the same CRC.
    for (; i + 8 <= len; i += 8) {
        const std::uint32_t lo = crc ^ le32(data + i);
        const std::uint32_t hi = le32(data + i + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; i < len; ++i)
        crc = (crc >> 8) ^ t[0][(crc ^ data[i]) & 0xffu];
    return crc; // no final inversion: must match the firmware loop
}

std::vector<std::uint8_t>
packedCrcTable()
{
    std::vector<std::uint8_t> packed(kCrcTableBytes);
    const auto &table = crcTables()[0];
    for (std::size_t i = 0; i < table.size(); ++i) {
        packed[4 * i + 0] = std::uint8_t(table[i]);
        packed[4 * i + 1] = std::uint8_t(table[i] >> 8);
        packed[4 * i + 2] = std::uint8_t(table[i] >> 16);
        packed[4 * i + 3] = std::uint8_t(table[i] >> 24);
    }
    return packed;
}

CheckpointSlotInfo
inspectCheckpointSlot(const std::vector<std::uint8_t> &fram,
                      const CheckpointLayout &layout, unsigned slot)
{
    FS_ASSERT(slot < kCheckpointSlots, "no such checkpoint slot");
    CheckpointSlotInfo info;
    const std::uint32_t base = layout.slotAddr(slot) - layout.framBase;
    info.magicOk =
        readWord(fram, layout.slotMagicAddr(slot) - layout.framBase) ==
        kCheckpointMagic;
    info.seq = readWord(fram, layout.slotSeqAddr(slot) - layout.framBase);
    const std::size_t covered =
        layout.slotCrcAddr(slot) - layout.slotAddr(slot);
    info.crcOk =
        checkpointCrc32(fram.data() + base, covered) ==
        readWord(fram, layout.slotCrcAddr(slot) - layout.framBase);
    return info;
}

int
newestValidCheckpointSlot(const std::vector<std::uint8_t> &fram,
                          const CheckpointLayout &layout)
{
    int best = -1;
    std::uint32_t best_seq = 0;
    for (unsigned slot = 0; slot < kCheckpointSlots; ++slot) {
        const CheckpointSlotInfo info =
            inspectCheckpointSlot(fram, layout, slot);
        // Strict comparison: on a (never expected) sequence tie the
        // firmware restores slot 0, so the host must agree.
        if (info.valid() && (best < 0 || info.seq > best_seq)) {
            best = int(slot);
            best_seq = info.seq;
        }
    }
    return best;
}

std::vector<Word>
buildCheckpointRuntime(const CheckpointLayout &layout,
                       std::uint32_t threshold_count)
{
    FS_ASSERT(layout.sramSize % 4 == 0, "SRAM size must be word aligned");
    // Overflow-safe: the two slots, CRC table, and staging block must
    // all fit above the application region.
    const std::uint64_t reserved =
        std::uint64_t(kCheckpointSlots) * layout.slotSize() +
        kCrcTableBytes + kRegBlockBytes;
    FS_ASSERT(std::uint64_t(layout.appBase - layout.framBase) + reserved <
                  layout.framSize,
              "save area collides with application space");

    Assembler as(layout.framBase);
    const auto crc_sub = as.newLabel();
    const auto crc_loop = as.newLabel();
    const auto crc_done = as.newLabel();
    const auto reset_code = as.newLabel();
    const auto sel0_done = as.newLabel();
    const auto sel1_done = as.newLabel();
    const auto max_done = as.newLabel();
    const auto target_done = as.newLabel();
    const auto stage_copy = as.newLabel();
    const auto sram_copy = as.newLabel();
    const auto dead_loop = as.newLabel();
    const auto v0_done = as.newLabel();
    const auto v1_done = as.newLabel();
    const auto only_slot1 = as.newLabel();
    const auto restore_slot0 = as.newLabel();
    const auto restore_slot1 = as.newLabel();
    const auto do_restore = as.newLabel();
    const auto restore_loop = as.newLabel();
    const auto cold = as.newLabel();
    const auto halt_loop = as.newLabel();

    const std::int32_t slot0 = std::int32_t(layout.slotAddr(0));
    const std::int32_t slot1 = std::int32_t(layout.slotAddr(1));
    const std::int32_t header_off =
        std::int32_t(kRegBlockBytes + layout.sramSize);

    // --- word 0: reset vector jumps over the handler region ---
    as.jTo(reset_code);

    // --- CRC-32 subroutine, tucked into the pre-handler gap ---
    // in:  a0 = begin address, a1 = end address (word aligned)
    // out: a0 = crc (init 0xFFFFFFFF, reflected, no final inversion)
    // clobbers t3..t6; link register ra.
    as.bind(crc_sub);
    as.li(kT6, std::int32_t(layout.crcTableAddr()));
    as.li(kT3, -1); // running CRC
    as.bind(crc_loop);
    as.bgeuTo(kA0, kA1, crc_done);
    as.emit(lw(kT4, kA0, 0));
    for (int byte = 0; byte < 4; ++byte) {
        // crc = (crc >> 8) ^ table[(crc ^ byte) & 0xff]
        as.emit(xor_(kT5, kT3, kT4));
        as.emit(andi(kT5, kT5, 0xff));
        as.emit(slli(kT5, kT5, 2));
        as.emit(add(kT5, kT5, kT6));
        as.emit(lw(kT5, kT5, 0));
        as.emit(srli(kT3, kT3, 8));
        as.emit(xor_(kT3, kT3, kT5));
        as.emit(srli(kT4, kT4, 8));
    }
    as.emit(addi(kA0, kA0, 4));
    as.jTo(crc_loop);
    as.bind(crc_done);
    as.emit(addi(kA0, kT3, 0));
    as.emit(jalr(kZero, kRa, 0));

    FS_ASSERT(as.here() <= layout.handlerAddr(),
              "CRC helper overflows the pre-handler gap");
    while (as.here() < layout.handlerAddr())
        as.nop();

    // --- trap handler: commit a checkpoint into the older slot ---
    FS_ASSERT(as.here() == layout.handlerAddr(), "handler misplaced");
    as.emit(csrrw(kT0, kCsrMscratch, kT0)); // stash t0
    // Spill x1..x31 (t0 via mscratch) plus the interrupted pc to the
    // staging block so slot selection below can use any register.
    as.li(kT0, std::int32_t(layout.regStageAddr()));
    for (Word r = 1; r < 32; ++r) {
        if (r == kT0)
            continue;
        as.emit(sw(r, kT0, std::int32_t((r - 1) * 4)));
    }
    as.emit(csrrs(kT1, kCsrMscratch, kZero));
    as.emit(sw(kT1, kT0, std::int32_t((kT0 - 1) * 4)));
    as.emit(csrrs(kT1, kCsrMepc, kZero));
    as.emit(sw(kT1, kT0, 124)); // pc slot
    // Probe both slots: sN = sequence if the magic matches, else 0.
    as.li(kT1, std::int32_t(kCheckpointMagic));
    as.li(kT2, std::int32_t(layout.slotMagicAddr(0)));
    as.emit(lw(kT3, kT2, 0));
    as.li(kS2, 0);
    as.bneTo(kT3, kT1, sel0_done);
    as.li(kT2, std::int32_t(layout.slotSeqAddr(0)));
    as.emit(lw(kS2, kT2, 0));
    as.bind(sel0_done);
    as.li(kT2, std::int32_t(layout.slotMagicAddr(1)));
    as.emit(lw(kT3, kT2, 0));
    as.li(kS3, 0);
    as.bneTo(kT3, kT1, sel1_done);
    as.li(kT2, std::int32_t(layout.slotSeqAddr(1)));
    as.emit(lw(kS3, kT2, 0));
    as.bind(sel1_done);
    // s4 = max(seq0, seq1) + 1: the new checkpoint's sequence.
    as.emit(addi(kS4, kS2, 0));
    as.bgeuTo(kS2, kS3, max_done);
    as.emit(addi(kS4, kS3, 0));
    as.bind(max_done);
    as.emit(addi(kS4, kS4, 1));
    // Target the *older* slot so the newer one survives a mid-commit
    // power death: slot 0 unless slot 0 holds the newer sequence.
    as.li(kS0, slot0);
    as.bgeuTo(kS3, kS2, target_done);
    as.li(kS0, slot1);
    as.bind(target_done);
    // t1 = target header (sequence word address).
    as.li(kT1, header_off);
    as.emit(add(kT1, kT1, kS0));
    // Invalidate the target's magic before touching its payload.
    as.emit(sw(kZero, kT1, 8));
    // Copy the staged registers into the slot.
    as.li(kT2, std::int32_t(layout.regStageAddr()));
    as.emit(addi(kT3, kS0, 0));
    as.li(kT4, std::int32_t(layout.regStageAddr() + kRegBlockBytes));
    as.bind(stage_copy);
    as.emit(lw(kT5, kT2, 0));
    as.emit(sw(kT5, kT3, 0));
    as.emit(addi(kT2, kT2, 4));
    as.emit(addi(kT3, kT3, 4));
    as.bltuTo(kT2, kT4, stage_copy);
    // Copy SRAM into the slot.
    as.li(kT2, std::int32_t(layout.sramBase));
    as.emit(addi(kT3, kS0, std::int32_t(kRegBlockBytes)));
    as.li(kT4, std::int32_t(layout.sramBase + layout.sramSize));
    as.bind(sram_copy);
    as.emit(lw(kT5, kT2, 0));
    as.emit(sw(kT5, kT3, 0));
    as.emit(addi(kT2, kT2, 4));
    as.emit(addi(kT3, kT3, 4));
    as.bltuTo(kT2, kT4, sram_copy);
    // Sequence goes in before the CRC is computed, so the CRC covers
    // it: a torn sequence word can never validate.
    as.emit(sw(kS4, kT1, 0));
    as.emit(addi(kA0, kS0, 0));
    as.emit(addi(kA1, kT1, 4));
    as.jalTo(kRa, crc_sub);
    as.emit(sw(kA0, kT1, 4));
    // Commit: the magic is the last word written. fs.mark brands the
    // commit point for the static analyzer (hart no-op).
    as.li(kT2, std::int32_t(kCheckpointMagic));
    as.emit(sw(kT2, kT1, 8));
    as.emit(fsMark());
    // Acknowledge the FS interrupt and sleep until power dies.
    as.li(kT2, std::int32_t(layout.fsMmioBase));
    as.emit(sw(kZero, kT2, kFsRegStatus));
    as.bind(dead_loop);
    as.emit(wfi());
    as.jTo(dead_loop);

    // --- reset path: validate both slots, restore the newest ---
    as.bind(reset_code);
    as.li(kSp, std::int32_t(layout.stackTop()));
    as.li(kT0, std::int32_t(layout.handlerAddr()));
    as.emit(csrrw(kZero, kCsrMtvec, kT0));
    // Slot 0: s0 = valid, s2 = sequence.
    as.li(kS0, 0);
    as.li(kS2, 0);
    as.li(kT1, std::int32_t(kCheckpointMagic));
    as.li(kT2, std::int32_t(layout.slotMagicAddr(0)));
    as.emit(lw(kT3, kT2, 0));
    as.bneTo(kT3, kT1, v0_done);
    as.li(kA0, slot0);
    as.li(kA1, std::int32_t(layout.slotCrcAddr(0)));
    as.jalTo(kRa, crc_sub);
    as.li(kT2, std::int32_t(layout.slotCrcAddr(0)));
    as.emit(lw(kT3, kT2, 0));
    as.bneTo(kA0, kT3, v0_done);
    as.li(kS0, 1);
    as.li(kT2, std::int32_t(layout.slotSeqAddr(0)));
    as.emit(lw(kS2, kT2, 0));
    as.bind(v0_done);
    // Slot 1: s1 = valid, s3 = sequence.
    as.li(kT1, std::int32_t(kCheckpointMagic));
    as.li(kS1, 0);
    as.li(kS3, 0);
    as.li(kT2, std::int32_t(layout.slotMagicAddr(1)));
    as.emit(lw(kT3, kT2, 0));
    as.bneTo(kT3, kT1, v1_done);
    as.li(kA0, slot1);
    as.li(kA1, std::int32_t(layout.slotCrcAddr(1)));
    as.jalTo(kRa, crc_sub);
    as.li(kT2, std::int32_t(layout.slotCrcAddr(1)));
    as.emit(lw(kT3, kT2, 0));
    as.bneTo(kA0, kT3, v1_done);
    as.li(kS1, 1);
    as.li(kT2, std::int32_t(layout.slotSeqAddr(1)));
    as.emit(lw(kS3, kT2, 0));
    as.bind(v1_done);
    // Pick the newest valid slot; a corrupt pair cold-starts.
    as.beqTo(kS0, kZero, only_slot1);
    as.beqTo(kS1, kZero, restore_slot0);
    as.bgeuTo(kS2, kS3, restore_slot0);
    as.jTo(restore_slot1);
    as.bind(only_slot1);
    as.beqTo(kS1, kZero, cold);
    as.bind(restore_slot1);
    as.li(kS4, slot1);
    as.jTo(do_restore);
    as.bind(restore_slot0);
    as.li(kS4, slot0);
    as.bind(do_restore);
    // Copy the slot's SRAM image back.
    as.emit(addi(kT1, kS4, std::int32_t(kRegBlockBytes)));
    as.li(kT2, std::int32_t(layout.sramBase));
    as.li(kT3, std::int32_t(layout.sramBase + layout.sramSize));
    as.bind(restore_loop);
    as.emit(lw(kT4, kT1, 0));
    as.emit(sw(kT4, kT2, 0));
    as.emit(addi(kT1, kT1, 4));
    as.emit(addi(kT2, kT2, 4));
    as.bltuTo(kT2, kT3, restore_loop);
    // Re-enable the monitor and re-arm the checkpoint interrupt.
    as.li(kT1, std::int32_t(threshold_count));
    as.li(kT2, std::int32_t(kFsCtrlEnable | kFsCtrlArmIrq));
    as.emit(fsCfg(kT1, kT2));
    // MEIE on; MPIE on so mret restores MIE=1.
    as.li(kT1, std::int32_t(kMieMeie));
    as.emit(csrrw(kZero, kCsrMie, kT1));
    as.li(kT1, std::int32_t(kMstatusMpie));
    as.emit(csrrs(kZero, kCsrMstatus, kT1));
    // mepc <- saved pc, then reload every register (t0 last: it is
    // the base pointer for the loads).
    as.emit(addi(kT0, kS4, 0));
    as.emit(lw(kT1, kT0, 124));
    as.emit(csrrw(kZero, kCsrMepc, kT1));
    for (Word r = 1; r < 32; ++r) {
        if (r == kT0)
            continue;
        as.emit(lw(r, kT0, std::int32_t((r - 1) * 4)));
    }
    as.emit(lw(kT0, kT0, std::int32_t((kT0 - 1) * 4)));
    as.emit(mret());

    // --- cold start ---
    as.bind(cold);
    as.li(kT1, std::int32_t(threshold_count));
    as.li(kT2, std::int32_t(kFsCtrlEnable | kFsCtrlArmIrq));
    as.emit(fsCfg(kT1, kT2));
    as.li(kT1, std::int32_t(kMieMeie));
    as.emit(csrrw(kZero, kCsrMie, kT1));
    as.li(kT1, std::int32_t(kMstatusMie));
    as.emit(csrrs(kZero, kCsrMstatus, kT1));
    as.li(kT0, std::int32_t(layout.appBase));
    as.emit(jalr(kRa, kT0, 0));
    // Application returned: report completion to the host.
    as.emit(ecall());
    as.bind(halt_loop);
    as.emit(wfi());
    as.jTo(halt_loop);

    auto image = as.finalize();
    FS_ASSERT(image.size() * 4 + layout.framBase <= layout.appBase,
              "runtime overflows into the application region");
    return image;
}

} // namespace soc
} // namespace fs
