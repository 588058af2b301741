#include "soc/soc.h"

#include <algorithm>
#include <limits>

#include "fault/fault_injector.h"
#include "util/logging.h"

namespace fs {
namespace soc {

Soc::Soc(const core::FailureSentinels &monitor,
         FsPeripheral::VoltageSource source, CheckpointLayout layout,
         double clock_hz)
    : layout_(layout), clock_hz_(clock_hz), fram_(layout.framSize),
      sram_(layout.sramSize), fs_(monitor, std::move(source)),
      hart_(bus_)
{
    FS_ASSERT(clock_hz > 0.0, "clock must be positive");
    bus_.attach("fram", layout_.framBase, fram_);
    bus_.attach("sram", layout_.sramBase, sram_);
    bus_.attach("fs", layout_.fsMmioBase, fs_, kFsMmioSize);
    fs_.attachHart(&hart_);
    hart_.attachCoprocessor(&fs_);
    hart_.onEcall([this](riscv::Hart &) {
        app_finished_ = true;
        return true; // halt
    });
    // Mid-block MMIO/coprocessor accesses must see the peripheral at
    // exactly the hart's current cycle. On the interpreter path the
    // peripheral is already there, so this is an idempotent no-op.
    hart_.onSlowAccess([this] {
        fs_.advanceTo(double(hart_.cycles()) / clock_hz_);
    });
}

void
Soc::setFaultInjector(fault::FaultInjector *injector)
{
    injector_ = injector;
    fs_.setFaultInjector(injector);
    // Plain runs install no filter and pay nothing per store.
    if (!injector) {
        fram_.setWriteFilter(nullptr);
        return;
    }
    fram_.setWriteFilter([injector](std::uint32_t addr, std::uint32_t value,
                                    unsigned bytes, unsigned &kept,
                                    std::uint32_t &flip) {
        return injector->filterWrite(addr, value, bytes, kept, flip);
    });
}

void
Soc::loadRuntime(std::uint32_t threshold_count)
{
    const auto image = buildCheckpointRuntime(layout_, threshold_count);
    fram_.loadWords(0, image);
    hart_.invalidateTraceCache(); // image load bypasses Nvm::write
    // Stage the CRC-32 lookup table the runtime consults. Direct
    // data() writes: staging is load-time provisioning, not a store
    // the fault model should see or the write counters should charge.
    const auto table = packedCrcTable();
    const std::uint32_t base = layout_.crcTableAddr() - layout_.framBase;
    for (std::size_t i = 0; i < table.size(); ++i)
        fram_.data()[base + i] = table[i];
}

void
Soc::loadApp(const std::vector<riscv::Word> &words)
{
    fram_.loadWords(layout_.appBase - layout_.framBase, words);
    hart_.invalidateTraceCache(); // image load bypasses Nvm::write
}

void
Soc::loadGuest(const GuestProgram &prog)
{
    loadApp(prog.code);
    for (std::size_t i = 0; i < prog.data.size(); ++i) {
        fram_.write(prog.dataAddr - layout_.framBase +
                        std::uint32_t(i),
                    prog.data[i], 1);
    }
}

std::uint32_t
Soc::guestResult(const GuestProgram &prog)
{
    return fram_.read(prog.resultAddr - layout_.framBase, 4);
}

void
Soc::powerOn()
{
    hart_.reset(layout_.framBase);
    fault_killed_ = false;
    ++power_cycles_;
}

void
Soc::powerFail()
{
    sram_.powerFail();
    hart_.powerFail();
    // Blocks decoded from SRAM just lost their bytes; blocks over FRAM
    // code stay valid across the outage.
    hart_.invalidateCode(layout_.sramBase, layout_.sramSize);
    fs_.powerFail();
}

double
Soc::step()
{
    const std::uint64_t writes_before = fram_.writeCount();
    const std::uint64_t cycles = hart_.step();
    total_cycles_ += cycles;
    const double dt = double(cycles) / clock_hz_;
    // Absolute-time advancement: the peripheral clock is a pure
    // function of the integer cycle count, so block-sized and
    // per-instruction advancement latch identically.
    fs_.advanceTo(double(total_cycles_) / clock_hz_);
    if (injector_ && injector_->killDue(total_cycles_)) {
        const fault::PowerKill kill = injector_->takeKill();
        // Tear only a store that was actually in flight during the
        // killing instruction.
        if (fram_.writeCount() != writes_before &&
            fram_.tearLastWrite(kill.tearBytesKept, kill.tearFlipMask))
            injector_->noteKillTear();
        powerFail();
        fault_killed_ = true;
    }
    return dt;
}

std::uint64_t
Soc::eventHorizon() const
{
    std::uint64_t horizon = std::numeric_limits<std::uint64_t>::max();
    if (injector_) {
        const std::uint64_t nk = injector_->nextKillCycle();
        if (nk <= total_cycles_)
            return 1; // kill already due: per-instruction path only
        horizon = std::min(horizon, nk - total_cycles_);
    }
    if (fs_.enabled()) {
        const double ts = fs_.nextSampleTime();
        const double now = double(total_cycles_) / clock_hz_;
        if (ts <= now)
            return 1;
        const double est = (ts - now) * clock_hz_;
        std::uint64_t c = est < 1e18 ? std::uint64_t(est) + 2
                                     : std::uint64_t(1) << 60;
        // Trim for FP rounding: every chunk strictly shorter than c
        // must leave the clock strictly before the latch time.
        while (c > 1 &&
               double(total_cycles_ + (c - 1)) / clock_hz_ >= ts)
            --c;
        horizon = std::min(horizon, c);
    }
    return horizon;
}

void
Soc::run(std::uint64_t max_cycles)
{
    std::uint64_t spent = 0;
    while (!hart_.halted() && spent < max_cycles) {
        if (hart_.traceCacheEnabled()) {
            const std::uint64_t budget =
                std::min(max_cycles - spent, eventHorizon());
            if (budget > 1) {
                const std::uint64_t chunk = hart_.runDecoded(budget);
                if (chunk > 0) {
                    total_cycles_ += chunk;
                    spent += chunk;
                    fs_.advanceTo(double(total_cycles_) / clock_hz_);
                    continue;
                }
            }
        }
        const std::uint64_t before = total_cycles_;
        step();
        spent += total_cycles_ - before;
        if (fault_killed_)
            break;
    }
}

bool
Soc::checkpointCommitted() const
{
    return newestValidCheckpointSlot(fram_.data(), layout_) >= 0;
}

std::uint32_t
Soc::newestCheckpointSeq() const
{
    const int slot = newestValidCheckpointSlot(fram_.data(), layout_);
    if (slot < 0)
        return 0;
    return inspectCheckpointSlot(fram_.data(), layout_, unsigned(slot))
        .seq;
}

double
Soc::elapsedSeconds() const
{
    return double(total_cycles_) / clock_hz_;
}

} // namespace soc
} // namespace fs
