/**
 * @file
 * The composed system-on-chip (Section IV-B's FPGA prototype,
 * simulated): RV32IM hart + FRAM + SRAM + the Failure Sentinels
 * peripheral on one bus, with power-failure semantics. The harvesting
 * environment drives it through step()/powerOn()/powerFail().
 */

#ifndef FS_SOC_SOC_H_
#define FS_SOC_SOC_H_

#include <memory>

#include "riscv/hart.h"
#include "soc/bus.h"
#include "soc/checkpoint_firmware.h"
#include "soc/guest_programs.h"
#include "soc/fs_peripheral.h"
#include "soc/nvm.h"

namespace fs {
namespace fault {
class FaultInjector;
} // namespace fault

namespace soc {

class Soc
{
  public:
    /**
     * @param monitor  enrolled Failure Sentinels device
     * @param source   supply (capacitor) voltage vs. time (s)
     * @param layout   address-space layout
     * @param clock_hz core clock (1 MHz, MSP430-class)
     */
    Soc(const core::FailureSentinels &monitor,
        FsPeripheral::VoltageSource source,
        CheckpointLayout layout = {}, double clock_hz = 1e6);

    const CheckpointLayout &layout() const { return layout_; }
    double clockHz() const { return clock_hz_; }

    riscv::Hart &hart() { return hart_; }
    Nvm &fram() { return fram_; }
    const Nvm &fram() const { return fram_; }
    riscv::Ram &sram() { return sram_; }
    FsPeripheral &fsPeripheral() { return fs_; }
    Bus &bus() { return bus_; }

    /**
     * Attach a fault injector (nullptr detaches): wires the NVM tear
     * filter and the monitor perturbation hooks, and arms the
     * cycle-offset supply kills polled by step().
     */
    void setFaultInjector(fault::FaultInjector *injector);
    fault::FaultInjector *faultInjector() const { return injector_; }

    /**
     * True when the last power failure was forced by the injector
     * (as opposed to the harvesting environment); cleared at the
     * next powerOn().
     */
    bool faultKilled() const { return fault_killed_; }

    /** Assemble and load the checkpoint runtime for this threshold. */
    void loadRuntime(std::uint32_t threshold_count);

    /** Load application code at layout().appBase. */
    void loadApp(const std::vector<riscv::Word> &words);

    /** Load a guest workload: code plus its staged FRAM data. */
    void loadGuest(const GuestProgram &prog);

    /** Read the 32-bit result a guest workload stored to FRAM. */
    std::uint32_t guestResult(const GuestProgram &prog);

    /** Reset the hart to the reset vector (power restored). */
    void powerOn();

    /** Power failure: volatile state (SRAM, hart, peripheral) decays. */
    void powerFail();

    /**
     * Execute one instruction and advance the peripheral clock.
     * @return seconds of simulated time consumed.
     */
    double step();

    /**
     * Run until the app signals completion or the budget expires.
     * When the hart's fast path is enabled, execution proceeds in
     * translated chunks bounded by eventHorizon(), falling back to
     * per-instruction step() for every horizon-crossing instruction;
     * results are bit-identical to the pure step() loop.
     */
    void run(std::uint64_t max_cycles);

    /**
     * True once the application executed its completion ecall. The
     * flag is sticky: powerFail() and powerOn() keep it.
     */
    bool appFinished() const { return app_finished_; }

    /** Clear the app-finished flag, for a SoC reused for a new run. */
    void clearAppFinished() { app_finished_ = false; }

    /**
     * Watch FRAM reads of @p ranges (FRAM offsets, sorted, disjoint;
     * empty ends the watch): every load or fetch of them takes the
     * bus path and calls @p on_read (Nvm::watchReads).
     */
    void watchFramReads(std::vector<ByteRange> ranges,
                        std::function<void()> on_read)
    {
        fram_.watchReads(std::move(ranges), std::move(on_read));
        hart_.refreshDirectWindows();
    }

    /**
     * True when FRAM holds a committed checkpoint: some slot carries
     * the exact commit magic and a matching CRC. Uninitialized or
     * corrupted FRAM can never read as valid.
     */
    bool checkpointCommitted() const;

    /** Sequence number of the newest valid checkpoint (0 = none). */
    std::uint32_t newestCheckpointSeq() const;

    /** Simulated seconds elapsed (cycles / clock). */
    double elapsedSeconds() const;

    std::uint64_t totalCycles() const { return total_cycles_; }
    std::uint64_t powerCycles() const { return power_cycles_; }

  private:
    /**
     * Cycles the fast path may run from now without crossing the next
     * external event: the injector's next scheduled kill and the
     * peripheral's next sample latch. Any chunk strictly shorter than
     * the returned bound leaves both events in the future, so the
     * crossing instruction always executes on the step() path with
     * exact kill/tear/latch timing.
     */
    std::uint64_t eventHorizon() const;

    CheckpointLayout layout_;
    double clock_hz_;

    Nvm fram_;
    riscv::Ram sram_;
    FsPeripheral fs_;
    Bus bus_;
    riscv::Hart hart_;

    fault::FaultInjector *injector_ = nullptr;
    bool fault_killed_ = false;
    bool app_finished_ = false;
    std::uint64_t total_cycles_ = 0;
    std::uint64_t power_cycles_ = 0;
};

} // namespace soc
} // namespace fs

#endif // FS_SOC_SOC_H_
