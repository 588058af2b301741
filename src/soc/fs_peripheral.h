/**
 * @file
 * Memory-mapped Failure Sentinels peripheral (Section IV-B).
 *
 * Wraps an enrolled core::FailureSentinels device behind an MMIO
 * register file and the two custom instructions. The peripheral is
 * advanced in lockstep with the hart's cycle clock: every sample
 * period it latches a fresh count from the monitor chain and, when
 * armed, raises the external interrupt once the count falls to or
 * below the programmed threshold (imminent power failure).
 */

#ifndef FS_SOC_FS_PERIPHERAL_H_
#define FS_SOC_FS_PERIPHERAL_H_

#include <functional>

#include "core/failure_sentinels.h"
#include "riscv/hart.h"
#include "riscv/memory.h"

namespace fs {
namespace fault {
class FaultInjector;
} // namespace fault

namespace soc {

/** MMIO register offsets. */
enum FsMmioReg : std::uint32_t {
    kFsRegCount = 0x00,     ///< RO: latest latched count
    kFsRegThreshold = 0x04, ///< RW: interrupt threshold count
    kFsRegCtrl = 0x08,      ///< RW: bit0 enable, bit1 arm IRQ
    kFsRegStatus = 0x0c,    ///< RO: bit0 IRQ pending; any write clears
    kFsRegVoltageMv = 0x10, ///< RO: debug: true supply voltage in mV
};

/** CTRL register bits (also the fs.cfg rs2 encoding). */
constexpr std::uint32_t kFsCtrlEnable = 1u << 0;
constexpr std::uint32_t kFsCtrlArmIrq = 1u << 1;

class FsPeripheral : public riscv::MemoryDevice,
                     public riscv::FsCoprocessor
{
  public:
    /** True supply voltage as a function of elapsed time (s). */
    using VoltageSource = std::function<double(double)>;

    /**
     * @param monitor enrolled Failure Sentinels device
     * @param source  the capacitor voltage the monitor watches
     */
    FsPeripheral(const core::FailureSentinels &monitor,
                 VoltageSource source);

    /** Wire the interrupt line to the hart. */
    void attachHart(riscv::Hart *hart) { hart_ = hart; }

    /**
     * Attach a fault injector (nullptr detaches). Latched counts and
     * sample periods are routed through it, keyed by the sample index,
     * to model stuck/saturated counters, one-shot misreads, and RO
     * period jitter.
     */
    void setFaultInjector(fault::FaultInjector *injector)
    {
        injector_ = injector;
    }

    /** The underlying enrolled monitor. */
    const core::FailureSentinels &monitor() const { return monitor_; }

    /** Advance wall-clock time; latches samples on period boundaries. */
    void advance(double dt_seconds);

    /**
     * Advance to an absolute time (no-op when @p t_seconds is in the
     * past). The SoC derives t from the hart's integer cycle count, so
     * coarse (block) and per-instruction advancement produce the same
     * latch sequence bit for bit -- accumulating dt's would not.
     */
    void advanceTo(double t_seconds);

    /** Absolute time of the next scheduled sample latch. */
    double nextSampleTime() const { return next_sample_; }

    double timeNow() const { return time_; }
    std::uint32_t latchedCount() const { return count_; }
    bool irqPending() const { return irq_pending_; }
    bool enabled() const { return ctrl_ & kFsCtrlEnable; }
    std::uint64_t samplesTaken() const { return samples_; }

    /** Volatile peripheral state decays on power failure. */
    void powerFail();

    // --- riscv::MemoryDevice ---
    std::uint32_t read(std::uint32_t addr, unsigned bytes) override;
    void write(std::uint32_t addr, std::uint32_t value,
               unsigned bytes) override;
    std::uint32_t size() const override { return 0x40; }

    // --- riscv::FsCoprocessor ---
    std::uint32_t fsRead() override;
    void fsConfigure(std::uint32_t threshold,
                     std::uint32_t control) override;

  private:
    void latch();
    void pump();
    void updateIrq();

    const core::FailureSentinels &monitor_;
    VoltageSource source_;
    riscv::Hart *hart_ = nullptr;
    fault::FaultInjector *injector_ = nullptr;

    double time_ = 0.0;
    double next_sample_ = 0.0;
    std::uint32_t count_ = 0;
    std::uint32_t threshold_ = 0;
    std::uint32_t ctrl_ = 0;
    bool irq_pending_ = false;
    bool fresh_count_ = false; ///< a sample was latched this power cycle
    std::uint64_t samples_ = 0;
};

} // namespace soc
} // namespace fs

#endif // FS_SOC_FS_PERIPHERAL_H_
