/**
 * @file
 * Shared power-failure torture harness.
 *
 * The rig runs one guest workload on a full soc::Soc under a fixed,
 * deterministic power schedule (stable phase, brown-out phase, power
 * cycle, repeat), so every run visits the same cycle-for-cycle
 * trajectory. A single-stepped fault-free pass maps out each
 * checkpoint's commit window (trap entry to commit-magic store);
 * runKill() then replays the schedule with a single injected supply
 * kill at an arbitrary cycle, inspects the checkpoint slots the
 * moment power dies, reboots on stable power, and checks the guest's
 * final answer against its oracle. It is the from-boot reference that
 * tests and benches compare the campaign grader against by name.
 *
 * A campaign's kills come from one of two recipes on the golden run:
 * GoldenRun::sampledKills (evenly spaced kills across every commit
 * window plus seeded random ones) or GoldenRun::pointKills (point i of
 * an exhaustive campaign, a pure function of the seed and i, so any
 * sharding grades the same kills).
 *
 * Campaigns (runKills) grade from the golden run instead of replaying
 * anything before the kill. Until its kill fires, a kill run *is* the
 * fault-free run, and the kill only tears the killing instruction's
 * last FRAM store (Soc::step). The golden pass logs every FRAM store
 * (GoldenRun::writeLog), so each kill maps to an exact death-image id
 * -- the count of golden stores that landed, plus the torn byte lanes
 * for a kill that tears. One forward walk over the probe steps, in
 * kill-cycle order, finds every kill's step (GoldenRun::killSteps);
 * kills that ascend in cycle then have ascending ids, so only batches
 * with never-firing kills, out-of-order cycles or two different tears
 * of one storing step sort them. Kills are grouped by id, and the
 * distinct death images are graded in three phases:
 *
 *  1. Key (parallel). Each image is rebuilt in a pooled SoC's FRAM
 *     from the nearest golden FRAM image plus the logged stores plus
 *     the tear, its slots are inspected, and it gets a memo key
 *     (recoveryKeyOf): FRAM with the register staging block and the
 *     slot(s) the boot will not restore masked out, mixed with a tag
 *     of the restored slot and each slot's magic-OK and CRC-OK flags.
 *  2. Group (serial, in id order). The first image with a key leads
 *     its group; every later image with that key is a member.
 *  3. Recover. Each leader runs one recovery on a pooled SoC and
 *     captures its image (parallel over groups); then every member is
 *     rebuilt and byte-compared on all unmasked bytes with its leader's
 *     image (parallel over members), so a key collision recovers alone
 *     instead of sharing a wrong verdict.
 *
 * The recovery memo lives for one runKills() call: a second call on
 * the same rig recovers its leaders again.
 *
 * Verdicts are bit-identical to replay-from-boot (runKill) at any
 * thread count.
 *
 * Why the masked key is exact. The tag fixes the runtime's boot path,
 * cycle for cycle: which slots it CRCs, which it restores, or that it
 * cold-starts. A restore reloads x1-x31, mepc and SRAM from the
 * restored slot, so nothing the boot read of the other slot survives
 * it; a cold start leaves registers holding what it read of the slots,
 * so there only a bad-magic slot's bytes below its magic word are
 * masked. After the boot, the watch takes over: a leader's recovery
 * serves the masked ranges outside FRAM's direct windows, so every
 * read of them reaches Nvm::read, and one made while the FS monitor is
 * enabled is recorded. powerFail() clears the monitor's control
 * register and the runtime enables it only once it has restored a slot
 * or cold-started, so that is every read from app re-entry on. A
 * leader whose recovery made one keeps no shared verdict: its group is
 * regraded under full-image keys.
 *
 * Recovery contract: a kill's verdict depends only on the FRAM it dies
 * with and on whether the app had finished. powerFail() and powerOn()
 * clear the hart's registers and CSRs, SRAM and the FS peripheral, and
 * recovery runs on a constant supply, so every monitor sample latches
 * the same count whenever it is taken. A recycled SoC does carry its
 * mcycle/minstret and the SoC counters over from its last recovery,
 * but neither the checkpoint runtime nor any serve buildWorkload guest
 * reads mcycle or minstret, so they cannot be observed. The
 * app-finished flag is sticky across powerOn(): a recovery clears it
 * first and ORs the death's own flag back in. The death image is
 * written straight into FRAM, behind the DBT's back; that is safe
 * because powerOn()'s Hart::reset flushes every translation.
 *
 * Cost model. Everything that depends only on (program, config) lives
 * in a GoldenRun: one single-stepped golden pass finds the commit
 * windows, records the probe steps and the FRAM write log and captures
 * the golden FRAM images (boot and every commit-window boundary). It
 * is built once and shared by every rig of a campaign (serve::Engine
 * keeps the latest one for exhaustive point-range shards). A campaign
 * then costs one forward walk over the probe steps (a galloping search
 * from the previous kill's step; kills out of cycle order are sorted
 * first), plus per distinct death image two or three
 * rebuilds (O(FRAM pages) pointer compares, O(dirty pages) copies and
 * the logged stores since the nearest golden image), slot forensics
 * and a key over the dirty and masked pages -- and one recovery run
 * from power-on per distinct key, not per image. The watch costs the
 * leaders a bus-path load for each read of a masked range, which the
 * boot makes only for a masked slot with a good magic. No ISS
 * instruction before a kill runs again. A TortureRig owns only the SoC
 * pool and its counters; each call's memo is its own. The voltage
 * monitor every SoC samples is enrolled once per process and shared by
 * all rigs.
 *
 * Concurrency contract. A GoldenRun is immutable once built; any
 * number of threads and rigs may read it at once. runKill(),
 * deathFram() and the golden-run accessors are const and safe from any
 * thread. runKills()/runKillsPruned() may be called from several
 * threads at once, on one rig or on rigs sharing a golden run: calls
 * share only the locked SoC pool and the atomic counters, so a rig's
 * ConvergeStats is the sum of each call's counts, which are exact at
 * any thread count.
 */

#ifndef FS_FAULT_TORTURE_RIG_H_
#define FS_FAULT_TORTURE_RIG_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/injection_map.h"
#include "soc/guest_programs.h"
#include "soc/snapshot.h"

namespace fs {
namespace util {
class ThreadPool;
} // namespace util

namespace fault {

/** Knobs for the deterministic power schedule. */
struct TortureConfig {
    std::uint32_t sramSize = 1024;    ///< bytes of volatile state
    double stableVolts = 3.3;         ///< healthy supply
    double headroomSeconds = 0.025;   ///< commit headroom in v_ckpt
    std::uint64_t stableCycles = 60'000;  ///< per power cycle
    std::uint64_t lowCycles = 200'000;    ///< brown-out phase budget
    std::size_t maxPowerCycles = 64;
    std::uint64_t recoveryCycles = 60'000'000; ///< post-kill budget
};

/**
 * One checkpoint's commit window in total-cycle coordinates:
 * [begin, end) spans trap entry up to (but not including) the cycle
 * at which the commit magic is in FRAM.
 */
struct CommitWindow {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint64_t length() const { return end - begin; }
};

/** Accounting for one campaign's grouping by death image. */
struct PruneStats {
    std::size_t totalKills = 0;
    std::size_t executedKills = 0;   ///< distinct death images graded
    std::size_t skippedKills = 0;    ///< copied from a same-image kill
    std::size_t vulnerableKills = 0; ///< killing step wrote FRAM
    std::size_t neverFires = 0;      ///< kill cycle beyond app finish
};

/** Accounting for the golden-run / convergence machinery, summed over
 *  a rig's runKills() calls. */
struct ConvergeStats {
    std::size_t goldenSnapshots = 0; ///< golden FRAM images
    std::size_t memoEntries = 0;     ///< recoveries run
    /** Distinct death images graded from another image's entry. */
    std::size_t memoHits = 0;
    /** Leaders whose recovery read a masked byte: their groups were
     *  regraded under full-image keys. */
    std::size_t fallbacks = 0;
};

/** TortureOutcome::site of a kill the schedule never reaches. */
constexpr std::uint32_t kNoKillSite = 0xFFFFFFFFu;

/** Everything observed about one injected kill. */
struct TortureOutcome {
    /** pc of the instruction the kill fires at the end of in the
     *  fault-free schedule (kNoKillSite when it never fires). */
    std::uint32_t site = kNoKillSite;
    bool killed = false;        ///< the kill fired before app finish
    bool killTore = false;      ///< it caught an NVM store in flight
    /** Slot forensics at the instant power died: */
    int validSlots = 0;         ///< magic and CRC both good
    int tornSlots = 0;          ///< magic good, CRC bad (must be 0)
    std::uint32_t newestSeq = 0; ///< newest valid sequence (0 = none)
    bool coldRestart = false;   ///< reboot found no valid checkpoint
    bool finished = false;
    bool resultCorrect = false;
    std::uint32_t result = 0;
};

/** Why a fault-free schedule cannot anchor a campaign. */
enum class GoldenError {
    kNone = 0,
    kNoCheckpoint,  ///< a brown-out phase ended without a commit
    kNeverFinished, ///< the power-cycle budget ran out first
    kWrongAnswer,   ///< the app finished with a wrong result
};

/** Human-readable reason for a GoldenError. */
const char *goldenErrorMessage(GoldenError error);

/**
 * The fault-free analysis of one (program, config): what every kill
 * of a campaign is measured against. Built once by build() and then
 * never mutated, so it is shared as shared_ptr<const GoldenRun>.
 */
struct GoldenRun {
    /**
     * One instruction of the fault-free schedule, as a kill target.
     * The app finishes on the last step and on no other.
     */
    struct ProbeStep {
        std::uint64_t cycleAfter = 0; ///< totalCycles after the step
        std::uint32_t pcBefore = 0;   ///< instruction that executed
        std::uint32_t writeEnd = 0;   ///< writeLog entries after the step
    };

    /** One FRAM store of the fault-free schedule. */
    struct FramWrite {
        std::uint32_t step = 0;  ///< index of the probe step storing
        std::uint32_t addr = 0;  ///< FRAM offset of the first byte
        std::uint8_t width = 0;  ///< bytes stored (1, 2 or 4)
        std::array<std::uint8_t, 4> pre{};  ///< bytes before the store
        std::array<std::uint8_t, 4> post{}; ///< bytes it stored
    };

    /**
     * A golden FRAM image plus the count of writeLog entries that had
     * landed when it was captured: the boot image with exactly those
     * stores applied.
     */
    struct Snapshot {
        soc::PagedImage fram;
        std::uint32_t writes = 0;
    };

    /**
     * Run the golden pass, finding the commit windows and capturing the
     * FRAM images at boot and at every commit-window boundary. Returns
     * null and sets @p error when the schedule cannot anchor a
     * campaign.
     */
    static std::shared_ptr<const GoldenRun>
    build(soc::GuestProgram prog, TortureConfig config,
          GoldenError *error = nullptr);

    soc::GuestProgram prog;
    TortureConfig config;
    double vCkpt = 0.0;        ///< checkpoint threshold voltage
    std::uint32_t threshold = 0; ///< the same, as a monitor count
    std::uint64_t cleanCycles = 0;
    std::vector<CommitWindow> windows;
    std::vector<ProbeStep> probeSteps;
    std::vector<FramWrite> writeLog; ///< every FRAM store, in order
    std::vector<Snapshot> snapshots; ///< in capture (= writes) order

    /**
     * Index of the probe step a kill at @p kill_cycle fires at the end
     * of, or probeSteps.size() when the schedule finishes first: a
     * binary search over every probe step. For many kills use
     * killSteps() or stepAtFrom().
     */
    std::size_t stepAt(std::uint64_t kill_cycle) const;

    /**
     * stepAt(@p kill_cycle), found by a galloping search forward from
     * step @p from, which must not be past it (the step of an earlier
     * kill cycle, or 0). Costs O(log distance).
     */
    std::size_t stepAtFrom(std::size_t from, std::uint64_t kill_cycle) const;

    /**
     * stepAt() of every kill, in input order, from one forward walk in
     * cycle order. Kills already ascending in cycle (an exhaustive
     * shard) are not sorted.
     */
    std::vector<std::size_t>
    killSteps(const std::vector<PowerKill> &kills) const;

    /** True when probe step @p step stored to FRAM: the only steps a
     *  kill can tear. */
    bool stepWrote(std::size_t step) const
    {
        return probeSteps[step].writeEnd >
               (step == 0 ? 0 : probeSteps[step - 1].writeEnd);
    }

    /**
     * A sampled campaign, every draw from one Rng(@p seed) in this
     * order: @p killsPerWindow evenly spaced kills across each commit
     * window (window by window, ascending; none when 0), then
     * @p randomKills kills at uniform random cycles of the clean run.
     */
    std::vector<PowerKill> sampledKills(std::uint32_t killsPerWindow,
                                        std::uint32_t randomKills,
                                        std::uint64_t seed) const;

    /**
     * Points [@p offset, @p offset + @p count) of an exhaustive
     * campaign of @p points kills: point i kills at cycle
     * floor(i * cleanCycles / points), and when that cycle lands on a
     * storing step its tear parameters are drawn from
     * util::rngForIndex(@p seed, i); every other kill keeps the
     * defaults, since it grades the same with any. Needs
     * offset + count <= points and (cleanCycles + 1) * points < 2^64.
     */
    std::vector<PowerKill> pointKills(std::uint64_t seed,
                                      std::uint64_t points,
                                      std::uint64_t offset,
                                      std::uint64_t count) const;
};

/**
 * What a recovery from a death image may depend on, beyond its key:
 * the tag (restored slot, each slot's magic-OK and CRC-OK flags) and
 * the FRAM ranges the key leaves out (see the file comment).
 */
struct RecoveryMask {
    std::uint8_t tag = 0;
    std::vector<soc::ByteRange> ranges; ///< FRAM offsets, ascending
};

/** The mask of the death image @p fram. */
RecoveryMask recoveryMaskOf(const std::vector<std::uint8_t> &fram,
                            const soc::CheckpointLayout &layout);

/**
 * The memo key of death image @p fram, which equals @p base outside
 * the pages in @p dirty: its masked content key mixed with the tag.
 */
std::uint64_t recoveryKeyOf(const RecoveryMask &mask,
                            const std::vector<std::uint8_t> &fram,
                            const soc::PagedImage &base,
                            const soc::DirtyPages &dirty);

struct TortureBench; ///< one SoC + its supply cell
struct DeathImage;   ///< a kill's FRAM at death, by its golden-run place

class TortureRig
{
  public:
    /** Build the golden run here; a schedule that cannot anchor a
     *  campaign is fatal (use GoldenRun::build to handle it). */
    explicit TortureRig(soc::GuestProgram prog, TortureConfig config = {});
    /** A campaign over an already built, possibly shared golden run. */
    explicit TortureRig(std::shared_ptr<const GoldenRun> golden);
    ~TortureRig();

    /** Total cycles the fault-free schedule needs to finish the app. */
    std::uint64_t cleanRunCycles() const { return golden_->cleanCycles; }

    /** Checkpoints committed during the fault-free schedule. */
    std::size_t checkpointCount() const { return golden_->windows.size(); }

    /** Commit window of the `which`-th checkpoint (0-based). */
    CommitWindow commitWindow(std::size_t which) const;

    /**
     * Replay the schedule from boot with one injected supply kill,
     * then recover on stable power and validate the guest result.
     * This is the reference path runKills() must match bit for bit;
     * each replay runs on a disposable SoC, so concurrent calls are
     * safe.
     */
    TortureOutcome runKill(const PowerKill &kill) const;

    /**
     * Grade a batch of kills across a thread pool (null = shared
     * pool), returning outcomes in input order. Kills are grouped by
     * death image and each distinct image is graded once from the
     * golden write log (see the file comment); the outcomes are
     * bit-identical to calling runKill() on each kill, at any thread
     * count. @p stats, when given, receives the grouping's accounting.
     */
    std::vector<TortureOutcome>
    runKills(const std::vector<PowerKill> &kills,
             util::ThreadPool *pool = nullptr, PruneStats *stats = nullptr);

    /**
     * runKills(), kept for callers that still pass a static
     * injection-point map. The write-log grouping is exact, so the map
     * is not consulted; @p stats reports that grouping.
     */
    std::vector<TortureOutcome>
    runKillsPruned(const std::vector<PowerKill> &kills,
                   const InjectionPointMap &map,
                   util::ThreadPool *pool = nullptr,
                   PruneStats *stats = nullptr);

    /** The FRAM image @p kill dies with, rebuilt from the golden run. */
    std::vector<std::uint8_t> deathFram(const PowerKill &kill) const;

    /** Snapshot-fork accounting (see ConvergeStats). */
    ConvergeStats convergeStats() const;

    /**
     * Bytes of the golden FRAM images plus every image a recovery
     * leader captured, counting pages shared copy-on-write once. For
     * one runKills() call that is the campaign's snapshot memory
     * high-water mark; each further call adds its leaders' pages.
     */
    std::size_t snapshotMemoryBytes() const;

    /** The checkpoint threshold voltage the rig programs. */
    double checkpointVolts() const { return golden_->vCkpt; }

    /** The shared fault-free analysis this rig grades against. */
    const std::shared_ptr<const GoldenRun> &golden() const
    {
        return golden_;
    }

  private:
    std::unique_ptr<TortureBench> acquireBench();
    void releaseBench(std::unique_ptr<TortureBench> bench);
    /** The three grading phases over distinct death images. */
    std::vector<TortureOutcome>
    gradeImages(const std::vector<DeathImage> &images,
                util::ThreadPool &pool);
    /**
     * Recover @p death, whose image @p bench's FRAM holds, into
     * @p out's verdict fields. Returns true when it read one of the
     * @p watch ranges from app re-entry on.
     */
    bool recover(TortureBench &bench, const DeathImage &death,
                 const std::vector<soc::ByteRange> &watch,
                 TortureOutcome &out);

    std::shared_ptr<const GoldenRun> golden_;

    std::atomic<std::size_t> recoveries_{0};
    std::atomic<std::size_t> hits_{0};
    std::atomic<std::size_t> fallbacks_{0};
    /** Bytes of the pages leaders' captures allocated. */
    std::atomic<std::size_t> leader_bytes_{0};

    /** Recycled SoCs. Each one's FRAM is the buffer its death images
     *  are rebuilt in, by delta from the image it last held; under the
     *  recovery contract (file comment) a recovery on a reused SoC
     *  gives the verdict a fresh one would. */
    std::mutex pool_mu_;
    std::vector<std::unique_ptr<TortureBench>> bench_pool_;
};

} // namespace fault
} // namespace fs

#endif // FS_FAULT_TORTURE_RIG_H_
