#include "fault/torture_rig.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "core/failure_sentinels.h"
#include "fault/fault_injector.h"
#include "harvest/intermittent_sim.h"
#include "harvest/loads.h"
#include "harvest/system_comparison.h"
#include "riscv/encoding.h"
#include "soc/soc.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace fs {
namespace fault {

namespace {

/**
 * Cheap committed-sequence probe for the golden pass: magic plus
 * sequence words only. Without injected corruption a
 * present magic implies a fully written slot, so the full CRC check
 * is not needed on this (per-step hot) path.
 */
std::uint32_t
quickSeq(soc::Soc &s)
{
    std::uint32_t best = 0;
    const auto &layout = s.layout();
    for (unsigned slot = 0; slot < soc::kCheckpointSlots; ++slot) {
        const std::uint32_t magic = s.fram().read(
            layout.slotMagicAddr(slot) - layout.framBase, 4);
        if (magic == soc::kCheckpointMagic)
            best = std::max(best,
                            s.fram().read(layout.slotSeqAddr(slot) -
                                              layout.framBase,
                                          4));
    }
    return best;
}

using SlotInfos =
    std::array<soc::CheckpointSlotInfo, soc::kCheckpointSlots>;

/** Slot forensics on the FRAM image power died with. */
SlotInfos
inspectSlots(const std::vector<std::uint8_t> &fram,
             const soc::CheckpointLayout &layout, TortureOutcome &out)
{
    SlotInfos slots;
    for (unsigned slot = 0; slot < soc::kCheckpointSlots; ++slot) {
        const auto info = soc::inspectCheckpointSlot(fram, layout, slot);
        slots[slot] = info;
        if (info.valid()) {
            ++out.validSlots;
            out.newestSeq = std::max(out.newestSeq, info.seq);
        } else if (info.magicOk) {
            ++out.tornSlots;
        }
    }
    return slots;
}

/** Restored-slot value of a recovery tag that cold-starts. */
constexpr unsigned kColdStart = soc::kCheckpointSlots;

/** Little-endian word at FRAM offset @p off (Ram::read's order). */
std::uint32_t
readWord(const std::vector<std::uint8_t> &fram, std::uint32_t off)
{
    return std::uint32_t(fram[off]) | std::uint32_t(fram[off + 1]) << 8 |
           std::uint32_t(fram[off + 2]) << 16 |
           std::uint32_t(fram[off + 3]) << 24;
}

/**
 * The low-power monitor every torture SoC samples, enrolled once per
 * process: Soc takes it by const& and only calls its const queries,
 * so all rigs and their benches share it across threads.
 */
const core::FailureSentinels &
sharedMonitor()
{
    static const std::unique_ptr<core::FailureSentinels> monitor =
        harvest::makeFsLowPower();
    return *monitor;
}

} // namespace

const char *
goldenErrorMessage(GoldenError error)
{
    switch (error) {
      case GoldenError::kNone:
        return "ok";
      case GoldenError::kNoCheckpoint:
        return "brown-out phase never committed a checkpoint";
      case GoldenError::kNeverFinished:
        return "fault-free torture schedule never finished the app";
      case GoldenError::kWrongAnswer:
        return "fault-free torture schedule got a wrong answer";
    }
    return "unknown golden-run error";
}

struct TortureBench {
    std::shared_ptr<double> volts = std::make_shared<double>(0.0);
    std::unique_ptr<soc::Soc> soc;
    /** Pooled benches: FRAM equals *base outside the pages in dirty
     *  (base is null until the first image is loaded). */
    const soc::PagedImage *base = nullptr;
    soc::DirtyPages dirty;

    /** Make FRAM equal @p image, copying only pages that differ. */
    void
    moveTo(const soc::PagedImage &image)
    {
        std::vector<std::uint8_t> &mem = soc->fram().data();
        if (!base) {
            image.restore(mem);
        } else {
            const auto &pages = image.pages();
            const auto &held = base->pages();
            for (std::size_t p = 0; p < pages.size(); ++p)
                if (dirty.contains(p) || held[p] != pages[p])
                    std::memcpy(mem.data() + p * soc::PagedImage::kPageBytes,
                                pages[p]->data(), pages[p]->size());
        }
        dirty.clear();
        base = &image;
    }

    /** Store @p byte straight into FRAM, past the write filter. */
    void
    put(std::uint32_t addr, std::uint8_t byte)
    {
        soc->fram().data()[addr] = byte;
        dirty.mark(addr / soc::PagedImage::kPageBytes);
    }
};

namespace {

std::unique_ptr<TortureBench>
makeBench(const GoldenRun &g)
{
    auto bench = std::make_unique<TortureBench>();
    soc::CheckpointLayout layout;
    layout.sramSize = g.config.sramSize;
    bench->soc = std::make_unique<soc::Soc>(
        sharedMonitor(), [v = bench->volts](double) { return *v; },
        layout);
    bench->soc->loadRuntime(g.threshold);
    bench->soc->loadGuest(g.prog);
    return bench;
}

// One probe step per instruction of the schedule: keep it small.
static_assert(sizeof(GoldenRun::ProbeStep) == 16, "ProbeStep grew");

/**
 * The golden pass: run runKill()'s exact schedule with no injector,
 * one step at a time (run() is documented bit-identical to the step
 * loop), so probeSteps[i] is precisely the i-th instruction every kill
 * run executes before its kill fires, writeLog holds every FRAM store
 * those instructions make, and every FRAM image is captured on an
 * instruction boundary the kill runs also cross. The same pass maps
 * each checkpoint's commit window and the clean-run length, or says
 * why the schedule cannot anchor a campaign.
 */
GoldenError
goldenPass(GoldenRun &g)
{
    const TortureConfig &config = g.config;
    auto bench = makeBench(g);
    soc::Soc &sys = *bench->soc;

    // Capture targets in total-cycle coordinates, ascending: boot and
    // every commit window boundary, appended as the windows are found.
    std::vector<std::uint64_t> targets{0};
    std::size_t next_target = 0;
    const std::vector<std::uint8_t> &fram = std::as_const(sys).fram().data();

    const auto maybe_capture = [&] {
        if (next_target >= targets.size() ||
            sys.totalCycles() < targets[next_target])
            return;
        while (next_target < targets.size() &&
               targets[next_target] <= sys.totalCycles())
            ++next_target;
        GoldenRun::Snapshot snap;
        snap.fram.capture(fram, g.snapshots.empty()
                                    ? nullptr
                                    : &g.snapshots.back().fram);
        snap.writes = std::uint32_t(g.writeLog.size());
        g.snapshots.push_back(std::move(snap));
    };

    // Log every store the way Nvm::write sees it. A run without an
    // injector installs no filter of its own, so this one stays in
    // place for the whole pass; it never tears.
    sys.fram().setWriteFilter([&](std::uint32_t addr, std::uint32_t value,
                                  unsigned bytes, unsigned &,
                                  std::uint32_t &) {
        FS_ASSERT(bytes <= 4, "FRAM store wider than a word");
        GoldenRun::FramWrite w;
        w.step = std::uint32_t(g.probeSteps.size());
        w.addr = addr;
        w.width = std::uint8_t(bytes);
        for (unsigned i = 0; i < bytes; ++i) {
            w.pre[i] = fram[addr + i];
            w.post[i] = std::uint8_t(value >> (8 * i));
        }
        g.writeLog.push_back(w);
        return false;
    });

    // A brown-out phase's window opens on its first step that leaves a
    // trap cause and closes on the first store that raises the newest
    // committed sequence.
    std::uint32_t last_seq = 0;
    CommitWindow window;
    bool brown_out = false;
    const auto track_window = [&] {
        if (!brown_out || window.end != 0)
            return;
        if (window.begin == 0 && sys.hart().csr(riscv::kCsrMcause) != 0) {
            window.begin = sys.totalCycles();
            targets.push_back(window.begin);
        }
        if (window.begin == 0)
            return;
        const std::uint32_t seq = quickSeq(sys);
        if (seq > last_seq) {
            // One past the commit store's cycle: a kill anywhere in
            // [begin, end) still perturbs this commit (the last
            // position tears the magic).
            window.end = sys.totalCycles() + 1;
            last_seq = seq;
            g.windows.push_back(window);
            targets.push_back(window.end);
        }
    };

    // The brown-out phase always spends its full budget (the handler
    // parks in wfi after committing), so kill runs stay cycle-aligned.
    const auto phase = [&](std::uint64_t budget) {
        std::uint64_t spent = 0;
        while (!sys.hart().halted() && spent < budget) {
            GoldenRun::ProbeStep rec;
            rec.pcBefore = sys.hart().pc();
            const std::uint64_t before = sys.totalCycles();
            sys.step();
            spent += sys.totalCycles() - before;
            rec.cycleAfter = sys.totalCycles();
            rec.writeEnd = std::uint32_t(g.writeLog.size());
            g.probeSteps.push_back(rec);
            track_window();
            maybe_capture();
        }
    };
    sys.powerOn();
    maybe_capture(); // boot snapshot at cycle 0
    for (std::size_t cycle = 0; cycle < config.maxPowerCycles; ++cycle) {
        *bench->volts = config.stableVolts;
        phase(config.stableCycles);
        if (sys.appFinished())
            break;
        *bench->volts = g.vCkpt - 0.02;
        window = CommitWindow{};
        brown_out = true;
        phase(config.lowCycles);
        brown_out = false;
        if (sys.appFinished())
            break;
        if (window.end == 0)
            return GoldenError::kNoCheckpoint;
        sys.powerFail();
        sys.powerOn();
    }
    sys.fram().setWriteFilter(nullptr);
    if (!sys.appFinished())
        return GoldenError::kNeverFinished;
    if (sys.guestResult(g.prog) != g.prog.expected)
        return GoldenError::kWrongAnswer;
    g.cleanCycles = sys.totalCycles();
    // Step and store indices are 32-bit; ProbeStep stays 16 bytes.
    FS_ASSERT(g.probeSteps.size() < (std::uint64_t(1) << 32) &&
                  g.writeLog.size() < (std::uint64_t(1) << 32),
              "golden run too long to index");
    return GoldenError::kNone;
}

} // namespace

std::shared_ptr<const GoldenRun>
GoldenRun::build(soc::GuestProgram prog, TortureConfig config,
                 GoldenError *error)
{
    auto g = std::make_shared<GoldenRun>();
    g->prog = std::move(prog);
    g->config = config;

    // Same threshold recipe as the integration fixtures: enough
    // headroom above the core minimum to finish a commit at full
    // load, padded by the monitor's resolution.
    const core::FailureSentinels &monitor = sharedMonitor();
    harvest::SystemLoad load;
    const double capacitance = harvest::ScenarioParams{}.capacitance;
    g->vCkpt = load.coreVmin() +
               load.activeCurrentWith(monitor) * config.headroomSeconds /
                   capacitance +
               monitor.resolution();
    g->threshold = monitor.countThresholdFor(g->vCkpt);

    const GoldenError e = goldenPass(*g);
    if (error)
        *error = e;
    if (e != GoldenError::kNone)
        return nullptr;
    return g;
}

TortureRig::TortureRig(soc::GuestProgram prog, TortureConfig config)
{
    GoldenError error = GoldenError::kNone;
    golden_ = GoldenRun::build(std::move(prog), config, &error);
    FS_ASSERT(golden_, goldenErrorMessage(error));
}

TortureRig::TortureRig(std::shared_ptr<const GoldenRun> golden)
    : golden_(std::move(golden))
{
    FS_ASSERT(golden_, "torture rig needs a golden run");
}

TortureRig::~TortureRig() = default;

std::unique_ptr<TortureBench>
TortureRig::acquireBench()
{
    {
        std::lock_guard<std::mutex> lock(pool_mu_);
        if (!bench_pool_.empty()) {
            auto bench = std::move(bench_pool_.back());
            bench_pool_.pop_back();
            return bench;
        }
    }
    auto bench = makeBench(*golden_);
    TortureBench *b = bench.get();
    constexpr std::size_t kPage = soc::PagedImage::kPageBytes;
    b->dirty.reset((b->soc->fram().size() + kPage - 1) / kPage);
    // Pooled benches never get an injector, so this filter sees every
    // store a recovery makes and keeps `dirty` exact; it never tears.
    b->soc->fram().setWriteFilter([b](std::uint32_t addr, std::uint32_t,
                                      unsigned bytes, unsigned &,
                                      std::uint32_t &) {
        const std::size_t last = (std::size_t(addr) + bytes - 1) / kPage;
        for (std::size_t p = addr / kPage; p <= last; ++p)
            b->dirty.mark(p);
        return false;
    });
    return bench;
}

void
TortureRig::releaseBench(std::unique_ptr<TortureBench> bench)
{
    std::lock_guard<std::mutex> lock(pool_mu_);
    bench_pool_.push_back(std::move(bench));
}

CommitWindow
TortureRig::commitWindow(std::size_t which) const
{
    FS_ASSERT(which < golden_->windows.size(), "no such commit window");
    return golden_->windows[which];
}

TortureOutcome
TortureRig::runKill(const PowerKill &kill) const
{
    const GoldenRun &g = *golden_;
    const TortureConfig &config = g.config;
    TortureOutcome out;
    auto bench = makeBench(g);
    soc::Soc &sys = *bench->soc;

    FaultPlan plan;
    plan.kills.push_back(kill);
    FaultInjector injector(plan);
    sys.setFaultInjector(&injector);

    sys.powerOn();
    for (std::size_t cycle = 0; cycle < config.maxPowerCycles; ++cycle) {
        *bench->volts = config.stableVolts;
        sys.run(config.stableCycles);
        if (sys.appFinished() || sys.faultKilled())
            break;
        *bench->volts = g.vCkpt - 0.02;
        sys.run(config.lowCycles);
        if (sys.appFinished() || sys.faultKilled())
            break;
        sys.powerFail();
        sys.powerOn();
    }

    const std::size_t step = g.stepAt(kill.cycle);
    if (step < g.probeSteps.size())
        out.site = g.probeSteps[step].pcBefore;
    out.killed = sys.faultKilled();
    out.killTore = injector.log().killTears > 0;
    inspectSlots(std::as_const(sys).fram().data(), sys.layout(), out);

    if (out.killed) {
        out.coldRestart = out.validSlots == 0;
        *bench->volts = config.stableVolts;
        sys.powerOn();
        sys.run(config.recoveryCycles);
    }
    out.finished = sys.appFinished();
    out.result = out.finished ? sys.guestResult(g.prog) : 0;
    out.resultCorrect = out.finished && out.result == g.prog.expected;
    return out;
}

std::size_t
GoldenRun::stepAt(std::uint64_t kill_cycle) const
{
    // The kill fires at the end of the first step whose cycle counter
    // reaches kill_cycle (Soc::step polls killDue after executing).
    return std::size_t(
        std::lower_bound(probeSteps.begin(), probeSteps.end(), kill_cycle,
                         [](const ProbeStep &s, std::uint64_t c) {
                             return s.cycleAfter < c;
                         }) -
        probeSteps.begin());
}

std::size_t
GoldenRun::stepAtFrom(std::size_t from, std::uint64_t kill_cycle) const
{
    // stepAt(), galloping from `from` until a step reaches kill_cycle;
    // every step in [from, lo) ends before kill_cycle, so the answer
    // is in [lo, hi].
    const std::size_t n = probeSteps.size();
    std::size_t lo = from;
    std::size_t hi = from;
    for (std::size_t gap = 1;
         hi < n && probeSteps[hi].cycleAfter < kill_cycle; gap *= 2) {
        lo = hi + 1;
        hi = std::min(n, hi + gap);
    }
    return std::size_t(
        std::lower_bound(probeSteps.begin() + lo, probeSteps.begin() + hi,
                         kill_cycle,
                         [](const ProbeStep &s, std::uint64_t c) {
                             return s.cycleAfter < c;
                         }) -
        probeSteps.begin());
}

std::vector<std::size_t>
GoldenRun::killSteps(const std::vector<PowerKill> &kills) const
{
    const auto by_cycle = [&](std::size_t a, std::size_t b) {
        return kills[a].cycle < kills[b].cycle;
    };
    std::vector<std::size_t> order(kills.size());
    std::iota(order.begin(), order.end(), std::size_t(0));
    // An exhaustive shard already ascends in cycle.
    if (!std::is_sorted(order.begin(), order.end(), by_cycle))
        std::sort(order.begin(), order.end(), by_cycle);
    std::vector<std::size_t> steps(kills.size());
    std::size_t step = 0;
    for (const std::size_t i : order)
        steps[i] = step = stepAtFrom(step, kills[i].cycle);
    return steps;
}

std::vector<PowerKill>
GoldenRun::sampledKills(std::uint32_t killsPerWindow,
                        std::uint32_t randomKills, std::uint64_t seed) const
{
    Rng rng(seed);
    std::vector<PowerKill> kills;
    if (killsPerWindow > 0) {
        for (const CommitWindow &window : windows) {
            const std::uint64_t stride = std::max<std::uint64_t>(
                1, window.length() / killsPerWindow);
            for (std::uint64_t c = window.begin; c < window.end;
                 c += stride) {
                PowerKill kill;
                kill.cycle = c;
                kill.tearBytesKept = unsigned(rng.uniformInt(0, 3));
                kill.tearFlipMask =
                    std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
                kills.push_back(kill);
            }
        }
    }
    for (std::uint32_t i = 0; i < randomKills; ++i) {
        PowerKill kill;
        kill.cycle =
            std::uint64_t(rng.uniformInt(0, std::int64_t(cleanCycles) - 1));
        kill.tearBytesKept = unsigned(rng.uniformInt(0, 4));
        kill.tearFlipMask = std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
        kills.push_back(kill);
    }
    return kills;
}

std::vector<PowerKill>
GoldenRun::pointKills(std::uint64_t seed, std::uint64_t points,
                      std::uint64_t offset, std::uint64_t count) const
{
    FS_ASSERT(offset + count <= points, "point range beyond the campaign");
    std::vector<PowerKill> kills(count);
    for (std::size_t k = 0; k < kills.size(); ++k)
        kills[k].cycle = (offset + k) * cleanCycles / points;
    if (kills.empty())
        return kills;

    // The first point whose kill cycle is at least `cycle`.
    const auto first_point = [&](std::uint64_t cycle) {
        return (cycle * points + cleanCycles - 1) / cleanCycles;
    };
    // Only a kill on a storing step can tear, so tears are drawn per
    // storing step s of the shard: its points are those whose cycle is
    // in (cycleAfter[s-1], cycleAfter[s]].
    const std::uint64_t end = offset + count;
    const std::size_t first = stepAt(kills.front().cycle);
    const std::size_t last = stepAt(kills.back().cycle);
    std::uint32_t j = first == 0 ? 0 : probeSteps[first - 1].writeEnd;
    const std::uint32_t j_end = last == probeSteps.size()
                                    ? std::uint32_t(writeLog.size())
                                    : probeSteps[last].writeEnd;
    while (j < j_end) {
        const std::size_t s = writeLog[j].step;
        j = probeSteps[s].writeEnd;
        const std::uint64_t lo =
            s == 0 ? 0 : first_point(probeSteps[s - 1].cycleAfter + 1);
        const std::uint64_t hi = first_point(probeSteps[s].cycleAfter + 1);
        for (std::uint64_t i = std::max(offset, lo); i < std::min(end, hi);
             ++i) {
            Rng rng = util::rngForIndex(seed, i);
            PowerKill &kill = kills[std::size_t(i - offset)];
            kill.tearBytesKept = unsigned(rng.uniformInt(0, 4));
            kill.tearFlipMask =
                std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
        }
    }
    return kills;
}

/**
 * What a kill's outcome depends on: the FRAM it dies with, named by
 * its place in the golden run, and whether the app had finished.
 */
struct DeathImage {
    static constexpr std::uint8_t kUntorn = 0xFF;

    bool killed = true;  ///< false: the schedule finishes first
    /** Golden stores landed; a torn kill tears the last of them. */
    std::uint32_t writes = 0;
    bool finished = false;            ///< app finished on the kill step
    std::uint8_t tearKept = kUntorn;  ///< bytes of the torn store kept
    std::uint32_t tearFlip = 0;       ///< noise on its torn lanes only
    /** The killing step wrote FRAM. Accounting only: not part of the
     *  id (an untorn store lands like any other). */
    bool wrote = false;

    bool torn() const { return tearKept != kUntorn; }
    auto id() const
    {
        return std::tie(killed, writes, finished, tearKept, tearFlip);
    }
};

namespace {

/** The death image of @p kill, which fires at the end of @p step. */
DeathImage
deathImageAt(const GoldenRun &g, std::size_t step, const PowerKill &kill)
{
    DeathImage d;
    if (step == g.probeSteps.size()) {
        d.killed = false;
        d.writes = std::uint32_t(g.writeLog.size());
        d.finished = true;
        return d;
    }
    d.writes = g.probeSteps[step].writeEnd;
    d.finished = step + 1 == g.probeSteps.size();
    d.wrote = g.stepWrote(step);
    if (d.wrote) {
        // Soc::step tears the killing step's last store, and only
        // when fewer bytes are kept than it stored.
        const GoldenRun::FramWrite &w = g.writeLog[d.writes - 1];
        if (kill.tearBytesKept < w.width) {
            d.tearKept = std::uint8_t(kill.tearBytesKept);
            for (unsigned i = kill.tearBytesKept; i < w.width; ++i)
                d.tearFlip |= kill.tearFlipMask & (0xFFu << (8 * i));
        }
    }
    return d;
}

/** The nearest golden image at or before @p writes stores. */
const GoldenRun::Snapshot &
nearestImage(const GoldenRun &g, std::uint32_t writes)
{
    const auto it = std::upper_bound(
        g.snapshots.begin(), g.snapshots.end(), writes,
        [](std::uint32_t w, const GoldenRun::Snapshot &s) {
            return w < s.writes;
        });
    // The boot image holds zero stores, so `it` is past it.
    return *(it - 1);
}

/**
 * Turn a FRAM holding golden image @p from into @p death's image: the
 * logged stores since, then the tear, each byte through put(addr, b).
 */
template <class Put>
void
applyDeath(const GoldenRun &g, const GoldenRun::Snapshot &from,
           const DeathImage &death, Put &&put)
{
    for (std::uint32_t j = from.writes; j < death.writes; ++j) {
        const GoldenRun::FramWrite &w = g.writeLog[j];
        for (unsigned i = 0; i < w.width; ++i)
            put(w.addr + i, w.post[i]);
    }
    if (death.torn()) {
        // Nvm::tearLastWrite: the kept prefix lands, the rest reverts
        // to its old bytes XORed with the flip lanes.
        const GoldenRun::FramWrite &w = g.writeLog[death.writes - 1];
        for (unsigned i = death.tearKept; i < w.width; ++i)
            put(w.addr + i,
                std::uint8_t(w.pre[i] ^ (death.tearFlip >> (8 * i))));
    }
}

/**
 * Rebuild @p death in @p bench's FRAM. Returns the golden image it
 * started from: FRAM equals it outside bench.dirty.
 */
const soc::PagedImage &
materialise(const GoldenRun &g, TortureBench &bench, const DeathImage &death)
{
    const GoldenRun::Snapshot &from = nearestImage(g, death.writes);
    bench.moveTo(from.fram);
    applyDeath(g, from, death, [&](std::uint32_t addr, std::uint8_t byte) {
        bench.put(addr, byte);
    });
    return from.fram;
}

/** Tag bits of the restored slot; the slot flags sit above them. */
constexpr std::uint8_t kRestoredMask = 3;
constexpr unsigned kSlotFlagShift = 2;
/** MemoEntry::tag of an entry keyed on the whole image. */
constexpr std::uint8_t kFullImage = 0xFF;

/** RecoveryMask::tag: the restored slot (kColdStart: none) in the low
 *  bits, then each slot's magic-OK and CRC-OK flags. */
std::uint8_t
tagOf(const SlotInfos &slots)
{
    // newestValidCheckpointSlot's rule, which the boot path follows.
    unsigned restored = kColdStart;
    std::uint32_t best = 0;
    unsigned flags = 0;
    for (unsigned s = 0; s < soc::kCheckpointSlots; ++s) {
        const soc::CheckpointSlotInfo &info = slots[s];
        if (info.valid() && (restored == kColdStart || info.seq > best)) {
            restored = s;
            best = info.seq;
        }
        flags |= (info.magicOk ? 1u : 0u) << (2 * s);
        flags |= (info.crcOk ? 2u : 0u) << (2 * s);
    }
    return std::uint8_t(restored | flags << kSlotFlagShift);
}

/** The FRAM ranges left out of the key of an image tagged @p tag. */
std::vector<soc::ByteRange>
maskOf(std::uint8_t tag, const soc::CheckpointLayout &layout)
{
    const unsigned restored = tag & kRestoredMask;
    std::vector<soc::ByteRange> ranges;
    const auto add = [&](std::uint32_t begin, std::uint32_t end) {
        ranges.push_back({begin - layout.framBase, end - layout.framBase});
    };
    // Ascending: staging block, (CRC table), slot 0, slot 1. A slot's
    // magic is its last word.
    add(layout.regStageAddr(), layout.regStageAddr() + soc::kRegBlockBytes);
    for (unsigned s = 0; s < soc::kCheckpointSlots; ++s) {
        const bool magic_ok = (tag >> (kSlotFlagShift + 2 * s)) & 1;
        if (s == restored)
            continue;
        if (restored != kColdStart)
            add(layout.slotAddr(s), layout.slotAddr(s) + layout.slotSize());
        else if (!magic_ok)
            add(layout.slotAddr(s), layout.slotMagicAddr(s));
    }
    return ranges;
}

} // namespace

RecoveryMask
recoveryMaskOf(const std::vector<std::uint8_t> &fram,
               const soc::CheckpointLayout &layout)
{
    SlotInfos slots;
    for (unsigned s = 0; s < soc::kCheckpointSlots; ++s)
        slots[s] = soc::inspectCheckpointSlot(fram, layout, s);
    RecoveryMask mask;
    mask.tag = tagOf(slots);
    mask.ranges = maskOf(mask.tag, layout);
    return mask;
}

std::uint64_t
recoveryKeyOf(const RecoveryMask &mask, const std::vector<std::uint8_t> &fram,
              const soc::PagedImage &base, const soc::DirtyPages &dirty)
{
    return util::mixSeed(
        soc::PagedImage::maskedKeyOf(fram, base, dirty, mask.ranges),
        mask.tag);
}

std::vector<std::uint8_t>
TortureRig::deathFram(const PowerKill &kill) const
{
    const GoldenRun &g = *golden_;
    const DeathImage death = deathImageAt(g, g.stepAt(kill.cycle), kill);
    const GoldenRun::Snapshot &from = nearestImage(g, death.writes);
    std::vector<std::uint8_t> fram(from.fram.size());
    from.fram.restore(fram);
    applyDeath(g, from, death, [&](std::uint32_t addr, std::uint8_t byte) {
        fram[addr] = byte;
    });
    return fram;
}

std::vector<TortureOutcome>
TortureRig::runKills(const std::vector<PowerKill> &kills,
                     util::ThreadPool *pool, PruneStats *stats)
{
    util::ThreadPool &p = pool ? *pool : util::ThreadPool::shared();
    const GoldenRun &g = *golden_;
    const std::size_t n = kills.size();
    const std::vector<std::size_t> steps = g.killSteps(kills);
    std::vector<DeathImage> deaths(n);
    for (std::size_t i = 0; i < n; ++i)
        deaths[i] = deathImageAt(g, steps[i], kills[i]);

    // Group kills by death image; images[k] is group k's death image,
    // in id order. Kills ascending in cycle have ascending ids unless
    // some never fire or two tear one storing step differently.
    const auto by_id = [&](std::size_t a, std::size_t b) {
        return deaths[a].id() < deaths[b].id();
    };
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t(0));
    if (!std::is_sorted(order.begin(), order.end(), by_id))
        std::stable_sort(order.begin(), order.end(), by_id);
    std::vector<DeathImage> images;
    std::vector<std::size_t> group(n);
    for (const std::size_t i : order) {
        if (images.empty() || images.back().id() != deaths[i].id())
            images.push_back(deaths[i]);
        group[i] = images.size() - 1;
    }

    if (stats) {
        PruneStats st;
        st.totalKills = n;
        st.executedKills = images.size();
        st.skippedKills = n - st.executedKills;
        for (const DeathImage &d : deaths) {
            st.vulnerableKills += d.wrote ? 1 : 0;
            st.neverFires += d.killed ? 0 : 1;
        }
        *stats = st;
    }

    const std::vector<TortureOutcome> graded = gradeImages(images, p);
    std::vector<TortureOutcome> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = graded[group[i]];
        // Kills sharing an image may land on different untorn steps.
        out[i].site = steps[i] < g.probeSteps.size()
                          ? g.probeSteps[steps[i]].pcBefore
                          : kNoKillSite;
    }
    return out;
}

std::vector<TortureOutcome>
TortureRig::runKillsPruned(const std::vector<PowerKill> &kills,
                           const InjectionPointMap &,
                           util::ThreadPool *pool, PruneStats *stats)
{
    return runKills(kills, pool, stats);
}

bool
TortureRig::recover(TortureBench &bench, const DeathImage &death,
                    const std::vector<soc::ByteRange> &watch,
                    TortureOutcome &out)
{
    const GoldenRun &g = *golden_;
    soc::Soc &sys = *bench.soc;
    // The runtime enables the monitor only once it has restored a slot
    // (or cold-started), so an enabled monitor means app re-entry.
    bool read_masked = false;
    if (!watch.empty())
        sys.watchFramReads(watch, [&] {
            read_masked = read_masked || sys.fsPeripheral().enabled();
        });
    // Power dies with the image in FRAM, then comes back on stable
    // power. The flag clear keeps a previous recovery's finish from
    // leaking into this one.
    sys.clearAppFinished();
    sys.powerFail();
    *bench.volts = g.config.stableVolts;
    sys.powerOn();
    sys.run(g.config.recoveryCycles);
    if (!watch.empty())
        sys.watchFramReads({}, nullptr);
    out.finished = death.finished || sys.appFinished();
    out.result = out.finished ? sys.guestResult(g.prog) : 0;
    out.resultCorrect = out.finished && out.result == g.prog.expected;
    recoveries_.fetch_add(1, std::memory_order_relaxed);
    return read_masked;
}

namespace {

/** A recovered leader's verdict, shared by every image it covers. */
struct MemoEntry {
    soc::PagedImage image; ///< the leader's FRAM; byte-checked on hits
    /** RecoveryMask::tag, or kFullImage for a key over the whole image. */
    std::uint8_t tag = 0;
    bool finished = false;
    std::uint32_t result = 0;

    /** This entry's verdict is that of @p fram (which equals @p base
     *  outside @p dirty): it matches every keyed byte. */
    bool
    covers(const std::vector<std::uint8_t> &fram, const soc::PagedImage &base,
           const soc::DirtyPages &dirty,
           const soc::CheckpointLayout &layout) const
    {
        return tag == kFullImage ? image.matches(fram, base, dirty)
                                 : image.matchesOutside(fram, base, dirty,
                                                        maskOf(tag, layout));
    }
};

/** Phase 1's view of one distinct death image. */
struct KeyedImage {
    TortureOutcome out;   ///< forensics, and the verdict once graded
    bool memoize = false; ///< its recovery verdict may be shared by key
    std::uint8_t tag = 0;
    std::uint64_t maskedKey = 0; ///< recoveryKeyOf()
    std::uint64_t fullKey = 0;   ///< the whole image's key
};

/** Phase 3's unit of work: a leader and the images its key names. */
struct MemoGroup {
    std::size_t leader = 0;
    std::uint8_t tag = 0;    ///< the leader's entry's tag
    bool memoize = false;    ///< false: `leader` recovers alone
    std::vector<std::size_t> members; ///< the other images, in id order
    /** The leader's entry, for phase 3b; unset when the leader recovered
     *  alone or its members were regraded under full-image keys. */
    std::optional<MemoEntry> entry;
};

} // namespace

std::vector<TortureOutcome>
TortureRig::gradeImages(const std::vector<DeathImage> &images,
                        util::ThreadPool &pool)
{
    const GoldenRun &g = *golden_;
    const std::size_t n = images.size();

    // Phase 1 (parallel): rebuild each image, inspect its slots, key it.
    std::vector<KeyedImage> keyed(n);
    pool.parallelFor(n, [&](std::size_t k) {
        const DeathImage &death = images[k];
        KeyedImage &ki = keyed[k];
        auto bench = acquireBench();
        const soc::Soc &sys = *bench->soc;
        const soc::PagedImage &base = materialise(g, *bench, death);
        const std::vector<std::uint8_t> &fram = sys.fram().data();
        ki.out.killed = death.killed;
        ki.out.killTore = death.torn();
        const SlotInfos slots = inspectSlots(fram, sys.layout(), ki.out);
        if (!death.killed) {
            // The fault-free run: its final FRAM holds the answer.
            ki.out.finished = true;
            ki.out.result =
                readWord(fram, g.prog.resultAddr - sys.layout().framBase);
            ki.out.resultCorrect = ki.out.result == g.prog.expected;
        } else {
            ki.out.coldRestart = ki.out.validSlots == 0;
            // Only the last golden step sets the app-finished flag, so
            // that one image is never shared.
            ki.memoize = !death.finished;
        }
        if (ki.memoize) {
            RecoveryMask mask;
            mask.tag = ki.tag = tagOf(slots);
            mask.ranges = maskOf(mask.tag, sys.layout());
            ki.maskedKey = recoveryKeyOf(mask, fram, base, bench->dirty);
            ki.fullKey = util::mixSeed(
                soc::PagedImage::keyOf(fram, base, bench->dirty), kFullImage);
        }
        releaseBench(std::move(bench));
    });

    // Phase 2 (serial, id order): the first image with a key leads its
    // group, and every later image with that key joins it.
    std::vector<MemoGroup> groups;
    std::unordered_map<std::uint64_t, std::size_t> group_of; // key->group
    for (std::size_t k = 0; k < n; ++k) {
        const KeyedImage &ki = keyed[k];
        if (!ki.out.killed)
            continue;
        MemoGroup solo;
        solo.leader = k;
        if (ki.memoize) {
            const auto at = group_of.emplace(ki.maskedKey, groups.size());
            if (!at.second && groups[at.first->second].tag == ki.tag) {
                groups[at.first->second].members.push_back(k);
                continue;
            }
            // A new key (or, on a 64-bit key collision, a lone image).
            solo.tag = ki.tag;
            solo.memoize = at.second;
        }
        groups.push_back(std::move(solo));
    }

    // Rebuild image k on @p bench; true when @p entry's verdict is its
    // verdict.
    const auto covered = [&](TortureBench &bench, const MemoEntry &entry,
                             std::size_t k) {
        const soc::PagedImage &base = materialise(g, bench, images[k]);
        return entry.covers(bench.soc->fram().data(), base, bench.dirty,
                            bench.soc->layout());
    };
    const auto take = [&](const MemoEntry &entry, std::size_t k) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        TortureOutcome &out = keyed[k].out;
        out.finished = entry.finished;
        out.result = entry.result;
        out.resultCorrect = out.finished && out.result == g.prog.expected;
    };

    // Phase 3a (parallel over groups): one recovery per leader. A leader
    // whose recovery read a masked byte regrades its group under
    // full-image keys on the spot.
    pool.parallelFor(groups.size(), [&](std::size_t gi) {
        MemoGroup &grp = groups[gi];
        auto bench = acquireBench();
        if (!grp.memoize) {
            materialise(g, *bench, images[grp.leader]);
            recover(*bench, images[grp.leader], {}, keyed[grp.leader].out);
            releaseBench(std::move(bench));
            return;
        }
        // Recover image k as the leader of an entry tagged @p tag,
        // watching the ranges its key masks; true when it read one.
        const auto lead = [&](std::size_t k, std::uint8_t tag,
                              MemoEntry &entry) {
            entry.tag = tag;
            const soc::PagedImage &base = materialise(g, *bench, images[k]);
            leader_bytes_.fetch_add(
                entry.image.captureDirty(bench->soc->fram().data(), base,
                                         bench->dirty),
                std::memory_order_relaxed);
            TortureOutcome &out = keyed[k].out;
            const bool read_masked = recover(
                *bench, images[k],
                tag == kFullImage ? std::vector<soc::ByteRange>{}
                                  : maskOf(tag, bench->soc->layout()),
                out);
            entry.finished = out.finished;
            entry.result = out.result;
            return read_masked;
        };
        MemoEntry own;
        if (!lead(grp.leader, grp.tag, own)) {
            grp.entry = std::move(own);
        } else {
            // The verdict may depend on masked bytes: key the leader and
            // its members on their whole images.
            fallbacks_.fetch_add(1, std::memory_order_relaxed);
            own.tag = kFullImage;
            std::vector<std::pair<std::uint64_t, MemoEntry>> full;
            full.emplace_back(keyed[grp.leader].fullKey, std::move(own));
            for (const std::size_t k : grp.members) {
                const auto same = std::find_if(
                    full.begin(), full.end(), [&](const auto &f) {
                        return f.first == keyed[k].fullKey;
                    });
                if (same != full.end() && covered(*bench, same->second, k)) {
                    take(same->second, k);
                } else {
                    full.emplace_back(keyed[k].fullKey, MemoEntry{});
                    lead(k, kFullImage, full.back().second);
                }
            }
        }
        releaseBench(std::move(bench));
    });

    // Phase 3b (parallel over members): byte-check each remaining
    // member against its leader's entry; a mismatch (a key collision)
    // recovers alone.
    std::vector<std::pair<const MemoEntry *, std::size_t>> checks;
    for (const MemoGroup &grp : groups)
        if (grp.entry)
            for (const std::size_t k : grp.members)
                checks.emplace_back(&*grp.entry, k);
    pool.parallelFor(checks.size(), [&](std::size_t c) {
        const auto [entry, k] = checks[c];
        auto bench = acquireBench();
        if (covered(*bench, *entry, k))
            take(*entry, k);
        else
            recover(*bench, images[k], {}, keyed[k].out);
        releaseBench(std::move(bench));
    });

    std::vector<TortureOutcome> out(n);
    for (std::size_t k = 0; k < n; ++k)
        out[k] = keyed[k].out;
    return out;
}

ConvergeStats
TortureRig::convergeStats() const
{
    ConvergeStats st;
    st.goldenSnapshots = golden_->snapshots.size();
    st.memoEntries = recoveries_.load(std::memory_order_relaxed);
    st.memoHits = hits_.load(std::memory_order_relaxed);
    st.fallbacks = fallbacks_.load(std::memory_order_relaxed);
    return st;
}

std::size_t
TortureRig::snapshotMemoryBytes() const
{
    // A leader's image shares pages only with the golden image it was
    // rebuilt from, so its own pages add to the golden images' bytes.
    std::vector<const soc::PagedImage *> images;
    images.reserve(golden_->snapshots.size());
    for (const GoldenRun::Snapshot &g : golden_->snapshots)
        images.push_back(&g.fram);
    return soc::distinctPageBytes(images) +
           leader_bytes_.load(std::memory_order_relaxed);
}

} // namespace fault
} // namespace fs
