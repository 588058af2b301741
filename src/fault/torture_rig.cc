#include "fault/torture_rig.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <tuple>
#include <utility>

#include "core/failure_sentinels.h"
#include "fault/fault_injector.h"
#include "harvest/intermittent_sim.h"
#include "harvest/loads.h"
#include "harvest/system_comparison.h"
#include "riscv/encoding.h"
#include "soc/soc.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace fs {
namespace fault {

namespace {

/**
 * Cheap committed-sequence probe for the fault-free instrumentation
 * pass: magic plus sequence words only. Without injected corruption a
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

/** Slot forensics on the FRAM image power died with. */
void
inspectSlots(const std::vector<std::uint8_t> &fram,
             const soc::CheckpointLayout &layout, TortureOutcome &out)
{
    for (unsigned slot = 0; slot < soc::kCheckpointSlots; ++slot) {
        const auto info = soc::inspectCheckpointSlot(fram, layout, slot);
        if (info.valid()) {
            ++out.validSlots;
            out.newestSeq = std::max(out.newestSeq, info.seq);
        } else if (info.magicOk) {
            ++out.tornSlots;
        }
    }
}

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

std::uint64_t
resolvedSnapshotStride(const TortureConfig &config)
{
    // 0 is a valid stride (no stride captures), so garbage must fall
    // back to the config default, not parse to 0 silently.
    return util::envU64("FS_SNAPSHOT_STRIDE", config.snapshotStride, 0,
                        1u << 30);
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

/**
 * The instrumented fault-free pass: maps each checkpoint's commit
 * window and the clean-run length, or says why the schedule cannot
 * anchor a campaign.
 */
GoldenError
instrument(GoldenRun &g)
{
    const TortureConfig &config = g.config;
    auto bench = makeBench(g);
    soc::Soc &sys = *bench->soc;
    std::uint32_t last_seq = 0;
    sys.powerOn();
    for (std::size_t cycle = 0; cycle < config.maxPowerCycles; ++cycle) {
        *bench->volts = config.stableVolts;
        sys.run(config.stableCycles);
        if (sys.appFinished())
            break;
        // Brown-out phase, stepped one instruction at a time so the
        // trap entry and the commit store land on exact cycle counts.
        // The full budget is always consumed (the handler parks in
        // wfi after committing) so kill runs stay cycle-aligned.
        *bench->volts = g.vCkpt - 0.02;
        bool saw_trap = false;
        CommitWindow window;
        std::uint64_t spent = 0;
        while (spent < config.lowCycles && !sys.hart().halted()) {
            const std::uint64_t before = sys.totalCycles();
            sys.step();
            spent += sys.totalCycles() - before;
            if (!saw_trap && sys.hart().csr(riscv::kCsrMcause) != 0) {
                saw_trap = true;
                window.begin = sys.totalCycles();
            }
            if (saw_trap && window.end == 0) {
                const std::uint32_t seq = quickSeq(sys);
                if (seq > last_seq) {
                    // One past the commit store's cycle: a kill
                    // anywhere in [begin, end) still perturbs this
                    // commit (the last position tears the magic).
                    window.end = sys.totalCycles() + 1;
                    last_seq = seq;
                    g.windows.push_back(window);
                }
            }
        }
        if (sys.appFinished())
            break;
        if (window.end == 0)
            return GoldenError::kNoCheckpoint;
        sys.powerFail();
        sys.powerOn();
    }
    if (!sys.appFinished())
        return GoldenError::kNeverFinished;
    if (sys.guestResult(g.prog) != g.prog.expected)
        return GoldenError::kWrongAnswer;
    g.cleanCycles = sys.totalCycles();
    return GoldenError::kNone;
}

// One probe step per instruction of the schedule: keep it small.
static_assert(sizeof(GoldenRun::ProbeStep) == 16, "ProbeStep grew");

/**
 * The golden pass: replay runKill()'s exact schedule with no injector,
 * one step at a time (run() is documented bit-identical to the step
 * loop), so probeSteps[i] is precisely the i-th instruction every kill
 * run executes before its kill fires, writeLog holds every FRAM store
 * those instructions make, and every FRAM image is captured on an
 * instruction boundary the kill runs also cross.
 */
void
goldenPass(GoldenRun &g)
{
    const TortureConfig &config = g.config;
    auto bench = makeBench(g);
    soc::Soc &sys = *bench->soc;

    // Capture targets in total-cycle coordinates: boot, every commit
    // window boundary, and a fixed stride across the whole run.
    std::vector<std::uint64_t> targets{0};
    for (const CommitWindow &w : g.windows) {
        targets.push_back(w.begin);
        targets.push_back(w.end);
    }
    if (config.snapshotStride > 0)
        for (std::uint64_t c = config.snapshotStride; c < g.cleanCycles;
             c += config.snapshotStride)
            targets.push_back(c);
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());
    g.snapshots.reserve(targets.size());
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
        phase(config.lowCycles);
        if (sys.appFinished())
            break;
        sys.powerFail();
        sys.powerOn();
    }
    sys.fram().setWriteFilter(nullptr);
    // instrument() already saw this exact schedule finish.
    FS_ASSERT(sys.appFinished(), "probe schedule never finished the app");
    // Step and store indices are 32-bit; ProbeStep stays 16 bytes.
    FS_ASSERT(g.probeSteps.size() < (std::uint64_t(1) << 32) &&
                  g.writeLog.size() < (std::uint64_t(1) << 32),
              "golden run too long to index");
}

} // namespace

std::shared_ptr<const GoldenRun>
GoldenRun::build(soc::GuestProgram prog, TortureConfig config,
                 GoldenError *error)
{
    auto g = std::make_shared<GoldenRun>();
    g->prog = std::move(prog);
    config.snapshotStride = resolvedSnapshotStride(config);
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

    const GoldenError e = instrument(*g);
    if (error)
        *error = e;
    if (e != GoldenError::kNone)
        return nullptr;
    goldenPass(*g);
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

bool
TortureRig::snapshotsActive() const
{
    return !util::envFlag("FS_NO_SNAPSHOT");
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

/**
 * What a kill's outcome depends on: the FRAM it dies with, named by
 * its place in the golden run, and whether the app had finished.
 */
struct TortureRig::DeathImage {
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

/**
 * Rebuild @p death in @p bench's FRAM: the nearest golden image at or
 * before its store count, the logged stores since, then the tear.
 * Returns the golden image it started from.
 */
const GoldenRun::Snapshot &
TortureRig::materialise(TortureBench &bench, const DeathImage &death) const
{
    const GoldenRun &g = *golden_;
    const auto it = std::upper_bound(
        g.snapshots.begin(), g.snapshots.end(), death.writes,
        [](std::uint32_t w, const GoldenRun::Snapshot &s) {
            return w < s.writes;
        });
    // The boot image holds zero stores, so `it` is past it.
    const GoldenRun::Snapshot &from = *(it - 1);
    bench.moveTo(from.fram);
    for (std::uint32_t j = from.writes; j < death.writes; ++j) {
        const GoldenRun::FramWrite &w = g.writeLog[j];
        for (unsigned i = 0; i < w.width; ++i)
            bench.put(w.addr + i, w.post[i]);
    }
    if (death.torn()) {
        // Nvm::tearLastWrite: the kept prefix lands, the rest reverts
        // to its old bytes XORed with the flip lanes.
        const GoldenRun::FramWrite &w = g.writeLog[death.writes - 1];
        for (unsigned i = death.tearKept; i < w.width; ++i)
            bench.put(w.addr + i,
                      std::uint8_t(w.pre[i] ^ (death.tearFlip >> (8 * i))));
    }
    return from;
}

TortureRig::DeathImage
TortureRig::deathImageOf(const PowerKill &kill) const
{
    const GoldenRun &g = *golden_;
    DeathImage d;
    const std::size_t step = g.stepAt(kill.cycle);
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

std::vector<TortureOutcome>
TortureRig::runKills(const std::vector<PowerKill> &kills,
                     util::ThreadPool *pool, PruneStats *stats)
{
    util::ThreadPool &p = pool ? *pool : util::ThreadPool::shared();
    const std::size_t n = kills.size();
    std::vector<DeathImage> deaths(n);
    p.parallelFor(n, [&](std::size_t i) {
        deaths[i] = deathImageOf(kills[i]);
    });

    // Group kills by death image (each kill alone with convergence
    // off); rep[k] is the kill graded for group k.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t(0));
    if (converge_on_)
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return deaths[a].id() < deaths[b].id();
                         });
    std::vector<std::size_t> rep;
    std::vector<std::size_t> group(n);
    for (const std::size_t i : order) {
        if (rep.empty() || !converge_on_ ||
            deaths[rep.back()].id() != deaths[i].id())
            rep.push_back(i);
        group[i] = rep.size() - 1;
    }

    const bool from_log = snapshotsActive();
    if (stats) {
        PruneStats st;
        st.totalKills = n;
        st.executedKills = from_log ? rep.size() : n;
        st.skippedKills = n - st.executedKills;
        for (const DeathImage &d : deaths) {
            st.vulnerableKills += d.wrote ? 1 : 0;
            st.neverFires += d.killed ? 0 : 1;
        }
        *stats = st;
    }
    if (!from_log)
        return p.parallelMap(n, [&](std::size_t i) {
            return runKill(kills[i]);
        });

    const std::vector<TortureOutcome> graded =
        p.parallelMap(rep.size(), [&](std::size_t k) {
            return gradeImage(deaths[rep[k]]);
        });
    std::vector<TortureOutcome> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = graded[group[i]];
    return out;
}

std::vector<TortureOutcome>
TortureRig::runKillsPruned(const std::vector<PowerKill> &kills,
                           const InjectionPointMap &,
                           util::ThreadPool *pool, PruneStats *stats)
{
    return runKills(kills, pool, stats);
}

TortureOutcome
TortureRig::gradeImage(const DeathImage &death)
{
    const GoldenRun &g = *golden_;
    auto bench = acquireBench();
    soc::Soc &sys = *bench->soc;
    const soc::PagedImage &base = materialise(*bench, death).fram;
    const std::vector<std::uint8_t> &fram = std::as_const(sys).fram().data();

    TortureOutcome out;
    out.killed = death.killed;
    out.killTore = death.torn();
    inspectSlots(fram, sys.layout(), out);
    if (!death.killed) {
        // The fault-free run: its final FRAM holds the answer.
        out.finished = true;
        out.result = readWord(fram, g.prog.resultAddr - sys.layout().framBase);
        out.resultCorrect = out.result == g.prog.expected;
        releaseBench(std::move(bench));
        return out;
    }
    out.coldRestart = out.validSlots == 0;

    // The recovery verdict is a pure function of the FRAM image and
    // the app-finished flag (the recovery contract, see the header).
    // Only the last golden step sets that flag, so that one image is
    // never memoized. The byte-exact check makes a key collision
    // degrade to a miss, never a wrong verdict.
    const bool memoize = converge_on_ && !death.finished;
    std::uint64_t key = 0;
    if (memoize) {
        key = soc::PagedImage::keyOf(fram, base, bench->dirty);
        const RecoveryMemo *cached = nullptr;
        {
            std::lock_guard<std::mutex> lock(memo_mu_);
            const auto it = memo_.find(key);
            if (it != memo_.end())
                cached = &it->second;
        }
        // Entries are immutable and never erased, and map nodes do not
        // move, so the check can run outside the lock.
        if (cached && cached->image.matches(fram, base, bench->dirty)) {
            memo_hits_.fetch_add(1, std::memory_order_relaxed);
            releaseBench(std::move(bench));
            out.finished = cached->finished;
            out.result = cached->result;
            out.resultCorrect =
                out.finished && out.result == g.prog.expected;
            return out;
        }
    }

    RecoveryMemo memo;
    if (memoize)
        memo.image.captureDirty(fram, base, bench->dirty);
    // Recover on this bench: power dies with the image in FRAM, then
    // comes back on stable power. The flag clear keeps a previous
    // recovery's finish from leaking into this one.
    sys.clearAppFinished();
    sys.powerFail();
    *bench->volts = g.config.stableVolts;
    sys.powerOn();
    sys.run(g.config.recoveryCycles);
    memo.finished = death.finished || sys.appFinished();
    memo.result = memo.finished ? sys.guestResult(g.prog) : 0;
    releaseBench(std::move(bench));

    out.finished = memo.finished;
    out.result = memo.result;
    out.resultCorrect = out.finished && out.result == g.prog.expected;
    if (memoize) {
        // emplace keeps the first entry on a race: both racers
        // computed the same deterministic verdict anyway.
        std::lock_guard<std::mutex> lock(memo_mu_);
        memo_.emplace(key, std::move(memo));
    }
    return out;
}

std::vector<std::uint32_t>
TortureRig::killSitePcs(const std::vector<PowerKill> &kills) const
{
    const GoldenRun &g = *golden_;
    std::vector<std::uint32_t> pcs(kills.size(), kNoKillSite);
    for (std::size_t i = 0; i < kills.size(); ++i) {
        const std::size_t step = g.stepAt(kills[i].cycle);
        if (step < g.probeSteps.size())
            pcs[i] = g.probeSteps[step].pcBefore;
    }
    return pcs;
}

ConvergeStats
TortureRig::convergeStats() const
{
    ConvergeStats st;
    st.goldenSnapshots = golden_->snapshots.size();
    std::lock_guard<std::mutex> lock(memo_mu_);
    st.memoEntries = memo_.size();
    st.memoHits = memo_hits_.load(std::memory_order_relaxed);
    return st;
}

std::size_t
TortureRig::snapshotMemoryBytes() const
{
    std::vector<const soc::PagedImage *> images;
    images.reserve(golden_->snapshots.size() + 16);
    for (const GoldenRun::Snapshot &g : golden_->snapshots)
        images.push_back(&g.fram);
    std::lock_guard<std::mutex> lock(memo_mu_);
    for (const auto &entry : memo_)
        images.push_back(&entry.second.image);
    return soc::distinctPageBytes(images);
}

} // namespace fault
} // namespace fs
