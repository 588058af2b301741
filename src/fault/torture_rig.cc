#include "fault/torture_rig.h"

#include <algorithm>
#include <cstdlib>
#include <map>
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

/** Slot forensics at the instant power died. */
void
inspectSlots(const soc::Soc &sys, TortureOutcome &out)
{
    for (unsigned slot = 0; slot < soc::kCheckpointSlots; ++slot) {
        const auto info = soc::inspectCheckpointSlot(
            sys.fram().data(), sys.layout(), slot);
        if (info.valid()) {
            ++out.validSlots;
            out.newestSeq = std::max(out.newestSeq, info.seq);
        } else if (info.magicOk) {
            ++out.tornSlots;
        }
    }
}

bool
snapshotsDisabledByEnv()
{
    return util::envFlag("FS_NO_SNAPSHOT");
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

/**
 * The golden pass: replay runKill()'s exact schedule with no injector,
 * one step at a time (run() is documented bit-identical to the step
 * loop), so probeSteps[i] is precisely the i-th instruction every kill
 * run executes before its kill fires, and every snapshot lands on an
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

    const auto maybe_capture = [&](std::size_t power_cycle, int phase_id,
                                   std::uint64_t spent) {
        if (next_target >= targets.size() ||
            sys.totalCycles() < targets[next_target])
            return;
        while (next_target < targets.size() &&
               targets[next_target] <= sys.totalCycles())
            ++next_target;
        GoldenRun::Snapshot snap;
        snap.state = sys.saveSnapshot(
            g.snapshots.empty() ? nullptr : &g.snapshots.back().state);
        snap.powerCycle = power_cycle;
        snap.phase = phase_id;
        snap.spentInPhase = spent;
        g.snapshots.push_back(std::move(snap));
    };

    const auto phase = [&](std::size_t power_cycle, int phase_id,
                           std::uint64_t budget) {
        std::uint64_t spent = 0;
        while (!sys.hart().halted() && spent < budget) {
            GoldenRun::ProbeStep rec;
            rec.pcBefore = sys.hart().pc();
            const std::uint64_t before = sys.totalCycles();
            const std::uint64_t writes = sys.fram().writeCount();
            sys.step();
            spent += sys.totalCycles() - before;
            rec.cycleAfter = sys.totalCycles();
            rec.wrote = sys.fram().writeCount() != writes;
            rec.bytesWritten = sys.fram().bytesWritten();
            rec.finished = sys.appFinished();
            g.probeSteps.push_back(rec);
            maybe_capture(power_cycle, phase_id, spent);
        }
    };
    sys.powerOn();
    maybe_capture(0, 0, 0); // boot snapshot at cycle 0
    for (std::size_t cycle = 0; cycle < config.maxPowerCycles; ++cycle) {
        *bench->volts = config.stableVolts;
        phase(cycle, 0, config.stableCycles);
        if (sys.appFinished())
            break;
        *bench->volts = g.vCkpt - 0.02;
        phase(cycle, 1, config.lowCycles);
        if (sys.appFinished())
            break;
        sys.powerFail();
        sys.powerOn();
    }
    // instrument() already saw this exact schedule finish.
    FS_ASSERT(sys.appFinished(), "probe schedule never finished the app");
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
        std::lock_guard<std::mutex> lock(bench_mu_);
        if (!bench_pool_.empty()) {
            auto bench = std::move(bench_pool_.back());
            bench_pool_.pop_back();
            return bench;
        }
    }
    return makeBench(*golden_);
}

void
TortureRig::releaseBench(std::unique_ptr<TortureBench> bench)
{
    std::lock_guard<std::mutex> lock(bench_mu_);
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
    return !snapshotsDisabledByEnv() &&
           resolvedSnapshotStride(golden_->config) > 0;
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
    inspectSlots(sys, out);

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

std::vector<TortureOutcome>
TortureRig::runKills(const std::vector<PowerKill> &kills,
                     util::ThreadPool *pool)
{
    util::ThreadPool &p = pool ? *pool : util::ThreadPool::shared();
    if (snapshotsActive())
        return p.parallelMap(kills.size(), [&](std::size_t i) {
            return runKillForked(kills[i]);
        });
    return p.parallelMap(kills.size(), [&](std::size_t i) {
        return runKill(kills[i]);
    });
}

const GoldenRun::Snapshot &
TortureRig::snapshotBefore(std::uint64_t kill_cycle) const
{
    // Strictly before: a snapshot taken at exactly kill_cycle already
    // executed the instruction the kill fires at the end of (kills
    // are polled after each step), so forking there would miss it.
    const std::vector<GoldenRun::Snapshot> &snaps = golden_->snapshots;
    const auto it = std::lower_bound(
        snaps.begin(), snaps.end(), kill_cycle,
        [](const GoldenRun::Snapshot &g, std::uint64_t c) {
            return g.state.totalCycles < c;
        });
    if (it == snaps.begin())
        return snaps.front(); // boot snapshot (cycle 0)
    return *(it - 1);
}

std::vector<GoldenRun::ProbeStep>::const_iterator
TortureRig::probeStepAt(std::uint64_t kill_cycle) const
{
    // The kill fires at the end of the first step whose cycle counter
    // reaches kill_cycle (Soc::step polls killDue after executing).
    const std::vector<GoldenRun::ProbeStep> &steps = golden_->probeSteps;
    return std::lower_bound(steps.begin(), steps.end(), kill_cycle,
                            [](const GoldenRun::ProbeStep &s,
                               std::uint64_t c) {
                                return s.cycleAfter < c;
                            });
}

TortureOutcome
TortureRig::runKillForked(const PowerKill &kill)
{
    const TortureConfig &config = golden_->config;
    auto bench = acquireBench();
    soc::Soc &sys = *bench->soc;

    FaultPlan plan;
    plan.kills.push_back(kill);
    FaultInjector injector(plan);

    const GoldenRun::Snapshot &snap = snapshotBefore(kill.cycle);
    sys.restoreSnapshot(snap.state);
    // Attaching the injector after the restore is exact: a kill-only
    // plan's write filter never tears (it only advances a cursor no
    // kill consults) and the kill poll compares absolute cycles, so
    // the pre-kill trajectory is untouched either way -- the same
    // invariant the fault-free probe replay rests on.
    sys.setFaultInjector(&injector);

    for (std::size_t cycle = snap.powerCycle;
         cycle < config.maxPowerCycles; ++cycle) {
        const bool resuming = cycle == snap.powerCycle;
        if (!resuming || snap.phase == 0) {
            const std::uint64_t spent =
                resuming && snap.phase == 0 ? snap.spentInPhase : 0;
            *bench->volts = config.stableVolts;
            sys.run(config.stableCycles -
                    std::min(config.stableCycles, spent));
            if (sys.appFinished() || sys.faultKilled())
                break;
        }
        const std::uint64_t spent =
            resuming && snap.phase == 1 ? snap.spentInPhase : 0;
        *bench->volts = golden_->vCkpt - 0.02;
        sys.run(config.lowCycles - std::min(config.lowCycles, spent));
        if (sys.appFinished() || sys.faultKilled())
            break;
        sys.powerFail();
        sys.powerOn();
    }

    TortureOutcome out = finishOutcome(*bench, injector, snap.state);
    sys.setFaultInjector(nullptr);
    releaseBench(std::move(bench));
    return out;
}

TortureOutcome
TortureRig::finishOutcome(TortureBench &bench, FaultInjector &injector,
                          const soc::Snapshot &fork)
{
    const soc::GuestProgram &prog = golden_->prog;
    const TortureConfig &config = golden_->config;
    soc::Soc &sys = *bench.soc;
    TortureOutcome out;
    out.killed = sys.faultKilled();
    out.killTore = injector.log().killTears > 0;
    inspectSlots(sys, out);

    if (!out.killed) {
        out.finished = sys.appFinished();
        out.result = out.finished ? sys.guestResult(prog) : 0;
        out.resultCorrect = out.finished && out.result == prog.expected;
        return out;
    }

    out.coldRestart = out.validSlots == 0;
    if (converge_on_) {
        // Convergence early-exit: power loss wiped all volatile
        // state and recovery runs on stable power, so the recovery
        // verdict is a pure function of the FRAM image at death
        // (runKillsPruned()'s documented invariant). Serve repeats
        // from the memo. FRAM still equals the fork snapshot outside
        // the pages the replay dirtied, so keying, verifying and
        // capturing the death image touch only those pages; the
        // byte-exact check makes a key collision degrade to a miss,
        // never a wrong verdict.
        FS_ASSERT(sys.framDirtyTracked(),
                  "forked FRAM changed behind the write filter");
        const std::vector<std::uint8_t> &fram =
            std::as_const(sys).fram().data();
        const soc::DirtyPages &dirty = sys.framDirtyPages();
        const std::uint64_t key =
            soc::PagedImage::keyOf(fram, fork.fram, dirty);
        const RecoveryMemo *cached = nullptr;
        {
            std::lock_guard<std::mutex> lock(memo_mu_);
            const auto it = memo_.find(key);
            if (it != memo_.end())
                cached = &it->second;
        }
        // Entries are immutable and never erased, and map nodes do not
        // move, so the check can run outside the lock.
        if (cached && cached->image.matches(fram, fork.fram, dirty)) {
            memo_hits_.fetch_add(1, std::memory_order_relaxed);
            out.finished = cached->finished;
            out.result = cached->result;
            out.resultCorrect =
                out.finished && out.result == prog.expected;
            return out;
        }
        RecoveryMemo memo;
        memo.image.captureDirty(fram, fork.fram, dirty);
        *bench.volts = config.stableVolts;
        sys.powerOn();
        sys.run(config.recoveryCycles);
        memo.finished = sys.appFinished();
        memo.result = memo.finished ? sys.guestResult(prog) : 0;
        out.finished = memo.finished;
        out.result = memo.result;
        out.resultCorrect = out.finished && out.result == prog.expected;
        {
            // emplace keeps the first entry on a race: both racers
            // computed the same deterministic verdict anyway.
            std::lock_guard<std::mutex> lock(memo_mu_);
            memo_.emplace(key, std::move(memo));
        }
        return out;
    }

    *bench.volts = config.stableVolts;
    sys.powerOn();
    sys.run(config.recoveryCycles);
    out.finished = sys.appFinished();
    out.result = out.finished ? sys.guestResult(prog) : 0;
    out.resultCorrect = out.finished && out.result == prog.expected;
    return out;
}

std::vector<std::uint32_t>
TortureRig::killSitePcs(const std::vector<PowerKill> &kills) const
{
    std::vector<std::uint32_t> pcs(kills.size(), kNoKillSite);
    for (std::size_t i = 0; i < kills.size(); ++i) {
        const auto it = probeStepAt(kills[i].cycle);
        if (it != golden_->probeSteps.end())
            pcs[i] = it->pcBefore;
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
    images.reserve(golden_->snapshots.size() * 2 + 16);
    for (const GoldenRun::Snapshot &g : golden_->snapshots) {
        images.push_back(&g.state.fram);
        images.push_back(&g.state.sram);
    }
    std::lock_guard<std::mutex> lock(memo_mu_);
    for (const auto &entry : memo_)
        images.push_back(&entry.second.image);
    return soc::distinctPageBytes(images);
}

std::vector<TortureOutcome>
TortureRig::runKillsPruned(const std::vector<PowerKill> &kills,
                           const InjectionPointMap &map,
                           util::ThreadPool *pool, PruneStats *stats)
{
    PruneStats st;
    st.totalKills = kills.size();

    // Slot i of `exec` is the kills[] index replayed for group i;
    // outcome_slot maps every input kill to its group's slot.
    std::vector<std::size_t> exec;
    std::vector<std::size_t> outcome_slot(kills.size(), 0);
    std::map<std::pair<std::uint64_t, bool>, std::size_t> groups;
    bool have_clean = false;
    std::size_t clean_slot = 0;

    for (std::size_t i = 0; i < kills.size(); ++i) {
        const auto it = probeStepAt(kills[i].cycle);
        if (it == golden_->probeSteps.end()) {
            // Never fires: every such kill replays the fault-free
            // schedule; one representative covers them all.
            ++st.neverFires;
            if (!have_clean) {
                have_clean = true;
                clean_slot = exec.size();
                exec.push_back(i);
            } else {
                ++st.skippedKills;
            }
            outcome_slot[i] = clean_slot;
            continue;
        }
        if (it->wrote || !map.prunable(it->pcBefore)) {
            // The killing instruction may mutate FRAM (statically
            // vulnerable, unmapped, or dynamically observed writing):
            // always replay it.
            ++st.vulnerableKills;
            outcome_slot[i] = exec.size();
            exec.push_back(i);
            continue;
        }
        const auto key = std::make_pair(it->bytesWritten, it->finished);
        const auto ins = groups.emplace(key, exec.size());
        if (ins.second)
            exec.push_back(i);
        else
            ++st.skippedKills;
        outcome_slot[i] = ins.first->second;
    }
    st.executedKills = exec.size();

    std::vector<PowerKill> replayed;
    replayed.reserve(exec.size());
    for (const std::size_t idx : exec)
        replayed.push_back(kills[idx]);
    const std::vector<TortureOutcome> outs = runKills(replayed, pool);

    std::vector<TortureOutcome> result(kills.size());
    for (std::size_t i = 0; i < kills.size(); ++i)
        result[i] = outs[outcome_slot[i]];
    if (stats)
        *stats = st;
    return result;
}

} // namespace fault
} // namespace fs
