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

std::uint64_t
snapshotStrideFor(const TortureConfig &config)
{
    // 0 is a valid stride (snapshot every checkpoint), so garbage must
    // fall back to the config default, not parse to 0 silently.
    return util::envU64("FS_SNAPSHOT_STRIDE", config.snapshotStride, 0,
                        1u << 30);
}

} // namespace

struct TortureRig::Bench {
    std::shared_ptr<double> volts = std::make_shared<double>(0.0);
    std::unique_ptr<soc::Soc> soc;
};

TortureRig::TortureRig(soc::GuestProgram prog, TortureConfig config)
    : monitor_(harvest::makeFsLowPower()), prog_(std::move(prog)),
      config_(config)
{
    // Same threshold recipe as the integration fixtures: enough
    // headroom above the core minimum to finish a commit at full
    // load, padded by the monitor's resolution.
    harvest::SystemLoad load;
    const double capacitance = harvest::ScenarioParams{}.capacitance;
    v_ckpt_ = load.coreVmin() +
              load.activeCurrentWith(*monitor_) *
                  config_.headroomSeconds / capacitance +
              monitor_->resolution();
    threshold_ = monitor_->countThresholdFor(v_ckpt_);
}

TortureRig::~TortureRig() = default;

std::unique_ptr<TortureRig::Bench>
TortureRig::build() const
{
    auto bench = std::make_unique<Bench>();
    soc::CheckpointLayout layout;
    layout.sramSize = config_.sramSize;
    bench->soc = std::make_unique<soc::Soc>(
        *monitor_, [v = bench->volts](double) { return *v; }, layout);
    bench->soc->loadRuntime(threshold_);
    bench->soc->loadGuest(prog_);
    return bench;
}

std::unique_ptr<TortureRig::Bench>
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
    return build();
}

void
TortureRig::releaseBench(std::unique_ptr<Bench> bench)
{
    std::lock_guard<std::mutex> lock(bench_mu_);
    bench_pool_.push_back(std::move(bench));
}

void
TortureRig::instrument()
{
    if (instrumented_)
        return;
    instrumented_ = true;

    auto bench = build();
    soc::Soc &sys = *bench->soc;
    std::uint32_t last_seq = 0;
    sys.powerOn();
    for (std::size_t cycle = 0; cycle < config_.maxPowerCycles; ++cycle) {
        *bench->volts = config_.stableVolts;
        sys.run(config_.stableCycles);
        if (sys.appFinished())
            break;
        // Brown-out phase, stepped one instruction at a time so the
        // trap entry and the commit store land on exact cycle counts.
        // The full budget is always consumed (the handler parks in
        // wfi after committing) so kill runs stay cycle-aligned.
        *bench->volts = v_ckpt_ - 0.02;
        bool saw_trap = false;
        CommitWindow window;
        std::uint64_t spent = 0;
        while (spent < config_.lowCycles && !sys.hart().halted()) {
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
                    windows_.push_back(window);
                }
            }
        }
        if (sys.appFinished())
            break;
        FS_ASSERT(window.end != 0,
                  "brown-out phase never committed a checkpoint");
        sys.powerFail();
        sys.powerOn();
    }
    FS_ASSERT(sys.appFinished(),
              "fault-free torture schedule never finished the app");
    FS_ASSERT(sys.guestResult(prog_) == prog_.expected,
              "fault-free torture schedule got a wrong answer");
    clean_cycles_ = sys.totalCycles();
}

std::uint64_t
TortureRig::cleanRunCycles()
{
    instrument();
    return clean_cycles_;
}

std::size_t
TortureRig::checkpointCount()
{
    instrument();
    return windows_.size();
}

CommitWindow
TortureRig::commitWindow(std::size_t which)
{
    instrument();
    FS_ASSERT(which < windows_.size(), "no such commit window");
    return windows_[which];
}

bool
TortureRig::snapshotsActive() const
{
    return !snapshotsDisabledByEnv() && snapshotStrideFor(config_) > 0;
}

TortureOutcome
TortureRig::runKill(const PowerKill &kill) const
{
    TortureOutcome out;
    auto bench = build();
    soc::Soc &sys = *bench->soc;

    FaultPlan plan;
    plan.kills.push_back(kill);
    FaultInjector injector(plan);
    sys.setFaultInjector(&injector);

    sys.powerOn();
    for (std::size_t cycle = 0; cycle < config_.maxPowerCycles; ++cycle) {
        *bench->volts = config_.stableVolts;
        sys.run(config_.stableCycles);
        if (sys.appFinished() || sys.faultKilled())
            break;
        *bench->volts = v_ckpt_ - 0.02;
        sys.run(config_.lowCycles);
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
        *bench->volts = config_.stableVolts;
        sys.powerOn();
        sys.run(config_.recoveryCycles);
    }
    out.finished = sys.appFinished();
    out.result = out.finished ? sys.guestResult(prog_) : 0;
    out.resultCorrect = out.finished && out.result == prog_.expected;
    return out;
}

std::vector<TortureOutcome>
TortureRig::runKills(const std::vector<PowerKill> &kills,
                     util::ThreadPool *pool)
{
    if (snapshotsActive())
        return runKillsForked(kills, pool);
    util::ThreadPool &p = pool ? *pool : util::ThreadPool::shared();
    return p.parallelMap(kills.size(), [&](std::size_t i) {
        return runKill(kills[i]);
    });
}

void
TortureRig::goldenPass(bool record_probe, bool capture)
{
    // Replay runKill()'s exact schedule with no injector, one step at
    // a time (run() is documented bit-identical to the step loop), so
    // probe_steps_[i] is precisely the i-th instruction every kill
    // run executes before its kill fires, and every snapshot lands on
    // an instruction boundary the kill runs also cross.
    auto bench = build();
    soc::Soc &sys = *bench->soc;

    // Capture targets in total-cycle coordinates: boot, every commit
    // window boundary, and a fixed stride across the whole run.
    std::vector<std::uint64_t> targets;
    std::size_t next_target = 0;
    if (capture) {
        targets.push_back(0);
        for (const CommitWindow &w : windows_) {
            targets.push_back(w.begin);
            targets.push_back(w.end);
        }
        const std::uint64_t stride = snapshotStrideFor(config_);
        for (std::uint64_t c = stride; c < clean_cycles_; c += stride)
            targets.push_back(c);
        std::sort(targets.begin(), targets.end());
        targets.erase(std::unique(targets.begin(), targets.end()),
                      targets.end());
        snapshots_.reserve(targets.size());
    }

    const auto maybe_capture = [&](std::size_t power_cycle, int phase_id,
                                   std::uint64_t spent) {
        if (!capture || next_target >= targets.size() ||
            sys.totalCycles() < targets[next_target])
            return;
        while (next_target < targets.size() &&
               targets[next_target] <= sys.totalCycles())
            ++next_target;
        GoldenSnapshot g;
        g.state = sys.saveSnapshot(
            snapshots_.empty() ? nullptr : &snapshots_.back().state);
        g.powerCycle = power_cycle;
        g.phase = phase_id;
        g.spentInPhase = spent;
        snapshots_.push_back(std::move(g));
    };

    const auto phase = [&](std::size_t power_cycle, int phase_id,
                           std::uint64_t budget) {
        std::uint64_t spent = 0;
        while (!sys.hart().halted() && spent < budget) {
            ProbeStep rec;
            rec.pcBefore = sys.hart().pc();
            const std::uint64_t before = sys.totalCycles();
            const std::uint64_t writes = sys.fram().writeCount();
            sys.step();
            spent += sys.totalCycles() - before;
            if (record_probe) {
                rec.cycleAfter = sys.totalCycles();
                rec.wrote = sys.fram().writeCount() != writes;
                rec.bytesWritten = sys.fram().bytesWritten();
                rec.finished = sys.appFinished();
                probe_steps_.push_back(rec);
            }
            maybe_capture(power_cycle, phase_id, spent);
        }
    };
    sys.powerOn();
    maybe_capture(0, 0, 0); // boot snapshot at cycle 0
    for (std::size_t cycle = 0; cycle < config_.maxPowerCycles; ++cycle) {
        *bench->volts = config_.stableVolts;
        phase(cycle, 0, config_.stableCycles);
        if (sys.appFinished())
            break;
        *bench->volts = v_ckpt_ - 0.02;
        phase(cycle, 1, config_.lowCycles);
        if (sys.appFinished())
            break;
        sys.powerFail();
        sys.powerOn();
    }
    FS_ASSERT(sys.appFinished(),
              "probe schedule never finished the app");
}

void
TortureRig::probeSchedule()
{
    const bool want_probe = !probed_;
    const bool want_capture = snapshotsActive() && snapshots_.empty();
    if (!want_probe && !want_capture)
        return;
    instrument(); // commit windows feed the capture targets
    goldenPass(want_probe, want_capture);
    probed_ = true;
}

const TortureRig::GoldenSnapshot &
TortureRig::snapshotBefore(std::uint64_t kill_cycle) const
{
    // Strictly before: a snapshot taken at exactly kill_cycle already
    // executed the instruction the kill fires at the end of (kills
    // are polled after each step), so forking there would miss it.
    const auto it = std::lower_bound(
        snapshots_.begin(), snapshots_.end(), kill_cycle,
        [](const GoldenSnapshot &g, std::uint64_t c) {
            return g.state.totalCycles < c;
        });
    if (it == snapshots_.begin())
        return snapshots_.front(); // boot snapshot (cycle 0)
    return *(it - 1);
}

std::vector<TortureOutcome>
TortureRig::runKillsForked(const std::vector<PowerKill> &kills,
                           util::ThreadPool *pool)
{
    probeSchedule(); // golden snapshots + probe steps, one pass
    util::ThreadPool &p = pool ? *pool : util::ThreadPool::shared();
    return p.parallelMap(kills.size(), [&](std::size_t i) {
        return runKillForked(kills[i]);
    });
}

TortureOutcome
TortureRig::runKillForked(const PowerKill &kill)
{
    auto bench = acquireBench();
    soc::Soc &sys = *bench->soc;

    FaultPlan plan;
    plan.kills.push_back(kill);
    FaultInjector injector(plan);

    const GoldenSnapshot &snap = snapshotBefore(kill.cycle);
    sys.restoreSnapshot(snap.state);
    // Attaching the injector after the restore is exact: a kill-only
    // plan's write filter never tears (it only advances a cursor no
    // kill consults) and the kill poll compares absolute cycles, so
    // the pre-kill trajectory is untouched either way -- the same
    // invariant the fault-free probe replay rests on.
    sys.setFaultInjector(&injector);

    for (std::size_t cycle = snap.powerCycle;
         cycle < config_.maxPowerCycles; ++cycle) {
        const bool resuming = cycle == snap.powerCycle;
        if (!resuming || snap.phase == 0) {
            const std::uint64_t spent =
                resuming && snap.phase == 0 ? snap.spentInPhase : 0;
            *bench->volts = config_.stableVolts;
            sys.run(config_.stableCycles -
                    std::min(config_.stableCycles, spent));
            if (sys.appFinished() || sys.faultKilled())
                break;
        }
        const std::uint64_t spent =
            resuming && snap.phase == 1 ? snap.spentInPhase : 0;
        *bench->volts = v_ckpt_ - 0.02;
        sys.run(config_.lowCycles - std::min(config_.lowCycles, spent));
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
TortureRig::finishOutcome(Bench &bench, FaultInjector &injector,
                          const soc::Snapshot &fork)
{
    soc::Soc &sys = *bench.soc;
    TortureOutcome out;
    out.killed = sys.faultKilled();
    out.killTore = injector.log().killTears > 0;
    inspectSlots(sys, out);

    if (!out.killed) {
        out.finished = sys.appFinished();
        out.result = out.finished ? sys.guestResult(prog_) : 0;
        out.resultCorrect = out.finished && out.result == prog_.expected;
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
                out.finished && out.result == prog_.expected;
            return out;
        }
        RecoveryMemo memo;
        memo.image.captureDirty(fram, fork.fram, dirty);
        *bench.volts = config_.stableVolts;
        sys.powerOn();
        sys.run(config_.recoveryCycles);
        memo.finished = sys.appFinished();
        memo.result = memo.finished ? sys.guestResult(prog_) : 0;
        out.finished = memo.finished;
        out.result = memo.result;
        out.resultCorrect = out.finished && out.result == prog_.expected;
        {
            // emplace keeps the first entry on a race: both racers
            // computed the same deterministic verdict anyway.
            std::lock_guard<std::mutex> lock(memo_mu_);
            memo_.emplace(key, std::move(memo));
        }
        return out;
    }

    *bench.volts = config_.stableVolts;
    sys.powerOn();
    sys.run(config_.recoveryCycles);
    out.finished = sys.appFinished();
    out.result = out.finished ? sys.guestResult(prog_) : 0;
    out.resultCorrect = out.finished && out.result == prog_.expected;
    return out;
}

std::vector<std::uint32_t>
TortureRig::killSitePcs(const std::vector<PowerKill> &kills)
{
    probeSchedule();
    std::vector<std::uint32_t> pcs(kills.size(), kNoKillSite);
    for (std::size_t i = 0; i < kills.size(); ++i) {
        const auto it = std::lower_bound(
            probe_steps_.begin(), probe_steps_.end(), kills[i].cycle,
            [](const ProbeStep &s, std::uint64_t c) {
                return s.cycleAfter < c;
            });
        if (it != probe_steps_.end())
            pcs[i] = it->pcBefore;
    }
    return pcs;
}

ConvergeStats
TortureRig::convergeStats() const
{
    ConvergeStats st;
    st.goldenSnapshots = snapshots_.size();
    std::lock_guard<std::mutex> lock(memo_mu_);
    st.memoEntries = memo_.size();
    st.memoHits = memo_hits_.load(std::memory_order_relaxed);
    return st;
}

std::size_t
TortureRig::snapshotMemoryBytes() const
{
    std::vector<const soc::PagedImage *> images;
    images.reserve(snapshots_.size() * 2 + 16);
    for (const GoldenSnapshot &g : snapshots_) {
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
    probeSchedule();

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
        // The kill fires at the end of the first step whose cycle
        // counter reaches kill.cycle (Soc::step polls killDue after
        // executing).
        const auto it = std::lower_bound(
            probe_steps_.begin(), probe_steps_.end(), kills[i].cycle,
            [](const ProbeStep &s, std::uint64_t c) {
                return s.cycleAfter < c;
            });
        if (it == probe_steps_.end()) {
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
