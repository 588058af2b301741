#include "serve/engine.h"

#include <cmath>
#include <map>
#include <unordered_map>

#include "analysis/firmware_linter.h"
#include "analysis/lint_images.h"
#include "circuit/ring_oscillator.h"
#include "circuit/technology.h"
#include "core/performance_model.h"
#include "dse/fs_design_space.h"
#include "fault/torture_rig.h"
#include "riscv/assembler.h"
#include "riscv/hart.h"
#include "soc/guest_programs.h"
#include "soc/soc.h"
#include "swarm/swarm.h"
#include "util/env.h"
#include "util/parallel.h"

namespace fs {
namespace serve {

namespace {

const circuit::Technology *
findTech(const std::string &name)
{
    for (const circuit::Technology *tech : circuit::Technology::all())
        if (tech->name() == name)
            return tech;
    return nullptr;
}

Response
badRequest(std::string message)
{
    return ErrorResult{ErrorCode::kBadRequest, std::move(message)};
}

/**
 * Materialize a workload spec. Sizes are capped so a hostile or
 * fat-fingered request cannot wedge the daemon in one job.
 */
bool
buildWorkload(const WorkloadSpec &spec, soc::GuestProgram &out,
              std::string &err)
{
    switch (spec.kind) {
      case WorkloadSpec::Kind::kCrc32:
        if (spec.a == 0 || spec.a > 65536) {
            err = "crc32 length out of range [1, 65536]";
            return false;
        }
        out = soc::makeCrc32Program(spec.a, spec.seed);
        return true;
      case WorkloadSpec::Kind::kFir:
        if (spec.a == 0 || spec.a > 256 || spec.b == 0 ||
            spec.b > 65536) {
            err = "fir taps/samples out of range";
            return false;
        }
        out = soc::makeFirProgram(spec.a, spec.b, spec.seed);
        return true;
      case WorkloadSpec::Kind::kSort:
        if (spec.a == 0 || spec.a > 4096) {
            err = "sort size out of range [1, 4096]";
            return false;
        }
        out = soc::makeSortProgram(spec.a, spec.seed);
        return true;
      case WorkloadSpec::Kind::kMatmul:
        if (spec.a == 0 || spec.a > 64) {
            err = "matmul dimension out of range [1, 64]";
            return false;
        }
        out = soc::makeMatmulProgram(spec.a, spec.seed);
        return true;
    }
    err = "unknown workload kind";
    return false;
}

/** The power schedule a torture job asks for. */
fault::TortureConfig
tortureConfig(const TortureJob &job)
{
    fault::TortureConfig config;
    config.sramSize = job.sramSize;
    config.stableCycles = job.stableCycles;
    config.lowCycles = job.lowCycles;
    return config;
}

} // namespace

TortureResult
tortureResult(const fault::GoldenRun &run,
              const std::vector<fault::TortureOutcome> &outcomes,
              bool coverage)
{
    TortureResult res;
    res.cleanCycles = run.cleanCycles;
    res.checkpoints = std::uint32_t(run.windows.size());
    res.checkpointVolts = run.vCkpt;
    res.points = std::uint32_t(outcomes.size());
    res.outcomeFlags.reserve(outcomes.size());
    res.results.reserve(outcomes.size());
    for (const fault::TortureOutcome &out : outcomes) {
        std::uint8_t flags = 0;
        if (out.killed)
            flags |= kOutcomeKilled;
        if (out.killTore)
            flags |= kOutcomeKillTore;
        if (out.coldRestart)
            flags |= kOutcomeColdRestart;
        if (out.finished)
            flags |= kOutcomeFinished;
        if (out.resultCorrect)
            flags |= kOutcomeCorrect;
        res.outcomeFlags.push_back(flags);
        res.results.push_back(out.result);
        res.killed += out.killed ? 1 : 0;
        res.killTears += out.killTore ? 1 : 0;
        res.coldRestarts += out.killed && out.coldRestart ? 1 : 0;
        res.tornRestores += std::uint32_t(out.tornSlots);
        res.correct += out.resultCorrect ? 1 : 0;
        res.incorrect += out.resultCorrect ? 0 : 1;
    }
    if (!coverage)
        return res;

    // Attribute every verdict to the instruction the kill lands on,
    // annotated with the static pruning map's class/rank so the
    // dynamic coverage lines up with fs-lint's ranking.
    const analysis::LintReport lint = analysis::lintGuestProgram(run.prog);
    std::map<std::uint32_t, TortureCoverageWire> by_addr;
    for (const fault::TortureOutcome &out : outcomes) {
        const std::uint32_t addr =
            out.site == fault::kNoKillSite ? kNoCoverageSite : out.site;
        TortureCoverageWire &c = by_addr[addr];
        if (c.points == 0) {
            c.addr = addr;
            const fault::InjectionPoint *p =
                addr == kNoCoverageSite ? nullptr
                                        : lint.pruningMap.find(addr);
            // Unmapped addresses must be treated as vulnerable (the
            // map's own contract); rank 0 marks them unranked.
            c.cls =
                std::uint8_t(p ? p->cls : fault::PointClass::kVulnerable);
            c.rank = p ? p->rank : 0;
        }
        c.points += 1;
        c.killed += out.killed ? 1 : 0;
        c.correct += out.resultCorrect ? 1 : 0;
        c.incorrect += out.resultCorrect ? 0 : 1;
        c.coldRestarts += out.killed && out.coldRestart ? 1 : 0;
        c.killTears += out.killTore ? 1 : 0;
    }
    res.coverage.reserve(by_addr.size());
    for (const auto &entry : by_addr)
        res.coverage.push_back(entry.second);
    return res;
}

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(Options opts)
    : opts_(opts), cache_(opts.cacheBytes, opts.spillDir)
{
    if (opts_.threads > 0)
        owned_pool_ = std::make_unique<util::ThreadPool>(opts_.threads);
}

Engine::~Engine() = default;

util::ThreadPool &
Engine::pool() const
{
    return owned_pool_ ? *owned_pool_ : util::ThreadPool::shared();
}

std::size_t
Engine::threadCount() const
{
    return pool().threadCount();
}

Response
Engine::executeRoSweep(const RoSweepJob &job) const
{
    const circuit::Technology *tech = findTech(job.tech);
    if (!tech)
        return badRequest("unknown technology \"" + job.tech + "\"");
    if (job.stages < 3 || job.stages % 2 == 0 || job.stages > 1001)
        return badRequest("stages must be odd and in [3, 1001]");
    if (job.cell > 1)
        return badRequest("unknown inverter cell");
    if (!(job.vStep > 0.0) || job.vEnd < job.vStart)
        return badRequest("bad voltage grid");
    const std::size_t points = std::size_t(
        std::floor((job.vEnd - job.vStart) / job.vStep + 1e-9)) + 1;
    if (points > 1'000'000)
        return badRequest("voltage grid too fine (> 1e6 points)");

    const circuit::RingOscillator ro(
        *tech, job.stages, job.speed,
        circuit::InverterCell(job.cell));
    RoSweepResult res;
    res.frequenciesHz.resize(points);
    for (std::size_t i = 0; i < points; ++i) {
        const double v = job.vStart + double(i) * job.vStep;
        res.frequenciesHz[i] = ro.frequency(v, job.tempC);
    }
    return res;
}

Response
Engine::executeDesignPoint(const DesignPointJob &job) const
{
    const circuit::Technology *tech = findTech(job.tech);
    if (!tech)
        return badRequest("unknown technology \"" + job.tech + "\"");
    if (job.config.strategy > 3)
        return badRequest("unknown calibration strategy");
    const core::FsConfig cfg = fromWire(job.config);
    const std::string violation = cfg.validate();
    if (!violation.empty()) {
        // Out-of-bounds points are reportable, not errors: answer
        // with an unrealizable Performance the way the DSE's
        // rejection filter would.
        core::Performance perf;
        perf.rejectReason = violation;
        return DesignPointResult{perf};
    }
    const core::PerformanceModel model(*tech);
    return DesignPointResult{model.evaluate(cfg)};
}

Response
Engine::executeDseShard(const DseShardJob &job) const
{
    const circuit::Technology *tech = findTech(job.tech);
    if (!tech)
        return badRequest("unknown technology \"" + job.tech + "\"");
    if (job.populationSize < 4 || job.populationSize > 4096)
        return badRequest("population size out of range [4, 4096]");
    if (job.generations > 10'000)
        return badRequest("generation count out of range [0, 10000]");

    dse::Nsga2::Options opts;
    opts.populationSize = job.populationSize;
    opts.generations = job.generations;
    opts.seed = job.seed;
    opts.threads = opts_.threads; // 0 = shared pool, same semantics
    const std::vector<dse::FsParetoPoint> front =
        dse::exploreDesignSpace(*tech, opts, job.fixedRate,
                                job.exploreDivider != 0);
    DseShardResult res;
    res.front.reserve(front.size());
    for (const dse::FsParetoPoint &p : front)
        res.front.push_back({toWire(p.config), p.perf});
    return res;
}

/** A golden run plus the workload it was built from. */
struct Engine::GoldenEntry {
    WorkloadSpec workload;
    std::shared_ptr<const fault::GoldenRun> run;

    /** True when this entry is the golden run `job` would build. */
    bool serves(const TortureJob &job) const
    {
        const fault::TortureConfig &c = run->config;
        const fault::TortureConfig want = tortureConfig(job);
        return workload.kind == job.workload.kind &&
               workload.a == job.workload.a &&
               workload.b == job.workload.b &&
               workload.seed == job.workload.seed &&
               c.sramSize == want.sramSize &&
               c.stableCycles == want.stableCycles &&
               c.lowCycles == want.lowCycles;
    }
};

std::shared_ptr<const Engine::GoldenEntry>
Engine::goldenFor(const TortureJob &job, soc::GuestProgram prog,
                  std::string &err) const
{
    // Only exhaustive point-range shards are retained: a campaign's
    // shards share one golden run, while a sampled job is a one-off
    // and retaining it would only pin its snapshots.
    const bool retain = job.exhaustivePoints > 0;
    if (retain) {
        std::lock_guard<std::mutex> lock(golden_mu_);
        if (golden_ && golden_->serves(job))
            return golden_;
    }

    auto entry = std::make_shared<GoldenEntry>();
    entry->workload = job.workload;
    fault::GoldenError error = fault::GoldenError::kNone;
    entry->run =
        fault::GoldenRun::build(std::move(prog), tortureConfig(job), &error);
    if (!entry->run) {
        // A schedule that cannot anchor a campaign is the request's
        // fault, not the daemon's; failed builds are never retained.
        err = std::string("torture schedule: ") +
              fault::goldenErrorMessage(error);
        return nullptr;
    }
    if (retain) {
        std::lock_guard<std::mutex> lock(golden_mu_);
        golden_ = entry;
    }
    return entry;
}

Response
Engine::executeTorture(const TortureJob &job) const
{
    soc::GuestProgram prog;
    std::string err;
    if (!buildWorkload(job.workload, prog, err))
        return badRequest(std::move(err));
    if (job.sramSize < 256 || job.sramSize > (1u << 20))
        return badRequest("sram size out of range [256, 1 MiB]");
    if (std::uint64_t(job.killsPerWindow) + job.randomKills > 100'000)
        return badRequest("kill budget too large (> 1e5)");
    if (job.exhaustivePoints > 100'000'000)
        return badRequest("exhaustive campaign too large (> 1e8)");
    // Compared term by term so no product can overflow.
    const std::uint64_t power_cycles = tortureConfig(job).maxPowerCycles;
    const std::uint64_t per_cycle = kMaxTortureScheduleCycles / power_cycles;
    if (job.stableCycles > per_cycle || job.lowCycles > per_cycle ||
        job.stableCycles + job.lowCycles > per_cycle)
        return badRequest("power schedule too long (> " +
                          std::to_string(kMaxTortureScheduleCycles) +
                          " cycles over " + std::to_string(power_cycles) +
                          " power cycles)");

    std::uint64_t count = 0; // points of an exhaustive shard
    if (job.exhaustivePoints > 0) {
        if (job.pointOffset >= job.exhaustivePoints)
            return badRequest("point offset beyond the campaign");
        count = job.pointCount != 0 ? job.pointCount
                                    : job.exhaustivePoints - job.pointOffset;
        if (job.pointOffset + count > job.exhaustivePoints)
            return badRequest("point range beyond the campaign");
        if (count > 100'000)
            return badRequest("shard too large (> 1e5 points); split "
                              "the range");
    }

    const std::shared_ptr<const GoldenEntry> golden =
        goldenFor(job, std::move(prog), err);
    if (!golden)
        return badRequest(std::move(err));
    const fault::GoldenRun &run = *golden->run;
    // Exhaustive point-range shard: point i's kill is a pure function
    // of (seed, i), so any sharding of [0, exhaustivePoints) grades the
    // exact same kills as the unsharded campaign. Sampled job: every
    // draw comes from one seeded generator in a fixed order. Either
    // way the kills are fixed before the fan-out, so the outcomes are
    // bit-identical at any thread count.
    const std::vector<fault::PowerKill> kills =
        job.exhaustivePoints > 0
            ? run.pointKills(job.seed, job.exhaustivePoints,
                             job.pointOffset, count)
            : run.sampledKills(job.killsPerWindow, job.randomKills,
                               job.seed);
    fault::TortureRig rig(golden->run);
    return tortureResult(run, rig.runKills(kills, &pool()),
                         job.coverageMap != 0);
}

Response
Engine::executeGuestRun(const GuestRunJob &job) const
{
    soc::GuestProgram prog;
    std::string err;
    if (!buildWorkload(job.workload, prog, err))
        return badRequest(std::move(err));

    // Bare FRAM+SRAM machine (no peripheral, no checkpoint runtime):
    // cold-start stub enters the app via jalr, halts on return.
    soc::CheckpointLayout layout;
    soc::Nvm fram(layout.framSize);
    riscv::Ram sram(layout.sramSize);
    soc::Bus bus;
    bus.attach("fram", layout.framBase, fram);
    bus.attach("sram", layout.sramBase, sram);
    riscv::Hart hart(bus);
    hart.setTraceCacheEnabled(job.traceCache != 0);

    riscv::Assembler as(layout.framBase);
    as.li(riscv::kSp, std::int32_t(layout.sramBase + layout.sramSize));
    as.li(riscv::kT0, std::int32_t(layout.appBase));
    as.emit(riscv::jalr(riscv::kRa, riscv::kT0, 0));
    as.emit(riscv::ebreak());
    fram.loadWords(0, as.finalize());
    fram.loadWords(layout.appBase - layout.framBase, prog.code);
    for (std::size_t i = 0; i < prog.data.size(); ++i)
        fram.data()[prog.dataAddr - layout.framBase + i] =
            prog.data[i];

    hart.reset(layout.framBase);
    while (!hart.halted())
        hart.run(1u << 20);

    GuestRunResult res;
    res.name = prog.name;
    res.result = fram.read(prog.resultAddr - layout.framBase, 4);
    res.expected = prog.expected;
    res.correct = res.result == prog.expected ? 1 : 0;
    res.instructions = hart.instructionsRetired();
    return res;
}

Response
Engine::executeLintImage(const LintImageJob &job) const
{
    if (job.name.empty() || job.name.size() > 256)
        return badRequest("image name length out of range [1, 256]");
    if (job.code.empty() || job.code.size() > (1u << 20))
        return badRequest("image size out of range [1, 1Mi] words");

    // The registry is deterministic, so one materialization serves
    // every request (and every worker thread).
    static const std::vector<analysis::LintImage> images =
        analysis::lintImages();
    const analysis::LintImage *image =
        analysis::findLintImage(images, job.name);
    if (!image)
        return badRequest("unknown lint image \"" + job.name + "\"");
    if (image->code != job.code)
        return badRequest("image \"" + job.name +
                          "\" does not match this server's registry");

    const analysis::LintReport report =
        analysis::lintImageDeterministic(*image);
    LintImageResult res;
    res.image = report.image;
    res.errors = std::uint32_t(report.count(analysis::Severity::kError));
    res.warnings =
        std::uint32_t(report.count(analysis::Severity::kWarning));
    res.notes = std::uint32_t(report.count(analysis::Severity::kInfo));
    res.worstCaseCommitCycles = report.worstCaseCommitCycles;
    res.budgetCycles = report.budgetCycles;
    res.staticEnergyBound = report.staticEnergyBound;
    res.energyBudgetJoules = report.energyBudgetJoules;
    res.reportJson = report.json();
    if (job.emitPruning != 0 && !report.pruningMap.empty())
        res.pruningJson = report.pruningMap.json();
    return res;
}

Response
Engine::executeSwarm(const swarm::SwarmConfig &cfg) const
{
    // FS_SWARM_MAX_DEVICES caps the fleet a single request may ask
    // this worker to simulate (hostile or fat-fingered requests).
    const std::uint64_t max_devices = util::envU64(
        "FS_SWARM_MAX_DEVICES", 2'000'000, 1, 100'000'000);
    if (cfg.deviceCount == 0 || cfg.deviceCount > max_devices)
        return badRequest("deviceCount out of range [1, " +
                          std::to_string(max_devices) + "]");
    if (cfg.traceCsv.size() > (4u << 20))
        return badRequest("traceCsv too large (> 4 MiB)");
    const std::string reason = swarm::validateConfig(cfg);
    if (!reason.empty())
        return badRequest("swarm: " + reason);
    SwarmResult res;
    res.agg = swarm::runSwarmShard(cfg, pool());
    return res;
}

Response
Engine::execute(const Request &req) const
{
    if (const auto *ro = std::get_if<RoSweepJob>(&req))
        return executeRoSweep(*ro);
    if (const auto *dp = std::get_if<DesignPointJob>(&req))
        return executeDesignPoint(*dp);
    if (const auto *dse = std::get_if<DseShardJob>(&req))
        return executeDseShard(*dse);
    if (const auto *t = std::get_if<TortureJob>(&req))
        return executeTorture(*t);
    if (const auto *g = std::get_if<GuestRunJob>(&req))
        return executeGuestRun(*g);
    if (const auto *s = std::get_if<swarm::SwarmConfig>(&req))
        return executeSwarm(*s);
    return executeLintImage(std::get<LintImageJob>(req));
}

ServedResponse
Engine::serve(const Request &req)
{
    const MsgKind kind = requestKind(req);
    const std::vector<std::uint8_t> payload =
        encodeRequestPayload(req);
    ServedResponse out;
    out.key = requestKey(kind, payload);
    if (ResultCache::enabled() &&
        cache_.lookup(out.key, out.kind, out.payload)) {
        out.fromCache = true;
        return out;
    }
    const Response resp = execute(req);
    out.kind = responseKind(resp);
    out.payload = encodeResponsePayload(resp);
    if (ResultCache::enabled() &&
        !std::holds_alternative<ErrorResult>(resp))
        cache_.insert(out.key, out.kind, out.payload);
    return out;
}

ServedResponse
Engine::serve(MsgKind kind, const std::vector<std::uint8_t> &payload)
{
    Request req;
    std::string err;
    if (!decodeRequestPayload(kind, payload.data(), payload.size(),
                              req, err)) {
        ServedResponse out;
        out.key = requestKey(kind, payload);
        out.kind = MsgKind::kErrorReply;
        out.payload = encodeResponsePayload(
            ErrorResult{ErrorCode::kBadRequest, std::move(err)});
        return out;
    }
    // decode enforces full consumption and encode is canonical, so
    // re-encoding the decoded request reproduces `payload` exactly --
    // the cache key computed inside serve(req) matches this payload.
    return serve(req);
}

std::vector<ServedResponse>
Engine::serveBatch(const std::vector<Request> &batch)
{
    std::vector<ServedResponse> out;
    out.reserve(batch.size());
    std::unordered_map<std::uint64_t, std::size_t> first_of_key;
    for (const Request &req : batch) {
        const std::uint64_t key =
            requestKey(requestKind(req), encodeRequestPayload(req));
        const auto it = first_of_key.find(key);
        if (it != first_of_key.end()) {
            // Within-batch dedupe: identical request, identical bytes.
            ServedResponse dup = out[it->second];
            dup.fromCache = true;
            out.push_back(std::move(dup));
            continue;
        }
        out.push_back(serve(req));
        first_of_key.emplace(key, out.size() - 1);
    }
    return out;
}

} // namespace serve
} // namespace fs
