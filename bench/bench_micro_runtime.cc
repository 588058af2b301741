/**
 * @file
 * Micro-benchmarks (google-benchmark): the host-side cost of the
 * library's hot paths -- transfer-function evaluation, count
 * conversion for each strategy, performance-model evaluation, ISS
 * instruction throughput, and one NSGA-II generation.
 *
 * After the google-benchmark suite, main() runs the guest-workload
 * MIPS harness: every bench workload executes once per rep on a bare
 * FRAM+SRAM SoC on both execution tiers (interpreter, DBT), results
 * checked against the host oracle and each tier's MIPS printed. The
 * aggregate asserts the DBT tier's >= 6x floor over the interpreter
 * (skipped under sanitizers or FS_BENCH_NO_FLOOR), and a
 * `dbt-stats:` JSON line surfaces the tier's translation/chaining
 * counters for CI artifacts.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "calib/error_bounds.h"
#include "core/performance_model.h"
#include "dse/fs_design_space.h"
#include "riscv/assembler.h"
#include "riscv/hart.h"
#include "soc/soc.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/timer.h"

namespace {

using namespace fs;

const circuit::MonitorChain &
chain90()
{
    // 12-bit counter: a 50 us enrollment window at peak frequency
    // must not overflow.
    static const circuit::MonitorChain chain(
        circuit::Technology::node90(), [] {
            circuit::ChainSpec spec;
            spec.counterBits = 12;
            return spec;
        }());
    return chain;
}

void
BM_ChainFrequency(benchmark::State &state)
{
    double v = 1.8;
    for (auto _ : state) {
        benchmark::DoNotOptimize(chain90().frequency(v));
        v = v >= 3.6 ? 1.8 : v + 0.01;
    }
}
BENCHMARK(BM_ChainFrequency);

void
BM_Conversion(benchmark::State &state)
{
    const auto data = calib::enroll(chain90(), 50e-6, 64, 8, 1.8, 3.6);
    const auto conv = calib::makeConverter(
        static_cast<calib::Strategy>(state.range(0)), data, 3);
    std::uint32_t count = 100;
    for (auto _ : state) {
        benchmark::DoNotOptimize(conv->toVoltage(count));
        count = (count + 37) & 0x3ff;
    }
}
BENCHMARK(BM_Conversion)->DenseRange(0, 3)->ArgNames({"strategy"});

void
BM_PerformanceEvaluate(benchmark::State &state)
{
    core::PerformanceModel model(circuit::Technology::node90());
    core::FsConfig cfg;
    for (auto _ : state)
        benchmark::DoNotOptimize(model.evaluate(cfg));
}
BENCHMARK(BM_PerformanceEvaluate);

void
BM_IssThroughput(benchmark::State &state)
{
    // Tight arithmetic loop in guest code, forced onto the pure
    // interpreter path (the honest FS_NO_TRACE_CACHE baseline).
    riscv::Ram ram(4096);
    riscv::Assembler as(0);
    as.li(riscv::kA0, 0);
    as.li(riscv::kA1, 1000000);
    const auto loop = as.newLabel();
    as.bind(loop);
    as.emit(riscv::addi(riscv::kA0, riscv::kA0, 1));
    as.emit(riscv::xor_(riscv::kA2, riscv::kA0, riscv::kA1));
    as.bltTo(riscv::kA0, riscv::kA1, loop);
    ram.loadWords(0, as.finalize());
    riscv::Hart hart(ram);
    hart.setTraceCacheEnabled(false);
    hart.reset(0);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        // Wrap back to the top when the loop exits (pc past the blt).
        if (hart.pc() > 20)
            hart.reset(0);
        hart.step();
        ++instructions;
    }
    state.SetItemsProcessed(std::int64_t(instructions));
}
BENCHMARK(BM_IssThroughput);

void
BM_IssThroughputDbt(benchmark::State &state)
{
    // Same arithmetic kernel through the DBT tier: after warmup the
    // loop runs as chained threaded code. The trailing jump makes the
    // loop endless so chunked execution never falls off the end of
    // the code.
    riscv::Ram ram(4096);
    riscv::Assembler as(0);
    as.li(riscv::kA0, 0);
    as.li(riscv::kA1, 1000000);
    const auto loop = as.newLabel();
    as.bind(loop);
    as.emit(riscv::addi(riscv::kA0, riscv::kA0, 1));
    as.emit(riscv::xor_(riscv::kA2, riscv::kA0, riscv::kA1));
    as.bltTo(riscv::kA0, riscv::kA1, loop);
    as.jTo(loop);
    ram.loadWords(0, as.finalize());
    riscv::Hart hart(ram);
    hart.setTraceCacheEnabled(true);
    hart.reset(0);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        const std::uint64_t before = hart.instructionsRetired();
        hart.run(4096);
        instructions += hart.instructionsRetired() - before;
    }
    state.SetItemsProcessed(std::int64_t(instructions));
}
BENCHMARK(BM_IssThroughputDbt);

void
BM_Nsga2Generation(benchmark::State &state)
{
    dse::FsDesignSpace space(circuit::Technology::node90());
    dse::Nsga2::Options opts;
    opts.populationSize = 24;
    opts.generations = 1000000; // stepped manually
    dse::Nsga2 optimizer(space, opts);
    for (auto _ : state)
        optimizer.stepGeneration();
}
BENCHMARK(BM_Nsga2Generation)->Unit(benchmark::kMillisecond);

// --- guest-workload MIPS harness ------------------------------------

/** Bench-sized workloads (larger than the test-friendly defaults so
 *  each run is long enough to time stably). */
std::vector<soc::GuestProgram>
benchWorkloads()
{
    return {soc::makeCrc32Program(8192), soc::makeFirProgram(24, 4096),
            soc::makeSortProgram(512), soc::makeMatmulProgram(20)};
}

/** Which execution tier a bench hart uses. */
enum class Tier { kInterp, kDbt };

struct GuestRun {
    double seconds = 0.0;
    std::uint64_t instructions = 0;
    riscv::DbtStats dbt;
};

/**
 * Execute one workload to completion on a bare FRAM+SRAM machine (no
 * peripheral, no checkpoint runtime: pure ISS throughput) and check
 * the result against the host oracle.
 */
GuestRun
runGuestOnce(const soc::GuestProgram &prog, Tier tier)
{
    soc::CheckpointLayout layout;
    soc::Nvm fram(layout.framSize);
    riscv::Ram sram(layout.sramSize);
    soc::Bus bus;
    bus.attach("fram", layout.framBase, fram);
    bus.attach("sram", layout.sramBase, sram);
    riscv::Hart hart(bus);
    hart.setTraceCacheEnabled(tier == Tier::kDbt);

    // Cold-start stub, mirroring the runtime's calling convention:
    // stack at the top of SRAM, enter the app via jalr, halt on return.
    riscv::Assembler as(layout.framBase);
    as.li(riscv::kSp, std::int32_t(layout.sramBase + layout.sramSize));
    as.li(riscv::kT0, std::int32_t(layout.appBase));
    as.emit(riscv::jalr(riscv::kRa, riscv::kT0, 0));
    as.emit(riscv::ebreak());
    fram.loadWords(0, as.finalize());
    fram.loadWords(layout.appBase - layout.framBase, prog.code);
    for (std::size_t i = 0; i < prog.data.size(); ++i)
        fram.data()[prog.dataAddr - layout.framBase + i] = prog.data[i];

    hart.reset(layout.framBase);
    const util::Timer timer;
    while (!hart.halted())
        hart.run(1u << 20);
    const double secs = timer.seconds();
    if (fram.read(prog.resultAddr - layout.framBase, 4) !=
        prog.expected)
        fatal("guest workload ", prog.name,
              " produced a wrong result (tier=", int(tier), ")");
    GuestRun run;
    run.seconds = secs;
    run.instructions = hart.instructionsRetired();
    run.dbt = hart.dbtCache().stats();
    return run;
}

void
accumulate(GuestRun &total, const GuestRun &rep)
{
    total.seconds += rep.seconds;
    total.instructions += rep.instructions;
    total.dbt.translations += rep.dbt.translations;
    total.dbt.hits += rep.dbt.hits;
    total.dbt.misses += rep.dbt.misses;
    total.dbt.chainLinks += rep.dbt.chainLinks;
    total.dbt.chainTransfers += rep.dbt.chainTransfers;
    total.dbt.dispatchExits += rep.dbt.dispatchExits;
    total.dbt.evictions += rep.dbt.evictions;
    total.dbt.unlinks += rep.dbt.unlinks;
    total.dbt.flushes += rep.dbt.flushes;
}

/** Interleave the two tiers' reps so host-load noise hits both
 *  equally; the first round is warmup and is discarded. */
void
measureGuest(const soc::GuestProgram &prog, GuestRun &interp,
             GuestRun &dbt)
{
    runGuestOnce(prog, Tier::kInterp);
    runGuestOnce(prog, Tier::kDbt);
    int reps = 0;
    while (reps < 4 || interp.seconds + dbt.seconds < 0.5) {
        accumulate(interp, runGuestOnce(prog, Tier::kInterp));
        accumulate(dbt, runGuestOnce(prog, Tier::kDbt));
        ++reps;
    }
}

/** The DBT-over-interpreter floor is a real regression gate on
 *  optimized builds; sanitized builds time instrumentation, not the
 *  simulator, and FS_BENCH_NO_FLOOR lets exploratory runs opt out. */
bool
floorDisabled()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return true;
#endif
#endif
    return util::envFlag("FS_BENCH_NO_FLOOR");
}

void
reportGuestMips()
{
    GuestRun interp_total, dbt_total;
    std::printf("\nguest-workload MIPS, interp vs. DBT\n");
    for (const auto &prog : benchWorkloads()) {
        GuestRun off, on;
        measureGuest(prog, off, on);
        accumulate(interp_total, off);
        accumulate(dbt_total, on);
        const double off_rate =
            double(off.instructions) / off.seconds;
        const double on_rate = double(on.instructions) / on.seconds;
        std::printf("  %-8s %8.1f -> %8.1f MIPS (dbt %.2fx)\n",
                    prog.name.c_str(), off_rate / 1e6, on_rate / 1e6,
                    on_rate / off_rate);
    }
    const double base_rate =
        double(interp_total.instructions) / interp_total.seconds;
    const double dbt_rate =
        double(dbt_total.instructions) / dbt_total.seconds;
    std::printf("  aggregate %.1f -> %.1f MIPS (dbt %.2fx over interp)\n",
                base_rate / 1e6, dbt_rate / 1e6, dbt_rate / base_rate);

    // Tier bookkeeping for the CI artifact: one machine-readable line.
    const riscv::DbtStats &s = dbt_total.dbt;
    std::printf("dbt-stats: {\"translations\": %llu, \"hits\": %llu, "
                "\"misses\": %llu, \"chainLinks\": %llu, "
                "\"chainTransfers\": %llu, \"dispatchExits\": %llu, "
                "\"evictions\": %llu, \"unlinks\": %llu, "
                "\"flushes\": %llu}\n",
                (unsigned long long)s.translations,
                (unsigned long long)s.hits,
                (unsigned long long)s.misses,
                (unsigned long long)s.chainLinks,
                (unsigned long long)s.chainTransfers,
                (unsigned long long)s.dispatchExits,
                (unsigned long long)s.evictions,
                (unsigned long long)s.unlinks,
                (unsigned long long)s.flushes);

    if (dbt_rate < 6.0 * base_rate) {
        if (floorDisabled())
            std::printf("dbt floor check skipped (sanitizer or "
                        "FS_BENCH_NO_FLOOR)\n");
        else
            fatal("DBT tier below its 6x-over-interpreter floor: ",
                  dbt_rate / 1e6, " MIPS vs. interpreter ",
                  base_rate / 1e6, " MIPS (",
                  dbt_rate / base_rate, "x)");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    reportGuestMips();
    return 0;
}
