/**
 * @file
 * Determinism contract of the parallel infrastructure: the same seed
 * must produce bit-identical results -- Pareto fronts, torture
 * verdicts, per-item RNG streams -- at 1, 2, and 8 threads. Every
 * campaign's "replay the JSON seed" claim rests on this.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dse/fs_design_space.h"
#include "dse/nsga2.h"
#include "fault/torture_rig.h"
#include "soc/guest_programs.h"
#include "util/env.h"
#include "util/parallel.h"

namespace fs {
namespace {

// ---------------------------------------------------------------------
// Thread pool primitives
// ---------------------------------------------------------------------

TEST(ThreadPool, MapPreservesIndexOrder)
{
    for (std::size_t threads : {std::size_t(1), std::size_t(2),
                                std::size_t(8)}) {
        util::ThreadPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
        const auto out = pool.parallelMap(1000, [](std::size_t i) {
            // Uneven per-item work so completion order scrambles.
            double acc = double(i);
            for (std::size_t k = 0; k < (i % 17) * 50; ++k)
                acc += std::sin(acc);
            return double(i) * 3.0 + 1.0 + 0.0 * acc;
        });
        ASSERT_EQ(out.size(), 1000u);
        for (std::size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(out[i], double(i) * 3.0 + 1.0);
    }
}

TEST(ThreadPool, GarbageFsThreadsFallsBackToHardwareDefault)
{
    // FS_THREADS goes through the hardened env parser: garbage and
    // out-of-range values warn once and fall back to the hardware
    // default instead of silently becoming 0 or crashing.
    util::resetEnvWarnings();
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t def = hw == 0 ? 1 : hw;
    for (const char *value : {"banana", "", "-3", "0", "100000"}) {
        ::setenv("FS_THREADS", value, 1);
        util::ThreadPool pool(0);
        EXPECT_EQ(pool.threadCount(), def) << "FS_THREADS='" << value
                                           << "'";
        util::resetEnvWarnings();
    }
    ::setenv("FS_THREADS", "3", 1);
    {
        util::ThreadPool pool(0);
        EXPECT_EQ(pool.threadCount(), 3u);
    }
    ::unsetenv("FS_THREADS");
}

TEST(ThreadPool, ForCoversEveryIndexExactlyOnce)
{
    util::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h.store(0);
    pool.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesBodyException)
{
    util::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error(
                                              "boom");
                                  }),
                 std::runtime_error);
    // The pool must stay usable after a failed job.
    const auto out =
        pool.parallelMap(8, [](std::size_t i) { return int(i); });
    EXPECT_EQ(out.back(), 7);
}

TEST(ThreadPool, NestedCallsRunInline)
{
    util::ThreadPool pool(4);
    std::vector<int> out(16, 0);
    pool.parallelFor(4, [&](std::size_t i) {
        // Re-entrant fan-out from a pool body must not deadlock.
        pool.parallelFor(4, [&](std::size_t j) {
            out[i * 4 + j] = int(i * 4 + j);
        });
    });
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(out[std::size_t(i)], i);
}

TEST(ThreadPool, ConcurrentExternalCallersGetTheirOwnJobs)
{
    // Several threads outside the pool fan out on it at once, each
    // with its own job size and body. The pool serialises them, so
    // every caller sees exactly its own results, bit for bit.
    util::ThreadPool pool(4);
    constexpr std::size_t kCallers = 6;
    constexpr int kRounds = 200;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            for (int r = 0; r < kRounds; ++r) {
                const std::size_t n = 50 + 37 * c + std::size_t(r);
                const std::uint64_t seed = c * 1000 + std::uint64_t(r);
                const auto got = pool.parallelMap(n, [&](std::size_t i) {
                    return util::mixSeed(seed, i);
                });
                std::vector<std::uint64_t> sums(n, 0);
                pool.parallelFor(n, [&](std::size_t i) {
                    sums[i] = got[i] ^ std::uint64_t(i);
                });
                bool ok = got.size() == n;
                for (std::size_t i = 0; ok && i < n; ++i)
                    ok = got[i] == util::mixSeed(seed, i) &&
                         sums[i] == (got[i] ^ std::uint64_t(i));
                if (!ok)
                    ++mismatches;
            }
        });
    }
    for (std::thread &t : callers)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(PerIndexRng, StreamsAreStableAndDecorrelated)
{
    // Same (seed, index) -> same stream, at any thread count, because
    // the mapping is a pure function of the inputs.
    Rng a = util::rngForIndex(0x5eed, 7);
    Rng b = util::rngForIndex(0x5eed, 7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.uniformInt(0, 1 << 30), b.uniformInt(0, 1 << 30));
    // Adjacent indices and adjacent seeds must not collide.
    EXPECT_NE(util::mixSeed(0x5eed, 7), util::mixSeed(0x5eed, 8));
    EXPECT_NE(util::mixSeed(0x5eed, 7), util::mixSeed(0x5eee, 7));
}

// ---------------------------------------------------------------------
// NSGA-II / design-space exploration
// ---------------------------------------------------------------------

std::vector<dse::Individual>
runDse(std::size_t threads)
{
    dse::FsDesignSpace space(circuit::Technology::node90());
    dse::Nsga2::Options opts;
    opts.populationSize = 24;
    opts.generations = 5;
    opts.seed = 0xDE5E;
    opts.threads = threads;
    dse::Nsga2 optimizer(space, opts);
    optimizer.run();
    return optimizer.population();
}

TEST(ParallelDeterminism, ParetoPopulationBitIdenticalAcrossThreads)
{
    const auto ref = runDse(1);
    ASSERT_FALSE(ref.empty());
    for (std::size_t threads : {std::size_t(2), std::size_t(8)}) {
        const auto got = runDse(threads);
        ASSERT_EQ(got.size(), ref.size()) << threads << " threads";
        for (std::size_t i = 0; i < ref.size(); ++i) {
            // Exact equality, not tolerance: the parallel schedule
            // must not change a single bit of the result.
            ASSERT_EQ(got[i].genome, ref[i].genome)
                << "individual " << i << " at " << threads
                << " threads";
            ASSERT_EQ(got[i].eval.objectives, ref[i].eval.objectives);
            ASSERT_EQ(got[i].eval.feasible, ref[i].eval.feasible);
            ASSERT_EQ(got[i].rank, ref[i].rank);
        }
    }
}

TEST(ParallelDeterminism, ExploreDesignSpaceFrontIdenticalAcrossThreads)
{
    dse::Nsga2::Options opts;
    opts.populationSize = 16;
    opts.generations = 4;
    auto run = [&](std::size_t threads) {
        opts.threads = threads;
        return dse::exploreDesignSpace(circuit::Technology::node90(),
                                       opts);
    };
    const auto ref = run(1);
    for (std::size_t threads : {std::size_t(2), std::size_t(8)}) {
        const auto got = run(threads);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_EQ(got[i].config.summary(), ref[i].config.summary());
            ASSERT_EQ(got[i].perf.meanCurrent, ref[i].perf.meanCurrent);
            ASSERT_EQ(got[i].perf.granularity, ref[i].perf.granularity);
        }
    }
}

// ---------------------------------------------------------------------
// Torture campaign
// ---------------------------------------------------------------------

TEST(ParallelDeterminism, TortureVerdictsIdenticalAcrossThreads)
{
    fault::TortureConfig config;
    config.stableCycles = 60'000;
    config.lowCycles = 30'000;
    fault::TortureRig rig(soc::makeCrc32Program(1024, 7), config);
    // Small deterministic kill set: mid-commit cycles with torn bytes
    // and flip masks drawn sequentially from a seeded generator.
    const fault::CommitWindow window = rig.commitWindow(0);
    Rng rng(0xFEED);
    std::vector<fault::PowerKill> kills;
    for (int i = 0; i < 6; ++i) {
        fault::PowerKill kill;
        kill.cycle = window.begin +
                     std::uint64_t(rng.uniformInt(
                         0, std::int64_t(window.length()) - 1));
        kill.tearBytesKept = unsigned(rng.uniformInt(0, 3));
        kill.tearFlipMask =
            std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
        kills.push_back(kill);
    }

    util::ThreadPool one(1);
    const auto ref = rig.runKills(kills, &one);
    ASSERT_EQ(ref.size(), kills.size());
    for (std::size_t threads : {std::size_t(2), std::size_t(8)}) {
        util::ThreadPool pool(threads);
        const auto got = rig.runKills(kills, &pool);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(got[i].killed, ref[i].killed) << i;
            EXPECT_EQ(got[i].killTore, ref[i].killTore) << i;
            EXPECT_EQ(got[i].validSlots, ref[i].validSlots) << i;
            EXPECT_EQ(got[i].tornSlots, ref[i].tornSlots) << i;
            EXPECT_EQ(got[i].newestSeq, ref[i].newestSeq) << i;
            EXPECT_EQ(got[i].coldRestart, ref[i].coldRestart) << i;
            EXPECT_EQ(got[i].resultCorrect, ref[i].resultCorrect) << i;
            EXPECT_EQ(got[i].result, ref[i].result) << i;
        }
        // Every kill in this set must still recover bit-exact.
        for (const auto &out : got)
            EXPECT_TRUE(out.resultCorrect);
    }
}

} // namespace
} // namespace fs
