/**
 * @file
 * Monte Carlo process-variation study (Section III-H): a population
 * of chips at random process corners, each enrolled individually.
 * Raw counts spread widely across the population; post-enrollment
 * measurement error does not -- calibration absorbs manufacturing
 * variation, which is the paper's case for the enrollment step.
 *
 * Chips are independent, so the per-chip enrollments fan out across
 * the shared thread pool (FS_THREADS): every speed factor is drawn
 * sequentially up front and results fold into the statistics in chip
 * order, keeping the output bit-identical at any thread count.
 */

#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/failure_sentinels.h"
#include "util/numeric.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"

int
main()
{
    using namespace fs;

    bench::banner("Monte Carlo (Section III-H)",
                  "100-chip population, +/-8% sigma process speed, "
                  "FS (LP) configuration, 90 nm.");

    core::FsConfig cfg;
    cfg.roStages = 21;
    cfg.counterBits = 8;
    cfg.enableTime = 10e-6;
    cfg.sampleRate = 1e3;
    cfg.nvmEntries = 49;
    cfg.entryBits = 8;

    Rng rng(2024);
    RunningStats raw_counts;     // raw count at 2.4 V across chips
    RunningStats enrolled_error; // worst |measured - true| per chip
    RunningStats unenrolled_error; // using chip 0's calibration

    // Reference calibration from a typical-corner chip, to show what
    // happens without per-chip enrollment.
    core::FailureSentinels reference(circuit::Technology::node90(), cfg,
                                     "ref", 1.0);
    reference.enrollDevice();

    constexpr int kChips = 100;
    std::vector<double> speeds(kChips);
    for (int chip = 0; chip < kChips; ++chip)
        speeds[chip] = std::max(0.7, rng.gaussian(1.0, 0.08));

    struct ChipResult {
        double rawCount = 0.0;
        double worstOwn = 0.0;
        double worstRef = 0.0;
    };
    util::ThreadPool &pool = util::ThreadPool::shared();
    const std::vector<ChipResult> results =
        pool.parallelMap(kChips, [&](std::size_t chip) {
            core::FailureSentinels fs(circuit::Technology::node90(),
                                      cfg, "chip", speeds[chip]);
            fs.enrollDevice();
            ChipResult r;
            r.rawCount = double(fs.rawSample(2.4));
            for (double v : linspace(1.85, 2.05, 20)) {
                r.worstOwn = std::max(
                    r.worstOwn, std::fabs(fs.readVoltage(v) - v));
                // Foreign calibration: chip's counts through the
                // reference chip's table.
                r.worstRef = std::max(
                    r.worstRef,
                    std::fabs(reference.converter().toVoltage(
                                  fs.rawSample(v)) -
                              v));
            }
            return r;
        });
    for (const ChipResult &r : results) {
        raw_counts.add(r.rawCount);
        enrolled_error.add(r.worstOwn);
        unenrolled_error.add(r.worstRef);
    }

    TablePrinter table;
    table.columns({"metric", "mean", "stddev", "min", "max"});
    table.row("raw count @2.4V", TablePrinter::num(raw_counts.mean(), 1),
              TablePrinter::num(raw_counts.stddev(), 1),
              TablePrinter::num(raw_counts.min(), 0),
              TablePrinter::num(raw_counts.max(), 0));
    table.row("own-enrollment err (mV)",
              TablePrinter::num(enrolled_error.mean() * 1e3, 1),
              TablePrinter::num(enrolled_error.stddev() * 1e3, 1),
              TablePrinter::num(enrolled_error.min() * 1e3, 1),
              TablePrinter::num(enrolled_error.max() * 1e3, 1));
    table.row("foreign-calibration err (mV)",
              TablePrinter::num(unenrolled_error.mean() * 1e3, 1),
              TablePrinter::num(unenrolled_error.stddev() * 1e3, 1),
              TablePrinter::num(unenrolled_error.min() * 1e3, 1),
              TablePrinter::num(unenrolled_error.max() * 1e3, 1));
    table.print(std::cout);

    bench::paperNote("identical ROs on different chips produce "
                     "different frequencies under the same conditions; "
                     "manufacture-time enrollment absorbs it.");
    bench::shapeCheck("counts spread > 5% across the population",
                      raw_counts.range() >
                          0.05 * raw_counts.mean());
    bench::shapeCheck("own enrollment keeps worst error < granularity",
                      enrolled_error.max() <
                          reference.performance().granularity * 1.5);
    bench::shapeCheck("foreign calibration is much worse (2x+)",
                      unenrolled_error.max() >
                          2.0 * enrolled_error.mean());
    return 0;
}
