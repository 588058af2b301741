/**
 * @file
 * Unit tests for the utility substrate: units, logging, RNG, stats,
 * numeric helpers, CSV, and the table printer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <random>
#include <sstream>
#include <vector>

#include "util/csv.h"
#include "util/env.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/numeric.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace fs {
namespace {

TEST(Units, LiteralsScaleCorrectly)
{
    EXPECT_DOUBLE_EQ(1.5_V, 1.5);
    EXPECT_DOUBLE_EQ(250.0_mV, 0.25);
    EXPECT_DOUBLE_EQ(10_us, 1e-5);
    EXPECT_DOUBLE_EQ(8.192_ms, 8.192e-3);
    EXPECT_DOUBLE_EQ(2_uA, 2e-6);
    EXPECT_DOUBLE_EQ(47_uF, 47e-6);
    EXPECT_DOUBLE_EQ(10_kHz, 1e4);
    EXPECT_DOUBLE_EQ(1.5_MHz, 1.5e6);
    EXPECT_DOUBLE_EQ(5.0_fF, 5e-15);
    EXPECT_DOUBLE_EQ(330.0_ns, 3.3e-7);
}

TEST(Logging, FatalThrowsWithMessage)
{
    try {
        fatal("bad config: ", 42, " entries");
        FAIL() << "fatal() must throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad config: 42 entries");
    }
}

TEST(Logging, WarnAndInformDoNotThrow)
{
    EXPECT_NO_THROW(warn("just a warning ", 1));
    EXPECT_NO_THROW(inform("status ", 2.5));
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveBounds)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(1, 6);
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 6);
        saw_lo |= v == 1;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMeanAndSpread)
{
    Rng rng(11);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.gaussian(5.0, 2.0));
    EXPECT_NEAR(stats.mean(), 5.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, IndexOfEmptyIsZero)
{
    Rng rng;
    EXPECT_EQ(rng.index(0), 0u);
}

TEST(Rng, LazyEngineMatchesStdMt19937_64)
{
    // Small, extreme and mixSeed-derived seeds; 1,000 outputs cross the
    // word-at-a-time draws, the bulk finish and three later twists.
    std::vector<std::uint64_t> seeds{~std::uint64_t(0), 0xf5f5f5f5ULL,
                                     5489};
    for (std::uint64_t s = 0; s < 500; ++s)
        seeds.push_back(s);
    for (std::uint64_t i = 0; i < 500; ++i)
        seeds.push_back(util::mixSeed(0xF5C0FFEE, i));
    for (const std::uint64_t seed : seeds) {
        Mt19937_64 lazy(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(lazy(), ref()) << "seed " << seed << " output " << i;
    }
}

TEST(Rng, EveryDrawKindFollowsStdMt19937_64)
{
    // Rng's draws are std's distributions over the engine, so each
    // kind must match the same distribution over std::mt19937_64.
    for (std::uint64_t i = 0; i < 64; ++i) {
        const std::uint64_t seed = util::mixSeed(7919, i);
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        std::vector<int> mine(40), theirs(40);
        for (std::size_t k = 0; k < mine.size(); ++k)
            mine[k] = theirs[k] = int(k);
        for (int d = 0; d < 300; ++d) {
            switch ((d + i) % 6) {
              case 0:
                ASSERT_EQ(rng.uniform(-2.0, 3.0),
                          std::uniform_real_distribution<double>(-2.0,
                                                                 3.0)(ref));
                break;
              case 1:
                ASSERT_EQ(rng.uniformInt(0, 0xffffffffLL),
                          std::uniform_int_distribution<std::int64_t>(
                              0, 0xffffffffLL)(ref));
                break;
              case 2:
                ASSERT_EQ(rng.gaussian(1.0, 0.5),
                          std::normal_distribution<double>(1.0, 0.5)(ref));
                break;
              case 3:
                ASSERT_EQ(rng.bernoulli(0.3),
                          std::bernoulli_distribution(0.3)(ref));
                break;
              case 4:
                ASSERT_EQ(rng.index(17),
                          std::size_t(std::uniform_int_distribution<
                                      std::int64_t>(0, 16)(ref)));
                break;
              default:
                rng.shuffle(mine);
                std::shuffle(theirs.begin(), theirs.end(), ref);
                ASSERT_EQ(mine, theirs);
            }
        }
    }
}

TEST(RunningStats, MatchesDirectComputation)
{
    const std::vector<double> xs = {1.0, 4.0, -2.0, 8.0, 3.5};
    RunningStats stats;
    for (double x : xs)
        stats.add(x);
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= double(xs.size());
    double var = 0.0;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= double(xs.size());
    EXPECT_EQ(stats.count(), xs.size());
    EXPECT_NEAR(stats.mean(), mean, 1e-12);
    EXPECT_NEAR(stats.variance(), var, 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), -2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 8.0);
    EXPECT_NEAR(stats.range(), 10.0, 1e-12);
}

TEST(RunningStats, MergeEqualsSinglePass)
{
    Rng rng(3);
    RunningStats all, a, b;
    for (int i = 0; i < 500; ++i) {
        const double x = rng.gaussian();
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, EmptyIsZeroed)
{
    RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MomentsRoundTripBitExactly)
{
    Rng rng(17);
    RunningStats stats;
    for (int i = 0; i < 333; ++i)
        stats.add(rng.gaussian(2.0, 5.0));
    const RunningStats back = RunningStats::fromMoments(
        stats.count(), stats.mean(), stats.m2(), stats.rawMin(),
        stats.rawMax());
    EXPECT_EQ(back.count(), stats.count());
    EXPECT_EQ(back.mean(), stats.mean());
    EXPECT_EQ(back.m2(), stats.m2());
    EXPECT_EQ(back.min(), stats.min());
    EXPECT_EQ(back.max(), stats.max());
    // Empty accumulators round-trip too (infinities in raw min/max).
    const RunningStats empty;
    const RunningStats eback = RunningStats::fromMoments(
        0, 0.0, 0.0, empty.rawMin(), empty.rawMax());
    EXPECT_EQ(eback.count(), 0u);
    EXPECT_DOUBLE_EQ(eback.mean(), 0.0);
}

TEST(RunningStats, BlockwiseFoldBitIdenticalAcrossThreadCounts)
{
    // The swarm's bit-identity recipe in miniature: accumulate fixed
    // blocks in parallel, fold in block order. The folded bits must
    // not depend on the thread count.
    constexpr std::size_t kBlocks = 64;
    constexpr std::size_t kPerBlock = 100;
    const auto run = [&](std::size_t threads) {
        util::ThreadPool pool(threads);
        std::vector<RunningStats> blocks =
            pool.parallelMap(kBlocks, [&](std::size_t b) {
                Rng rng = util::rngForIndex(123, b);
                RunningStats s;
                for (std::size_t i = 0; i < kPerBlock; ++i)
                    s.add(rng.gaussian(1.0, 0.3));
                return s;
            });
        RunningStats folded;
        for (const RunningStats &b : blocks)
            folded.merge(b);
        return folded;
    };
    const RunningStats one = run(1);
    const RunningStats eight = run(8);
    EXPECT_EQ(one.count(), eight.count());
    EXPECT_EQ(one.mean(), eight.mean());
    EXPECT_EQ(one.m2(), eight.m2());
    EXPECT_EQ(one.min(), eight.min());
    EXPECT_EQ(one.max(), eight.max());
}

TEST(LogHistogram, BucketsUnderflowAndOverflow)
{
    LogHistogram h(-2, 2, 4); // [0.01, 100), 16 interior buckets
    EXPECT_EQ(h.buckets(), 16u);
    h.add(0.5);
    h.add(1.0);
    h.add(0.0);    // non-positive -> underflow
    h.add(-3.0);   // negative -> underflow
    h.add(1e-9);   // below 10^-2 -> underflow
    h.add(std::nan("")); // NaN -> underflow, never a crash
    h.add(1e6);    // above 10^2 -> overflow
    EXPECT_EQ(h.total(), 7u);
    EXPECT_EQ(h.underflow(), 4u);
    EXPECT_EQ(h.overflow(), 1u);
    std::uint64_t interior = 0;
    for (std::size_t b = 0; b < h.buckets(); ++b)
        interior += h.countAt(b);
    EXPECT_EQ(interior, 2u);
    // Bucket edges are geometric: each decade splits into 4.
    EXPECT_NEAR(h.bucketLowerEdge(0), 0.01, 1e-12);
    EXPECT_NEAR(h.bucketLowerEdge(4), 0.1, 1e-12);
}

TEST(LogHistogram, MergeIsExactAndOrderIndependent)
{
    Rng rng(5);
    LogHistogram all(-3, 3, 8), a(-3, 3, 8), b(-3, 3, 8), c(-3, 3, 8);
    for (int i = 0; i < 3000; ++i) {
        const double x = std::exp(rng.gaussian(0.0, 3.0));
        all.add(x);
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(x);
    }
    LogHistogram ab = a;
    ab.merge(b);
    ab.merge(c);
    LogHistogram cb = c;
    cb.merge(b);
    cb.merge(a);
    EXPECT_EQ(ab.total(), all.total());
    EXPECT_EQ(cb.total(), all.total());
    for (std::size_t bk = 0; bk < all.buckets(); ++bk) {
        EXPECT_EQ(ab.countAt(bk), all.countAt(bk));
        EXPECT_EQ(cb.countAt(bk), all.countAt(bk));
    }
    EXPECT_EQ(ab.underflow(), all.underflow());
    EXPECT_EQ(ab.overflow(), all.overflow());
    EXPECT_FALSE(all.sameGeometry(LogHistogram(-3, 3, 4)));
}

TEST(LogHistogram, QuantileWalksBuckets)
{
    LogHistogram h(-1, 2, 1); // buckets [0.1,1), [1,10), [10,100)
    for (int i = 0; i < 50; ++i)
        h.add(0.5);
    for (int i = 0; i < 49; ++i)
        h.add(5.0);
    h.add(50.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.1), h.bucketLowerEdge(0));
    EXPECT_DOUBLE_EQ(h.quantile(0.6), h.bucketLowerEdge(1));
    EXPECT_DOUBLE_EQ(h.quantile(1.0), h.bucketLowerEdge(2));
}

TEST(ReservoirSample, MergeEqualsSequentialBottomK)
{
    // Any partition of the tag space must merge to exactly the sample
    // a single sequential pass keeps -- the property that makes the
    // swarm's shard merges byte-identical.
    constexpr std::uint64_t kSeed = 0xfeedfacecafebeefull;
    ReservoirSample all(16, kSeed);
    ReservoirSample odd(16, kSeed), even(16, kSeed);
    for (std::uint64_t tag = 0; tag < 1000; ++tag) {
        const double value = double(tag) * 0.25;
        all.add(tag, value);
        (tag % 2 ? odd : even).add(tag, value);
    }
    ReservoirSample merged_a = odd;
    merged_a.merge(even);
    ReservoirSample merged_b = even;
    merged_b.merge(odd);
    const auto sa = merged_a.sorted();
    const auto sb = merged_b.sorted();
    const auto sall = all.sorted();
    ASSERT_EQ(sall.size(), 16u);
    ASSERT_EQ(sa.size(), sall.size());
    ASSERT_EQ(sb.size(), sall.size());
    for (std::size_t i = 0; i < sall.size(); ++i) {
        EXPECT_EQ(sa[i].tag, sall[i].tag);
        EXPECT_EQ(sa[i].priority, sall[i].priority);
        EXPECT_EQ(sa[i].value, sall[i].value);
        EXPECT_EQ(sb[i].tag, sall[i].tag);
    }
    // Canonical order is ascending (priority, tag).
    for (std::size_t i = 1; i < sall.size(); ++i)
        EXPECT_LT(sall[i - 1].priority, sall[i].priority);
}

TEST(ReservoirSample, KeepsEverythingBelowCapacity)
{
    ReservoirSample s(8, 1);
    for (std::uint64_t tag = 0; tag < 5; ++tag)
        s.add(tag, double(tag));
    EXPECT_EQ(s.sorted().size(), 5u);
}

TEST(Histogram, BinsAndQuantiles)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(double(i) + 0.5);
    EXPECT_EQ(h.total(), 10u);
    for (std::size_t b = 0; b < 10; ++b)
        EXPECT_EQ(h.countAt(b), 1u);
    EXPECT_NEAR(h.quantile(0.5), 4.5, 1.1);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(0.0, 1.0, 4);
    h.add(-5.0);
    h.add(7.0);
    EXPECT_EQ(h.countAt(0), 1u);
    EXPECT_EQ(h.countAt(3), 1u);
}

TEST(Numeric, DerivativeOfPolynomial)
{
    const Fn f = [](double x) { return 3.0 * x * x + 2.0 * x - 7.0; };
    EXPECT_NEAR(derivative(f, 2.0), 14.0, 1e-6);
    EXPECT_NEAR(secondDerivative(f, 2.0), 6.0, 1e-4);
}

TEST(Numeric, PolyfitRecoversExactPolynomial)
{
    const std::vector<double> coeffs = {1.0, -2.0, 0.5};
    std::vector<double> xs, ys;
    for (double x = -3.0; x <= 3.0; x += 0.5) {
        xs.push_back(x);
        ys.push_back(polyval(coeffs, x));
    }
    const auto fit = polyfit(xs, ys, 2);
    ASSERT_EQ(fit.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(fit[i], coeffs[i], 1e-9);
}

TEST(Numeric, PolyfitRejectsUnderdeterminedSystem)
{
    EXPECT_THROW(polyfit({1.0, 2.0}, {1.0, 2.0}, 5), FatalError);
}

TEST(Numeric, SolveLinearKnownSystem)
{
    // 2x + y = 5; x - y = 1  ->  x = 2, y = 1.
    const auto x = solveLinear({2, 1, 1, -1}, {5, 1});
    ASSERT_EQ(x.size(), 2u);
    EXPECT_NEAR(x[0], 2.0, 1e-12);
    EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(Numeric, SolveLinearDetectsSingular)
{
    EXPECT_THROW(solveLinear({1, 1, 2, 2}, {1, 2}), FatalError);
}

TEST(Numeric, BisectFindsRoot)
{
    const Fn f = [](double x) { return x * x - 2.0; };
    EXPECT_NEAR(bisect(f, 0.0, 2.0), std::sqrt(2.0), 1e-8);
}

TEST(Numeric, BisectRequiresSignChange)
{
    const Fn f = [](double x) { return x * x + 1.0; };
    EXPECT_THROW(bisect(f, 0.0, 1.0), FatalError);
}

TEST(Numeric, LinspaceEndpointsAndSpacing)
{
    const auto v = linspace(1.0, 2.0, 5);
    ASSERT_EQ(v.size(), 5u);
    EXPECT_DOUBLE_EQ(v.front(), 1.0);
    EXPECT_DOUBLE_EQ(v.back(), 2.0);
    EXPECT_NEAR(v[1] - v[0], 0.25, 1e-12);
}

TEST(Numeric, Interp1InterpolatesAndClamps)
{
    const std::vector<double> xs = {0.0, 1.0, 2.0};
    const std::vector<double> ys = {0.0, 10.0, 40.0};
    EXPECT_DOUBLE_EQ(interp1(xs, ys, 0.5), 5.0);
    EXPECT_DOUBLE_EQ(interp1(xs, ys, 1.5), 25.0);
    EXPECT_DOUBLE_EQ(interp1(xs, ys, -1.0), 0.0);
    EXPECT_DOUBLE_EQ(interp1(xs, ys, 5.0), 40.0);
}

TEST(Numeric, MaxAbsOnInterval)
{
    const Fn f = [](double x) { return std::sin(x); };
    EXPECT_NEAR(maxAbsOnInterval(f, 0.0, 3.14159, 1024), 1.0, 1e-4);
}

TEST(Csv, WriteAndParseRoundTrip)
{
    std::ostringstream os;
    CsvWriter writer(os);
    writer.header({"a", "b"});
    writer.row(1.5, 2);
    writer.row(-3.25, 4);
    EXPECT_EQ(writer.rowsWritten(), 3u);

    const auto rows = parseNumericCsv(os.str());
    ASSERT_EQ(rows.size(), 2u); // header skipped (non-numeric)
    EXPECT_DOUBLE_EQ(rows[0][0], 1.5);
    EXPECT_DOUBLE_EQ(rows[1][1], 4.0);
}

TEST(Csv, ParseSkipsBlankLines)
{
    const auto rows = parseNumericCsv("1,2\n\n3,4\n");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_DOUBLE_EQ(rows[1][0], 3.0);
}

TEST(Table, PrintsAlignedCells)
{
    TablePrinter table("Title");
    table.columns({"name", "value"});
    table.row("alpha", 1);
    table.row("beta", TablePrinter::num(2.5, 1));
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("2.5"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(Json, EscapeHandlesQuotesBackslashesAndControls)
{
    EXPECT_EQ(util::json::escape("plain"), "plain");
    EXPECT_EQ(util::json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(util::json::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(util::json::escape("line\nbreak\ttab"),
              "line\\nbreak\\ttab");
    EXPECT_EQ(util::json::escape(std::string("\x01", 1)), "\\u0001");
}

TEST(Json, WriterEmitsNestedStructure)
{
    util::json::Writer w(6);
    w.beginObject();
    w.key("name").value("we\"ird\\name");
    w.key("count").value(42);
    w.key("ratio").value(0.5);
    w.key("ok").value(true);
    w.key("list").beginArray().value(1).value(2).endArray();
    w.key("nested").beginObject().key("x").value(-1).endObject();
    w.endObject();
    EXPECT_EQ(w.str(), "{\"name\":\"we\\\"ird\\\\name\",\"count\":42,"
                       "\"ratio\":0.5,\"ok\":true,\"list\":[1,2],"
                       "\"nested\":{\"x\":-1}}");
}

/** Scoped setenv/unsetenv for knob tests. */
class EnvVar
{
  public:
    EnvVar(const char *name, const char *value) : name_(name)
    {
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~EnvVar() { ::unsetenv(name_); }

  private:
    const char *name_;
};

TEST(EnvKnobs, UnsetReturnsDefault)
{
    util::resetEnvWarnings();
    EnvVar v("FS_TEST_KNOB", nullptr);
    EXPECT_EQ(util::envU64("FS_TEST_KNOB", 7, 1, 100), 7u);
    EXPECT_DOUBLE_EQ(util::envDouble("FS_TEST_KNOB", 2.5, 0.0, 10.0),
                     2.5);
    EXPECT_FALSE(util::envFlag("FS_TEST_KNOB"));
}

TEST(EnvKnobs, ValidValuesParse)
{
    util::resetEnvWarnings();
    {
        EnvVar v("FS_TEST_KNOB", "42");
        EXPECT_EQ(util::envU64("FS_TEST_KNOB", 7, 1, 100), 42u);
        EXPECT_TRUE(util::envFlag("FS_TEST_KNOB"));
    }
    {
        EnvVar v("FS_TEST_KNOB", "0x20");
        EXPECT_EQ(util::envU64("FS_TEST_KNOB", 7, 1, 100), 32u);
    }
    {
        EnvVar v("FS_TEST_KNOB", "3.25");
        EXPECT_DOUBLE_EQ(
            util::envDouble("FS_TEST_KNOB", 1.0, 0.0, 10.0), 3.25);
    }
}

TEST(EnvKnobs, GarbageFallsBackToDefault)
{
    const char *cases[] = {"", "abc", "12abc", "-5", "1e", "nan"};
    for (const char *value : cases) {
        util::resetEnvWarnings();
        EnvVar v("FS_TEST_KNOB", value);
        EXPECT_EQ(util::envU64("FS_TEST_KNOB", 7, 1, 100), 7u)
            << "value '" << value << "'";
    }
    util::resetEnvWarnings();
    EnvVar v("FS_TEST_KNOB", "not-a-number");
    EXPECT_DOUBLE_EQ(util::envDouble("FS_TEST_KNOB", 2.5, 0.0, 10.0),
                     2.5);
}

TEST(EnvKnobs, OutOfRangeFallsBackToDefault)
{
    util::resetEnvWarnings();
    {
        EnvVar v("FS_TEST_KNOB", "0");
        EXPECT_EQ(util::envU64("FS_TEST_KNOB", 7, 1, 100), 7u);
    }
    {
        EnvVar v("FS_TEST_KNOB", "101");
        EXPECT_EQ(util::envU64("FS_TEST_KNOB", 7, 1, 100), 7u);
    }
    {
        EnvVar v("FS_TEST_KNOB", "1e9");
        EXPECT_DOUBLE_EQ(
            util::envDouble("FS_TEST_KNOB", 2.5, 0.0, 10.0), 2.5);
    }
    // Boundary values are in range.
    {
        EnvVar v("FS_TEST_KNOB", "1");
        EXPECT_EQ(util::envU64("FS_TEST_KNOB", 7, 1, 100), 1u);
    }
    {
        EnvVar v("FS_TEST_KNOB", "100");
        EXPECT_EQ(util::envU64("FS_TEST_KNOB", 7, 1, 100), 100u);
    }
}

TEST(EnvKnobs, FlagTreatsEmptyAndZeroAsUnset)
{
    // Kill switches: empty and "0" mean the same as unset, so
    // FS_NO_X=0 never turns a feature off.
    for (const char *value : {"", "0"}) {
        EnvVar v("FS_TEST_KNOB", value);
        EXPECT_FALSE(util::envFlag("FS_TEST_KNOB"))
            << "value '" << value << "'";
    }
    for (const char *value : {"1", "yes", "00", "0x0", " 0", "true"}) {
        EnvVar v("FS_TEST_KNOB", value);
        EXPECT_TRUE(util::envFlag("FS_TEST_KNOB"))
            << "value '" << value << "'";
    }
}

TEST(EnvKnobs, WarnsOnceThenStaysQuiet)
{
    util::resetEnvWarnings();
    EnvVar v("FS_TEST_KNOB", "garbage");
    // Only observable contract here: repeated reads keep returning the
    // default and never throw; the once-per-name warning bookkeeping
    // is exercised by calling twice.
    EXPECT_EQ(util::envU64("FS_TEST_KNOB", 7, 1, 100), 7u);
    EXPECT_EQ(util::envU64("FS_TEST_KNOB", 7, 1, 100), 7u);
    util::resetEnvWarnings();
    EXPECT_EQ(util::envU64("FS_TEST_KNOB", 7, 1, 100), 7u);
}

} // namespace
} // namespace fs
