/**
 * @file
 * Tests for the fleet-scale swarm subsystem: the adaptive timing
 * monitor, the closed-form device model, bit-identical aggregation
 * across thread counts and block-aligned shardings, the kSwarm wire
 * job, and the fail-closed audit log's failure semantics.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "serve/wire.h"
#include "swarm/audit_log.h"
#include "swarm/device.h"
#include "swarm/swarm.h"
#include "swarm/timing_monitor.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace fs {
namespace swarm {
namespace {

using serve::Engine;
using serve::MsgKind;
using serve::Request;
using serve::Response;
using serve::SwarmResult;

// --- timing monitor ---------------------------------------------------

TEST(TimingMonitor, WarmupGatesJudgement)
{
    TimingMonitorConfig cfg;
    cfg.warmup = 8;
    cfg.tripsToFlag = 1;
    TimingMonitor m(cfg);
    // Wild swings during warmup must not flag.
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(m.observe(i % 2 ? 100.0 : 0.001));
    EXPECT_FALSE(m.flagged());
    EXPECT_EQ(m.samples(), 8u);
}

TEST(TimingMonitor, ConsecutiveTripsRequiredAndLatchesOnce)
{
    TimingMonitorConfig cfg;
    cfg.warmup = 16;
    cfg.tripsToFlag = 2;
    cfg.zThreshold = 4.0;
    TimingMonitor m(cfg);
    for (int i = 0; i < 32; ++i)
        m.observe(1.0);
    EXPECT_FALSE(m.flagged());
    // One outlier, then back in band: the trip streak resets.
    EXPECT_FALSE(m.observe(10.0));
    EXPECT_FALSE(m.observe(1.0));
    EXPECT_FALSE(m.flagged());
    // Two consecutive outliers flag -- and observe() reports the
    // transition exactly once.
    EXPECT_FALSE(m.observe(10.0));
    EXPECT_TRUE(m.observe(10.0));
    EXPECT_TRUE(m.flagged());
    EXPECT_FALSE(m.observe(10.0));
    EXPECT_TRUE(m.flagged());
    EXPECT_GT(m.maxAbsZ(), 4.0);
}

TEST(TimingMonitor, VarianceFloorAbsorbsFloatJitter)
{
    TimingMonitorConfig cfg;
    cfg.warmup = 8;
    cfg.tripsToFlag = 1;
    TimingMonitor m(cfg);
    // Near-identical intervals differing by ulp-scale noise: without
    // the relative variance floor these would produce astronomical
    // z-scores.
    for (int i = 0; i < 64; ++i)
        EXPECT_FALSE(m.observe(1.0 + (i % 3) * 1e-13));
    EXPECT_FALSE(m.flagged());
    // A genuine shift still registers against the floored stddev.
    EXPECT_TRUE(m.observe(2.0));
}

TEST(TimingMonitor, ZeroMeanBaselineStillJudges)
{
    TimingMonitorConfig cfg;
    cfg.warmup = 4;
    cfg.tripsToFlag = 1;
    TimingMonitor m(cfg);
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(m.observe(0.0));
    // sd == 0 and the floor is 0 at mean 0: any deviation is
    // out-of-band.
    EXPECT_TRUE(m.observe(0.5));
}

// --- device model -----------------------------------------------------

std::vector<HarvestSegment>
officeSegments(std::uint64_t device, double seconds)
{
    Rng rng = util::rngForIndex(99, device);
    return makeSegments(HarvestProfile::kOffice, seconds, 5.0, rng,
                        nullptr);
}

TEST(SwarmDevice, PureFunctionOfInputs)
{
    Rng rng_a = util::rngForIndex(7, 3);
    Rng rng_b = util::rngForIndex(7, 3);
    DeviceParams pa = applyVariation(nominalDeviceParams(), rng_a);
    DeviceParams pb = applyVariation(nominalDeviceParams(), rng_b);
    EXPECT_EQ(pa.capF, pb.capF);
    EXPECT_EQ(pa.monitorMarginV, pb.monitorMarginV);

    const std::vector<HarvestSegment> segs = officeSegments(3, 300.0);
    TimingMonitorConfig mon;
    const DeviceResult a = simulateDevice(pa, segs, mon, nullptr);
    const DeviceResult b = simulateDevice(pb, segs, mon, nullptr);
    EXPECT_EQ(a.boots, b.boots);
    EXPECT_EQ(a.checkpoints, b.checkpoints);
    EXPECT_EQ(a.failedCheckpoints, b.failedCheckpoints);
    EXPECT_EQ(a.upS, b.upS);
    EXPECT_EQ(a.deadS, b.deadS);
    EXPECT_EQ(a.meanLifetimeS, b.meanLifetimeS);
    EXPECT_EQ(a.flagged, b.flagged);
    EXPECT_GT(a.boots, 0u);
    EXPECT_GT(a.checkpoints, 0u);
}

TEST(SwarmDevice, TimeBudgetIsConserved)
{
    Rng rng = util::rngForIndex(11, 0);
    DeviceParams p = applyVariation(nominalDeviceParams(), rng);
    const double seconds = 200.0;
    const std::vector<HarvestSegment> segs = officeSegments(0, seconds);
    TimingMonitorConfig mon;
    const DeviceResult r = simulateDevice(p, segs, mon, nullptr);
    // Up + dead time covers the whole trace (checkpoint writes extend
    // `t` slightly past segment boundaries, hence the tolerance).
    EXPECT_NEAR(r.upS + r.deadS, seconds, 1.0);
}

TEST(SwarmDevice, CadenceAnomalyIsFlagged)
{
    Rng rng = util::rngForIndex(5, 1);
    DeviceParams p = applyVariation(nominalDeviceParams(), rng);
    const std::vector<HarvestSegment> segs = officeSegments(1, 600.0);
    TimingMonitorConfig mon;

    const DeviceResult clean = simulateDevice(p, segs, mon, nullptr);
    EXPECT_FALSE(clean.flagged);

    DeviceParams drifted = p;
    drifted.anomalyAtS = 300.0;
    drifted.anomalyScale = 0.25;
    const DeviceResult bad = simulateDevice(drifted, segs, mon, nullptr);
    EXPECT_TRUE(bad.flagged);
    EXPECT_GT(bad.checkpoints, clean.checkpoints);
}

// --- swarm aggregation ------------------------------------------------

SwarmConfig
smallConfig()
{
    SwarmConfig cfg;
    cfg.deviceCount = 4 * kSwarmBlock + 100; // non-aligned tail
    cfg.seed = 42;
    cfg.traceSeconds = 120.0;
    cfg.anomalyEvery = 64;
    return cfg;
}

std::vector<std::uint8_t>
aggregateBytes(const SwarmAggregates &agg)
{
    SwarmResult res;
    res.agg = agg;
    return serve::encodeResponsePayload(Response{res});
}

TEST(Swarm, BitIdenticalAcrossThreadCounts)
{
    const SwarmConfig cfg = smallConfig();
    util::ThreadPool pool1(1);
    util::ThreadPool pool8(8);
    const SwarmAggregates a = runSwarmShard(cfg, pool1);
    const SwarmAggregates b = runSwarmShard(cfg, pool8);
    EXPECT_EQ(aggregateBytes(a), aggregateBytes(b));
    EXPECT_EQ(a.deviceCount, cfg.deviceCount);
    EXPECT_GT(a.boots, 0u);
    EXPECT_GT(a.flaggedDevices, 0u);
    EXPECT_GT(a.cohortDevices, 0u);
}

TEST(Swarm, BlockAlignedShardsMergeToUnshardedBytes)
{
    const SwarmConfig cfg = smallConfig();
    util::ThreadPool pool(2);
    const SwarmAggregates whole = runSwarmShard(cfg, pool);

    SwarmAggregates merged;
    const std::uint64_t spans[] = {kSwarmBlock, 2 * kSwarmBlock, 0};
    std::uint64_t first = 0;
    for (std::uint64_t span : spans) {
        SwarmConfig shard = cfg;
        shard.firstDevice = first;
        shard.spanDevices = span;
        const SwarmAggregates part = runSwarmShard(shard, pool);
        ASSERT_EQ(mergeAggregates(&merged, part), "");
        first += span == 0 ? cfg.deviceCount - first : span;
    }
    EXPECT_EQ(aggregateBytes(whole), aggregateBytes(merged));
}

TEST(Swarm, MergeRejectsGapsAndMismatches)
{
    const SwarmConfig cfg = smallConfig();
    util::ThreadPool pool(1);
    SwarmConfig head = cfg;
    head.spanDevices = kSwarmBlock;
    SwarmConfig tail = cfg;
    tail.firstDevice = 2 * kSwarmBlock; // skips block 1
    const SwarmAggregates a = runSwarmShard(head, pool);
    const SwarmAggregates b = runSwarmShard(tail, pool);
    SwarmAggregates merged = a;
    EXPECT_NE(mergeAggregates(&merged, b), "");
    // The failed merge must not have mutated the accumulator.
    EXPECT_EQ(aggregateBytes(merged), aggregateBytes(a));
    EXPECT_NE(mergeAggregates(&merged, SwarmAggregates{}), "");
}

TEST(Swarm, ValidateConfigRejectsBadShapes)
{
    SwarmConfig cfg;
    cfg.deviceCount = 0;
    EXPECT_NE(validateConfig(cfg), "");
    cfg = SwarmConfig{};
    cfg.firstDevice = 17; // not block-aligned
    EXPECT_NE(validateConfig(cfg), "");
    cfg = SwarmConfig{};
    cfg.firstDevice = cfg.deviceCount + kSwarmBlock;
    EXPECT_NE(validateConfig(cfg), "");
    cfg = SwarmConfig{};
    cfg.profile = HarvestProfile::kTraceCsv; // no trace text
    EXPECT_NE(validateConfig(cfg), "");
    cfg = SwarmConfig{};
    cfg.traceCsv = "0,1\n"; // trace text without the trace profile
    EXPECT_NE(validateConfig(cfg), "");
    EXPECT_EQ(validateConfig(SwarmConfig{}), "");
}

TEST(Swarm, TraceCsvProfileRuns)
{
    SwarmConfig cfg;
    cfg.deviceCount = 300;
    cfg.traceSeconds = 120.0;
    cfg.profile = HarvestProfile::kTraceCsv;
    cfg.traceCsv = "time_s,irradiance_wpm2,temp_c\n"
                   "0,3.0,24\n10,0.05,22\n20,3.5,25\n30,2.0,24\n";
    ASSERT_EQ(validateConfig(cfg), "");
    util::ThreadPool pool(1);
    const SwarmAggregates agg = runSwarmShard(cfg, pool);
    EXPECT_EQ(agg.deviceCount, 300u);
    EXPECT_GT(agg.boots, 0u);
}

TEST(Swarm, AnomalyCohortPrecision)
{
    SwarmConfig cfg;
    cfg.deviceCount = 2000;
    cfg.anomalyEvery = 50;
    cfg.anomalyFactor = 0.25;
    util::ThreadPool pool(2);
    const SwarmAggregates agg = runSwarmShard(cfg, pool);
    ASSERT_EQ(agg.cohortDevices, 40u);
    // Recall: at least 80% of the seeded cohort is flagged.
    EXPECT_GE(agg.flaggedInCohort * 5, agg.cohortDevices * 4);
    // Precision: false flags stay below 2% of the clean population.
    const std::uint64_t false_flags =
        agg.flaggedDevices - agg.flaggedInCohort;
    EXPECT_LE(false_flags * 50,
              agg.deviceCount - agg.cohortDevices);
}

// --- wire job ---------------------------------------------------------

TEST(SwarmWire, JobRoundTripsAndRejectsTruncation)
{
    SwarmConfig job;
    job.deviceCount = 12345;
    job.firstDevice = kSwarmBlock;
    job.spanDevices = 4 * kSwarmBlock;
    job.seed = 77;
    job.profile = HarvestProfile::kTraceCsv;
    job.traceSeconds = 33.5;
    job.segmentSeconds = 2.5;
    job.ckptPeriodS = 0.75;
    job.zThreshold = 3.5;
    job.warmup = 9;
    job.tripsToFlag = 3;
    job.anomalyEvery = 13;
    job.anomalyFactor = 0.5;
    job.traceCsv = "0,1\n5,2\n";

    const std::vector<std::uint8_t> bytes =
        serve::encodeRequestPayload(Request{job});
    Request back;
    std::string err;
    ASSERT_TRUE(serve::decodeRequestPayload(
        MsgKind::kSwarm, bytes.data(), bytes.size(), back, err))
        << err;
    const auto *dj = std::get_if<SwarmConfig>(&back);
    ASSERT_NE(dj, nullptr);
    EXPECT_EQ(dj->deviceCount, job.deviceCount);
    EXPECT_EQ(dj->firstDevice, job.firstDevice);
    EXPECT_EQ(dj->spanDevices, job.spanDevices);
    EXPECT_EQ(dj->seed, job.seed);
    EXPECT_EQ(dj->profile, job.profile);
    EXPECT_EQ(dj->traceSeconds, job.traceSeconds);
    EXPECT_EQ(dj->warmup, job.warmup);
    EXPECT_EQ(dj->tripsToFlag, job.tripsToFlag);
    EXPECT_EQ(dj->anomalyEvery, job.anomalyEvery);
    EXPECT_EQ(dj->traceCsv, job.traceCsv);

    // Every strict prefix must decode cleanly to an error, never
    // crash or accept.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        Request trunc;
        std::string terr;
        EXPECT_FALSE(serve::decodeRequestPayload(
            MsgKind::kSwarm, bytes.data(), len, trunc, terr))
            << "accepted prefix of " << len;
    }
}

TEST(SwarmWire, ResultRoundTripsAndRejectsTruncation)
{
    SwarmConfig cfg = smallConfig();
    cfg.deviceCount = 2 * kSwarmBlock;
    util::ThreadPool pool(1);
    SwarmResult res;
    res.agg = runSwarmShard(cfg, pool);
    const std::vector<std::uint8_t> bytes =
        serve::encodeResponsePayload(Response{res});

    Response back;
    std::string err;
    ASSERT_TRUE(serve::decodeResponsePayload(
        MsgKind::kSwarmReply, bytes.data(), bytes.size(), back, err))
        << err;
    const auto *dr = std::get_if<SwarmResult>(&back);
    ASSERT_NE(dr, nullptr);
    // Canonical re-encode gives identical bytes.
    EXPECT_EQ(serve::encodeResponsePayload(back), bytes);

    for (std::size_t len = 0; len < bytes.size(); len += 7) {
        Response trunc;
        std::string terr;
        EXPECT_FALSE(serve::decodeResponsePayload(
            MsgKind::kSwarmReply, bytes.data(), len, trunc, terr))
            << "accepted prefix of " << len;
    }
}

TEST(SwarmWire, EngineExecutesAndShardsMergeByteIdentically)
{
    SwarmConfig whole;
    whole.deviceCount = 3 * kSwarmBlock + 50;
    whole.seed = 9;
    whole.traceSeconds = 90.0;
    whole.anomalyEvery = 100;

    Engine engine(Engine::Options{1, 4u << 20, ""});
    const Response all = engine.execute(Request{whole});
    const auto *all_res = std::get_if<SwarmResult>(&all);
    ASSERT_NE(all_res, nullptr);

    SwarmResult merged;
    std::uint64_t first = 0;
    for (int s = 0; s < 2; ++s) {
        SwarmConfig shard = whole;
        shard.firstDevice = first;
        shard.spanDevices = s == 0 ? 2 * kSwarmBlock : 0;
        const Response part = engine.execute(Request{shard});
        const auto *part_res = std::get_if<SwarmResult>(&part);
        ASSERT_NE(part_res, nullptr);
        std::string err;
        ASSERT_TRUE(serve::mergeSwarmResult(merged, *part_res, err))
            << err;
        first += 2 * kSwarmBlock;
    }
    EXPECT_EQ(serve::encodeResponsePayload(Response{merged}),
              serve::encodeResponsePayload(all));
}

TEST(SwarmWire, EngineRejectsInvalidJob)
{
    SwarmConfig job;
    job.deviceCount = 0;
    Engine engine(Engine::Options{1, 1u << 20, ""});
    const Response resp = engine.execute(Request{job});
    const auto *err = std::get_if<serve::ErrorResult>(&resp);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, serve::ErrorCode::kBadRequest);
}

// --- audit log --------------------------------------------------------

std::string
auditPath(const char *name)
{
    return testing::TempDir() + "/" + name;
}

void
writeEvents(AuditWriter &w, std::uint32_t n)
{
    for (std::uint32_t i = 0; i < n; ++i)
        w.append(AuditEvent::kDeviceUp, i, i * 2, i * 3);
}

TEST(AuditLog, CleanChainVerifies)
{
    const std::string path = auditPath("audit_clean.bin");
    std::remove(path.c_str());
    {
        AuditWriter w(path);
        EXPECT_EQ(w.gapsOnOpen(), 0u);
        writeEvents(w, 10);
    }
    const AuditVerifyReport report = verifyAuditLog(path);
    EXPECT_EQ(report.status, AuditStatus::kOk);
    EXPECT_EQ(report.records, 10u);
    EXPECT_EQ(report.gaps, 0u);
    EXPECT_EQ(report.trailingBytes, 0u);

    const std::vector<AuditRecord> records = readAuditRecords(path);
    ASSERT_EQ(records.size(), 10u);
    for (std::uint32_t i = 0; i < 10; ++i) {
        EXPECT_EQ(records[i].seq, i);
        EXPECT_EQ(records[i].event, AuditEvent::kDeviceUp);
        EXPECT_EQ(records[i].device, i);
    }
}

TEST(AuditLog, MissingFileFailsClosed)
{
    const AuditVerifyReport report =
        verifyAuditLog(auditPath("audit_nonexistent.bin"));
    EXPECT_EQ(report.status, AuditStatus::kIoError);
}

TEST(AuditLog, KillMidRecordTearsTailThenReopenLeavesOneGap)
{
    const std::string path = auditPath("audit_torn.bin");
    std::remove(path.c_str());
    {
        AuditWriter w(path);
        writeEvents(w, 5);
        // Power loss 20 bytes into the 6th record.
        w.killAfterBytes(20);
        writeEvents(w, 3);
        EXPECT_TRUE(w.dead());
    }
    {
        const AuditVerifyReport report = verifyAuditLog(path);
        EXPECT_EQ(report.status, AuditStatus::kTornTail);
        EXPECT_EQ(report.records, 5u);
        EXPECT_EQ(report.trailingBytes, 20u);
    }
    // Reopening keeps the valid prefix and records exactly one gap
    // artifact carrying the dropped byte count, re-anchored on the
    // last valid record's chain value.
    {
        AuditWriter w(path);
        EXPECT_EQ(w.gapsOnOpen(), 1u);
        EXPECT_EQ(w.nextSeq(), 6u);
        writeEvents(w, 2);
    }
    const AuditVerifyReport report = verifyAuditLog(path);
    EXPECT_EQ(report.status, AuditStatus::kOk);
    EXPECT_EQ(report.records, 8u);
    EXPECT_EQ(report.gaps, 1u);
    const std::vector<AuditRecord> records = readAuditRecords(path);
    ASSERT_EQ(records.size(), 8u);
    EXPECT_EQ(records[5].event, AuditEvent::kGap);
    EXPECT_EQ(records[5].a, 20u);
}

TEST(AuditLog, CleanReopenContinuesWithoutGap)
{
    const std::string path = auditPath("audit_reopen.bin");
    std::remove(path.c_str());
    {
        AuditWriter w(path);
        writeEvents(w, 4);
    }
    {
        AuditWriter w(path);
        EXPECT_EQ(w.gapsOnOpen(), 0u);
        EXPECT_EQ(w.nextSeq(), 4u);
        writeEvents(w, 4);
    }
    const AuditVerifyReport report = verifyAuditLog(path);
    EXPECT_EQ(report.status, AuditStatus::kOk);
    EXPECT_EQ(report.records, 8u);
    EXPECT_EQ(report.gaps, 0u);
}

TEST(AuditLog, SingleBitTamperIsRejected)
{
    const std::string path = auditPath("audit_tamper.bin");
    std::remove(path.c_str());
    {
        AuditWriter w(path);
        writeEvents(w, 10);
    }
    // Flip one bit in the payload of record 4.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        const std::streamoff off =
            std::streamoff(kAuditHeaderBytes + 4 * kAuditRecordBytes + 9);
        f.seekg(off);
        char byte = 0;
        f.read(&byte, 1);
        byte = char(byte ^ 0x10);
        f.seekp(off);
        f.write(&byte, 1);
    }
    const AuditVerifyReport report = verifyAuditLog(path);
    EXPECT_EQ(report.status, AuditStatus::kCorrupt);
    EXPECT_EQ(report.records, 4u);
    EXPECT_EQ(report.firstBadRecord, 4u);
    // Fail-closed: the reader exposes only the pre-tamper prefix.
    EXPECT_EQ(readAuditRecords(path).size(), 4u);
}

TEST(AuditLog, TruncationIsDetected)
{
    const std::string path = auditPath("audit_trunc.bin");
    std::remove(path.c_str());
    {
        AuditWriter w(path);
        writeEvents(w, 6);
    }
    // Chop the file mid-way through the last record.
    {
        std::ifstream in(path, std::ios::binary);
        std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
        bytes.resize(bytes.size() - 30);
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), std::streamsize(bytes.size()));
    }
    const AuditVerifyReport report = verifyAuditLog(path);
    EXPECT_EQ(report.status, AuditStatus::kTornTail);
    EXPECT_EQ(report.records, 5u);
    EXPECT_EQ(report.trailingBytes, kAuditRecordBytes - 30);
}

TEST(AuditLog, SwarmRunEmitsVerifiableLog)
{
    const std::string path = auditPath("audit_swarm.bin");
    std::remove(path.c_str());
    SwarmConfig cfg;
    cfg.deviceCount = 600;
    cfg.traceSeconds = 60.0;
    cfg.anomalyEvery = 100;
    util::ThreadPool pool(4);
    {
        AuditWriter audit(path);
        runSwarmShard(cfg, pool, &audit, 100);
    }
    const AuditVerifyReport report = verifyAuditLog(path);
    EXPECT_EQ(report.status, AuditStatus::kOk);
    EXPECT_GT(report.records, 2u); // shard begin/end plus device events

    const std::vector<AuditRecord> records = readAuditRecords(path);
    ASSERT_GT(records.size(), 2u);
    EXPECT_EQ(records.front().event, AuditEvent::kShardBegin);
    EXPECT_EQ(records.back().event, AuditEvent::kShardEnd);

    // The audit stream is deterministic: a rerun produces identical
    // bytes.
    const std::string path2 = auditPath("audit_swarm2.bin");
    std::remove(path2.c_str());
    {
        AuditWriter audit(path2);
        runSwarmShard(cfg, pool, &audit, 100);
    }
    std::ifstream a(path, std::ios::binary);
    std::ifstream b(path2, std::ios::binary);
    const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                              std::istreambuf_iterator<char>());
    const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_a, bytes_b);
    EXPECT_FALSE(bytes_a.empty());
}

} // namespace
} // namespace swarm
} // namespace fs
