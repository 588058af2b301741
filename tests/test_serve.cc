/**
 * @file
 * Tests for the fs::serve subsystem: canonical wire format (encode /
 * decode round-trips under fuzzed inputs, framing edge cases, version
 * mismatch answered with a typed error), the content-addressed result
 * cache (LRU eviction, disk spill, kill switch), and the determinism
 * contract that makes caching sound -- cold, cached, and batched
 * responses are byte-identical at 1 and 8 worker threads, in-process
 * and across a live Unix-domain socket.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "analysis/lint_images.h"
#include "fault/torture_rig.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/random.h"

namespace fs {
namespace serve {
namespace {

// --- fuzzed round-trips ----------------------------------------------

std::string
randomString(Rng &rng, std::size_t max_len)
{
    const std::size_t len = std::size_t(
        rng.uniformInt(0, std::int64_t(max_len)));
    std::string s;
    for (std::size_t i = 0; i < len; ++i)
        s.push_back(char(rng.uniformInt(1, 255)));
    return s;
}

ConfigWire
randomConfig(Rng &rng)
{
    ConfigWire c;
    c.roStages = std::uint64_t(rng.uniformInt(3, 501));
    c.sampleRate = rng.uniform(1.0, 1e6);
    c.counterBits = std::uint64_t(rng.uniformInt(1, 24));
    c.enableTime = rng.uniform(0.0, 1e-3);
    c.nvmEntries = std::uint64_t(rng.uniformInt(1, 4096));
    c.entryBits = std::uint64_t(rng.uniformInt(1, 32));
    c.dividerTap = std::uint64_t(rng.uniformInt(1, 7));
    c.dividerTotal = std::uint64_t(rng.uniformInt(1, 9));
    c.strategy = std::uint8_t(rng.uniformInt(0, 3));
    return c;
}

core::Performance
randomPerf(Rng &rng)
{
    core::Performance p;
    p.realizable = rng.uniformInt(0, 1) != 0;
    p.rejectReason = randomString(rng, 24);
    p.meanCurrent = rng.uniform(-1.0, 1.0);
    p.sampleRate = rng.uniform(0.0, 1e7);
    p.granularity = rng.uniform(0.0, 1.0);
    p.nvmBytes = std::uint64_t(rng.uniformInt(0, 1 << 20));
    p.transistors = std::uint64_t(rng.uniformInt(0, 1 << 24));
    p.quantizationError = rng.uniform(0.0, 0.5);
    p.thermalError = rng.uniform(0.0, 0.5);
    p.interpolationError = rng.uniform(0.0, 0.5);
    return p;
}

WorkloadSpec
randomWorkload(Rng &rng)
{
    WorkloadSpec w;
    w.kind = WorkloadSpec::Kind(rng.uniformInt(0, 3));
    w.a = std::uint32_t(rng.uniformInt(1, 1 << 16));
    w.b = std::uint32_t(rng.uniformInt(0, 1 << 16));
    w.seed = std::uint64_t(rng.uniformInt(0, 1 << 30));
    return w;
}

std::vector<Request>
randomRequests(Rng &rng)
{
    RoSweepJob ro;
    ro.tech = randomString(rng, 16);
    ro.stages = std::uint32_t(rng.uniformInt(3, 501));
    ro.cell = std::uint8_t(rng.uniformInt(0, 1));
    ro.speed = rng.uniform(0.5, 1.5);
    ro.tempC = rng.uniform(-40.0, 125.0);
    ro.vStart = rng.uniform(0.1, 1.0);
    ro.vEnd = ro.vStart + rng.uniform(0.0, 3.0);
    ro.vStep = rng.uniform(0.01, 0.5);

    DesignPointJob dp;
    dp.tech = randomString(rng, 16);
    dp.config = randomConfig(rng);

    DseShardJob dse;
    dse.tech = randomString(rng, 16);
    dse.populationSize = std::uint32_t(rng.uniformInt(4, 512));
    dse.generations = std::uint32_t(rng.uniformInt(0, 200));
    dse.seed = std::uint64_t(rng.uniformInt(0, 1 << 30));
    dse.fixedRate = rng.uniform(0.0, 1e5);
    dse.exploreDivider = std::uint8_t(rng.uniformInt(0, 1));

    TortureJob torture;
    torture.workload = randomWorkload(rng);
    torture.sramSize = std::uint32_t(rng.uniformInt(256, 1 << 16));
    torture.stableCycles = std::uint64_t(rng.uniformInt(1, 1 << 20));
    torture.lowCycles = std::uint64_t(rng.uniformInt(1, 1 << 20));
    torture.seed = std::uint64_t(rng.uniformInt(0, 1 << 30));
    torture.killsPerWindow = std::uint32_t(rng.uniformInt(0, 64));
    torture.randomKills = std::uint32_t(rng.uniformInt(0, 64));
    torture.exhaustivePoints = std::uint64_t(rng.uniformInt(0, 1 << 30));
    torture.pointOffset = std::uint64_t(rng.uniformInt(0, 1 << 30));
    torture.pointCount = std::uint64_t(rng.uniformInt(0, 1 << 30));
    torture.coverageMap = std::uint8_t(rng.uniformInt(0, 1));

    GuestRunJob guest;
    guest.workload = randomWorkload(rng);
    guest.traceCache = std::uint8_t(rng.uniformInt(0, 1));

    LintImageJob lint;
    lint.name = randomString(rng, 16);
    const std::size_t words =
        std::size_t(rng.uniformInt(1, 48));
    for (std::size_t i = 0; i < words; ++i)
        lint.code.push_back(
            std::uint32_t(rng.uniformInt(0, 0xffffffffLL)));
    lint.emitPruning = std::uint8_t(rng.uniformInt(0, 1));

    swarm::SwarmConfig swarm;
    swarm.deviceCount = std::uint64_t(rng.uniformInt(1, 1 << 30));
    swarm.firstDevice = std::uint64_t(rng.uniformInt(0, 1 << 20)) *
                        swarm::kSwarmBlock;
    swarm.spanDevices = std::uint64_t(rng.uniformInt(0, 1 << 30));
    swarm.seed = std::uint64_t(rng.uniformInt(0, 1LL << 62));
    swarm.profile = swarm::HarvestProfile(rng.uniformInt(0, 4));
    swarm.traceSeconds = rng.uniform(1.0, 1e5);
    swarm.segmentSeconds = rng.uniform(0.1, 60.0);
    swarm.ckptPeriodS = rng.uniform(0.01, 10.0);
    swarm.zThreshold = rng.uniform(1.0, 8.0);
    swarm.warmup = std::uint32_t(rng.uniformInt(0, 1024));
    swarm.tripsToFlag = std::uint32_t(rng.uniformInt(1, 16));
    swarm.anomalyEvery = std::uint64_t(rng.uniformInt(0, 1000));
    swarm.anomalyFactor = rng.uniform(0.0, 2.0);
    swarm.traceCsv = randomString(rng, 64);

    return {ro, dp, dse, torture, guest, lint, swarm};
}

swarm::SwarmAggregates
randomAggregates(Rng &rng)
{
    swarm::SwarmAggregates a;
    const std::uint64_t blocks = std::uint64_t(rng.uniformInt(0, 4));
    a.firstBlock = std::uint64_t(rng.uniformInt(0, 1 << 20));
    a.deviceCount = blocks == 0
                        ? 0
                        : (blocks - 1) * swarm::kSwarmBlock +
                              std::uint64_t(rng.uniformInt(
                                  1, std::int64_t(swarm::kSwarmBlock)));
    a.blocks.resize(std::size_t(blocks));
    for (swarm::BlockStats &b : a.blocks)
        for (RunningStats *s : {&b.lifetime, &b.cadence, &b.dead})
            for (std::int64_t i = rng.uniformInt(0, 3); i > 0; --i)
                s->add(rng.uniform(0.0, 1e3));
    // Up to 80 tagged draws: more than the reservoir's k of 64, so
    // some samples evict.
    for (std::int64_t i = rng.uniformInt(0, 80); i > 0; --i) {
        const std::uint64_t tag = std::uint64_t(i);
        a.lifetimeHist.add(rng.uniform(-1.0, 1e5));
        a.cadenceHist.add(rng.uniform(0.0, 2e3));
        a.deadHist.add(rng.uniform(0.0, 1e5));
        a.lifetimeSample.add(tag, rng.uniform(0.0, 1e4));
        a.cadenceSample.add(tag, rng.uniform(0.0, 10.0));
        a.deadSample.add(tag, rng.uniform(0.0, 1e3));
    }
    for (std::uint64_t *n :
         {&a.boots, &a.checkpoints, &a.failedCheckpoints,
          &a.flaggedDevices, &a.cohortDevices, &a.flaggedInCohort,
          &a.neverBooted})
        *n = std::uint64_t(rng.uniformInt(0, 1 << 30));
    return a;
}

std::vector<Response>
randomResponses(Rng &rng)
{
    RoSweepResult ro;
    const std::size_t points =
        std::size_t(rng.uniformInt(0, 64));
    for (std::size_t i = 0; i < points; ++i)
        ro.frequenciesHz.push_back(rng.uniform(0.0, 1e8));

    DesignPointResult dp{randomPerf(rng)};

    DseShardResult dse;
    const std::size_t front = std::size_t(rng.uniformInt(0, 16));
    for (std::size_t i = 0; i < front; ++i)
        dse.front.push_back({randomConfig(rng), randomPerf(rng)});

    TortureResult torture;
    torture.cleanCycles = std::uint64_t(rng.uniformInt(0, 1 << 30));
    torture.checkpoints = std::uint32_t(rng.uniformInt(0, 64));
    torture.checkpointVolts = rng.uniform(1.0, 3.0);
    const std::size_t kills = std::size_t(rng.uniformInt(0, 32));
    torture.points = std::uint32_t(kills);
    for (std::size_t i = 0; i < kills; ++i) {
        torture.outcomeFlags.push_back(
            std::uint8_t(rng.uniformInt(0, 31)));
        torture.results.push_back(
            std::uint32_t(rng.uniformInt(0, 0xffffffffLL)));
    }
    for (std::int64_t i = rng.uniformInt(0, 8); i > 0; --i) {
        TortureCoverageWire c;
        c.addr = std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
        c.cls = std::uint8_t(rng.uniformInt(0, 2));
        c.rank = std::uint32_t(rng.uniformInt(0, 1000));
        c.points = std::uint32_t(rng.uniformInt(0, 1 << 20));
        c.killed = std::uint32_t(rng.uniformInt(0, 1 << 20));
        c.correct = std::uint32_t(rng.uniformInt(0, 1 << 20));
        c.incorrect = std::uint32_t(rng.uniformInt(0, 1 << 20));
        c.coldRestarts = std::uint32_t(rng.uniformInt(0, 1 << 20));
        c.killTears = std::uint32_t(rng.uniformInt(0, 1 << 20));
        torture.coverage.push_back(c);
    }

    GuestRunResult guest;
    guest.name = randomString(rng, 24);
    guest.result = std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
    guest.expected = std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
    guest.correct = std::uint8_t(rng.uniformInt(0, 1));
    guest.instructions = std::uint64_t(rng.uniformInt(0, 1 << 30));

    LintImageResult lint;
    lint.image = randomString(rng, 24);
    lint.errors = std::uint32_t(rng.uniformInt(0, 64));
    lint.warnings = std::uint32_t(rng.uniformInt(0, 64));
    lint.notes = std::uint32_t(rng.uniformInt(0, 64));
    lint.worstCaseCommitCycles =
        std::uint64_t(rng.uniformInt(0, 1 << 30));
    lint.budgetCycles = std::uint64_t(rng.uniformInt(0, 1 << 30));
    lint.staticEnergyBound = rng.uniform(0.0, 1e-3);
    lint.energyBudgetJoules = rng.uniform(0.0, 1e-3);
    lint.reportJson = randomString(rng, 64);
    lint.pruningJson = randomString(rng, 64);

    SwarmResult swarm{randomAggregates(rng)};

    ErrorResult error;
    error.code = ErrorCode(rng.uniformInt(1, 6));
    error.message = randomString(rng, 64);

    return {ro, dp, dse, torture, guest, lint, swarm, error};
}

TEST(Wire, RequestRoundTripFuzz)
{
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        Rng rng(seed);
        for (const Request &req : randomRequests(rng)) {
            const MsgKind kind = requestKind(req);
            const std::vector<std::uint8_t> bytes =
                encodeRequestPayload(req);
            Request decoded;
            std::string err;
            ASSERT_TRUE(decodeRequestPayload(
                kind, bytes.data(), bytes.size(), decoded, err))
                << "seed " << seed << ": " << err;
            // Canonical encoding: decode then re-encode reproduces
            // the exact bytes (this is what content addressing needs).
            EXPECT_EQ(encodeRequestPayload(decoded), bytes)
                << "seed " << seed << " kind "
                << unsigned(kind);
            EXPECT_EQ(requestKey(kind, bytes),
                      requestKey(kind, encodeRequestPayload(decoded)));
        }
    }
}

TEST(Wire, ResponseRoundTripFuzz)
{
    for (std::uint64_t seed = 100; seed < 116; ++seed) {
        Rng rng(seed);
        for (const Response &resp : randomResponses(rng)) {
            const MsgKind kind = responseKind(resp);
            const std::vector<std::uint8_t> bytes =
                encodeResponsePayload(resp);
            Response decoded;
            std::string err;
            ASSERT_TRUE(decodeResponsePayload(
                kind, bytes.data(), bytes.size(), decoded, err))
                << "seed " << seed << ": " << err;
            EXPECT_EQ(encodeResponsePayload(decoded), bytes)
                << "seed " << seed << " kind "
                << unsigned(kind);
        }
    }
}

TEST(Wire, TruncatedPayloadsAreRejectedAtEveryLength)
{
    Rng rng(7);
    for (const Request &req : randomRequests(rng)) {
        const MsgKind kind = requestKind(req);
        const std::vector<std::uint8_t> bytes =
            encodeRequestPayload(req);
        for (std::size_t len = 0; len < bytes.size(); ++len) {
            Request decoded;
            std::string err;
            EXPECT_FALSE(decodeRequestPayload(kind, bytes.data(),
                                              len, decoded, err))
                << "prefix " << len << "/" << bytes.size();
        }
    }
    for (const Response &resp : randomResponses(rng)) {
        const MsgKind kind = responseKind(resp);
        const std::vector<std::uint8_t> bytes =
            encodeResponsePayload(resp);
        for (std::size_t len = 0; len < bytes.size(); ++len) {
            Response decoded;
            std::string err;
            EXPECT_FALSE(decodeResponsePayload(kind, bytes.data(),
                                               len, decoded, err))
                << "kind " << unsigned(kind) << " prefix " << len
                << "/" << bytes.size();
        }
    }
}

/**
 * A 20-byte kSwarmReply claiming 0xFFFFFFFF blocks: firstBlock 0,
 * deviceCount 0xFFFFFFFF * 512 (consistent with that block count),
 * then the count itself.
 */
std::vector<std::uint8_t>
hostileSwarmReply()
{
    std::vector<std::uint8_t> bytes;
    auto le = [&bytes](std::uint64_t v, int n) {
        for (int i = 0; i < n; ++i)
            bytes.push_back(std::uint8_t(v >> (8 * i)));
    };
    le(0, 8);
    le(0xFFFFFFFFull * swarm::kSwarmBlock, 8);
    le(0xFFFFFFFFull, 4);
    return bytes;
}

TEST(Wire, MalformedPayloadsAreTypedErrors)
{
    // A bool travels as one byte; any value but 0 or 1 would decode
    // and then re-encode to different bytes.
    std::vector<std::uint8_t> bad_bool =
        encodeResponsePayload(DesignPointResult{});
    bad_bool[0] = 2;

    const struct {
        MsgKind kind;
        std::vector<std::uint8_t> bytes;
        const char *error;
    } cases[] = {
        // The element count must not size an allocation up front.
        {MsgKind::kSwarmReply, hostileSwarmReply(), "truncated"},
        {MsgKind::kDesignPointReply, bad_bool, "bool"},
    };
    for (const auto &c : cases) {
        Response decoded;
        std::string err;
        EXPECT_FALSE(decodeResponsePayload(c.kind, c.bytes.data(),
                                           c.bytes.size(), decoded,
                                           err))
            << "kind " << unsigned(c.kind);
        EXPECT_NE(err.find(c.error), std::string::npos) << err;
    }
}

TEST(Wire, TrailingBytesAreRejected)
{
    const Request req = RoSweepJob{};
    std::vector<std::uint8_t> bytes = encodeRequestPayload(req);
    bytes.push_back(0);
    Request decoded;
    std::string err;
    EXPECT_FALSE(decodeRequestPayload(requestKind(req), bytes.data(),
                                      bytes.size(), decoded, err));
    EXPECT_NE(err.find("trailing"), std::string::npos);
}

TEST(Wire, FrameParsingHandlesPartialBadAndOversized)
{
    const std::vector<std::uint8_t> payload =
        encodeRequestPayload(Request(GuestRunJob{}));
    const std::vector<std::uint8_t> framed =
        frameMessage(MsgKind::kGuestRun, payload);

    Frame frame;
    std::size_t consumed = 0;
    // Every strict prefix is kNeedMore, never kOk and never an error.
    for (std::size_t len = 0; len < framed.size(); ++len) {
        EXPECT_EQ(parseFrame(framed.data(), len, frame, consumed),
                  FrameStatus::kNeedMore)
            << "prefix " << len;
        EXPECT_EQ(consumed, 0u);
    }
    ASSERT_EQ(parseFrame(framed.data(), framed.size(), frame,
                         consumed),
              FrameStatus::kOk);
    EXPECT_EQ(consumed, framed.size());
    EXPECT_EQ(frame.kind, MsgKind::kGuestRun);
    EXPECT_EQ(frame.payload, payload);

    std::vector<std::uint8_t> bad_magic = framed;
    bad_magic[0] ^= 0xff;
    EXPECT_EQ(parseFrame(bad_magic.data(), bad_magic.size(), frame,
                         consumed),
              FrameStatus::kBadMagic);

    std::vector<std::uint8_t> oversized = framed;
    const std::uint32_t huge = kMaxFramePayload + 1;
    std::memcpy(oversized.data() + 8, &huge, 4);
    EXPECT_EQ(parseFrame(oversized.data(), oversized.size(), frame,
                         consumed),
              FrameStatus::kOversized);
}

TEST(Wire, VersionMismatchConsumesTheFrame)
{
    const std::vector<std::uint8_t> payload =
        encodeRequestPayload(Request(RoSweepJob{}));
    std::vector<std::uint8_t> framed =
        frameMessage(MsgKind::kRoSweep, payload);
    const std::uint16_t wrong = kWireVersion + 1;
    std::memcpy(framed.data() + 4, &wrong, 2);
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(parseFrame(framed.data(), framed.size(), frame,
                         consumed),
              FrameStatus::kVersionMismatch);
    // Consuming the whole frame keeps the stream in sync so the
    // server can answer with a typed error instead of hanging.
    EXPECT_EQ(consumed, framed.size());
    EXPECT_EQ(frame.version, wrong);
}

TEST(Wire, RequestKeyDistinguishesKindAndContent)
{
    GuestRunJob a;
    GuestRunJob b = a;
    b.workload.seed += 1;
    const auto pa = encodeRequestPayload(Request(a));
    const auto pb = encodeRequestPayload(Request(b));
    EXPECT_NE(requestKey(MsgKind::kGuestRun, pa),
              requestKey(MsgKind::kGuestRun, pb));
    // Same payload bytes under a different kind must address
    // differently too.
    EXPECT_NE(requestKey(MsgKind::kGuestRun, pa),
              requestKey(MsgKind::kTorture, pa));
}

// --- golden bytes ----------------------------------------------------

/** Short payloads as hex; longer ones as "<length>:<FNV-1a 64>". */
std::string
golden(const std::vector<std::uint8_t> &bytes)
{
    char buf[40];
    std::string out;
    if (bytes.size() <= 48) {
        for (std::uint8_t b : bytes) {
            std::snprintf(buf, sizeof buf, "%02x", unsigned(b));
            out += buf;
        }
        return out;
    }
    std::snprintf(buf, sizeof buf, "%zu:%016llx", bytes.size(),
                  (unsigned long long)fnv1a64(bytes.data(),
                                              bytes.size()));
    return buf;
}

ConfigWire
goldenConfig()
{
    ConfigWire c;
    c.roStages = 15;
    c.sampleRate = 2500.0;
    c.counterBits = 10;
    c.enableTime = 2e-5;
    c.nvmEntries = 64;
    c.entryBits = 12;
    c.dividerTap = 2;
    c.dividerTotal = 5;
    c.strategy = 1;
    return c;
}

/** One fixed, non-default instance of every request kind. */
std::vector<Request>
goldenRequests()
{
    RoSweepJob ro;
    ro.tech = "65nm";
    ro.stages = 31;
    ro.cell = 1;
    ro.speed = 1.05;
    ro.tempC = 85.0;
    ro.vStart = 0.5;
    ro.vEnd = 2.5;
    ro.vStep = 0.25;

    DesignPointJob dp;
    dp.tech = "130nm";
    dp.config = goldenConfig();

    DseShardJob dse;
    dse.tech = "45nm";
    dse.populationSize = 32;
    dse.generations = 7;
    dse.seed = 0xABCDEF;
    dse.fixedRate = 1e3;
    dse.exploreDivider = 1;

    TortureJob torture;
    torture.workload = {WorkloadSpec::Kind::kFir, 8, 64, 99};
    torture.sramSize = 2048;
    torture.stableCycles = 70'000;
    torture.lowCycles = 25'000;
    torture.seed = 0x1234;
    torture.killsPerWindow = 2;
    torture.randomKills = 5;
    torture.exhaustivePoints = 1000;
    torture.pointOffset = 250;
    torture.pointCount = 125;
    torture.coverageMap = 1;

    GuestRunJob guest;
    guest.workload = {WorkloadSpec::Kind::kMatmul, 6, 0, 7};
    guest.traceCache = 0;

    LintImageJob lint;
    lint.name = "demo";
    lint.code = {0x00000013u, 0xdeadbeefu, 0x12345678u};
    lint.emitPruning = 0;

    // The kSwarm alternative of Request.
    std::variant_alternative_t<6, Request> swarm;
    swarm.deviceCount = 4096;
    swarm.firstDevice = 1024;
    swarm.spanDevices = 2048;
    swarm.seed = 77;
    swarm.profile = decltype(swarm.profile)(2); // diurnal
    swarm.traceSeconds = 120.0;
    swarm.segmentSeconds = 2.5;
    swarm.ckptPeriodS = 0.5;
    swarm.zThreshold = 3.5;
    swarm.warmup = 8;
    swarm.tripsToFlag = 3;
    swarm.anomalyEvery = 50;
    swarm.anomalyFactor = 0.5;
    swarm.traceCsv = "t,p\n0,1\n";

    return {ro, dp, dse, torture, guest, lint, swarm};
}

/** One fixed, non-default instance of every response kind. */
std::vector<Response>
goldenResponses()
{
    RoSweepResult ro;
    ro.frequenciesHz = {1.5e6, 2.25e6, 3e6};

    DesignPointResult dp;
    dp.perf.realizable = true;
    dp.perf.meanCurrent = 1.25e-6;
    dp.perf.sampleRate = 1000.0;
    dp.perf.granularity = 0.05;
    dp.perf.nvmBytes = 96;
    dp.perf.transistors = 1234;
    dp.perf.quantizationError = 0.01;
    dp.perf.thermalError = 0.02;
    dp.perf.interpolationError = 0.003;

    DseShardResult dse;
    dse.front.resize(2);
    dse.front[0].config = goldenConfig();
    dse.front[0].perf = dp.perf;
    dse.front[1].config.strategy = 3;
    dse.front[1].perf.rejectReason = "too slow";
    dse.front[1].perf.sampleRate = 50.0;

    TortureResult torture;
    torture.cleanCycles = 123456;
    torture.checkpoints = 7;
    torture.checkpointVolts = 2.1;
    torture.points = 3;
    torture.killed = 3;
    torture.killTears = 1;
    torture.coldRestarts = 1;
    torture.correct = 2;
    torture.incorrect = 1;
    torture.outcomeFlags = {0x19, 0x13, 0x05};
    torture.results = {0xCAFEu, 0xBEEFu, 0u};
    torture.coverage = {{0x100, 2, 1, 2, 2, 1, 1, 0, 1},
                        {kNoCoverageSite, 0, 0, 1, 1, 1, 0, 1, 0}};

    GuestRunResult guest;
    guest.name = "sort-64";
    guest.result = 42;
    guest.expected = 42;
    guest.correct = 1;
    guest.instructions = 987654;

    LintImageResult lint;
    lint.image = "checkpoint-runtime";
    lint.errors = 1;
    lint.warnings = 2;
    lint.notes = 3;
    lint.worstCaseCommitCycles = 5000;
    lint.budgetCycles = 6000;
    lint.staticEnergyBound = 1e-6;
    lint.energyBudgetJoules = 2e-6;
    lint.reportJson = "{\"a\":1}";
    lint.pruningJson = "{}";

    SwarmResult swarm;
    swarm::SwarmAggregates &a = swarm.agg;
    a.firstBlock = 2;
    a.deviceCount = 1024;
    a.blocks.resize(2);
    a.blocks[0].lifetime.add(1.0);
    a.blocks[0].lifetime.add(3.0);
    a.blocks[0].cadence.add(0.5);
    a.blocks[1].dead.add(2.0);
    a.lifetimeHist.add(12.0);
    a.cadenceHist.add(0.7);
    a.deadHist.add(5.0);
    a.deadHist.addUnderflow(1);
    a.lifetimeSample.add(1024, 2.0);
    a.lifetimeSample.add(1500, 4.0);
    a.cadenceSample.add(1100, 0.6);
    a.deadSample.add(2000, 1.5);
    a.boots = 10;
    a.checkpoints = 20;
    a.failedCheckpoints = 1;
    a.flaggedDevices = 2;
    a.cohortDevices = 3;
    a.flaggedInCohort = 2;
    a.neverBooted = 1;

    ErrorResult error;
    error.code = ErrorCode::kOverloaded;
    error.message = "queue full";

    return {ro, dp, dse, torture, guest, lint, swarm, error};
}

TEST(Wire, GoldenBytesArePinned)
{
    // A field reordered identically in encoder and decoder survives
    // every round-trip test; only pinned bytes catch it. Changing any
    // line below changes the wire format: bump kWireVersion with it.
    EXPECT_EQ(kWireVersion, 3);

    const char *const request_bytes[] = {
        "53:b13611a329d8dedc",
        "74:2d2bfc3689408320",
        "0400000034356e6d2000000007000000efcdab00000000000000000000408f4001",
        "78:3122398a9a2e15ec",
        "030600000000000000070000000000000000",
        "0400000064656d6f0300000013000000efbeadde7856341200",
        "104:a296961b687d7668",
    };
    const std::vector<Request> requests = goldenRequests();
    ASSERT_EQ(requests.size(), std::size(request_bytes));
    for (std::size_t i = 0; i < requests.size(); ++i)
        EXPECT_EQ(golden(encodeRequestPayload(requests[i])),
                  request_bytes[i])
            << "request kind " << unsigned(requestKind(requests[i]));

    const char *const response_bytes[] = {
        "030000000000000060e3364100000000882a41410000000060e34641",
        "69:b20c982d1eebc2ef",
        "280:7d13b788ca520b5b",
        "141:e19991a9fa6840b2",
        "07000000736f72742d36342a0000002a0000000106120f0000000000",
        "83:63dff676931dddf5",
        "1676:cb407193515e1a7c",
        "04000a00000071756575652066756c6c",
    };
    const std::vector<Response> responses = goldenResponses();
    ASSERT_EQ(responses.size(), std::size(response_bytes));
    for (std::size_t i = 0; i < responses.size(); ++i)
        EXPECT_EQ(golden(encodeResponsePayload(responses[i])),
                  response_bytes[i])
            << "response kind " << unsigned(responseKind(responses[i]));

    PingJob ping;
    ping.nonce = 0x0123456789ABCDEFull;
    EXPECT_EQ(golden(encodePing(ping)), "efcdab8967452301");
    PingResult pong;
    pong.nonce = ping.nonce;
    pong.queueDepth = 3;
    pong.cacheEntries = 42;
    pong.draining = 1;
    EXPECT_EQ(golden(encodePingResult(pong)),
              "efcdab8967452301030000002a0000000000000001");

    CacheInsertJob insert;
    insert.key = 0xFEEDFACECAFEBEEFull;
    insert.kind = std::uint16_t(MsgKind::kGuestRunReply);
    insert.payload = {1, 2, 3, 4, 5};
    EXPECT_EQ(golden(encodeCacheInsert(insert)),
              "efbefecacefaedfe0580050000000102030405");
    CacheInsertResult stored;
    stored.stored = 1;
    EXPECT_EQ(golden(encodeCacheInsertResult(stored)), "01");

    EXPECT_EQ(golden(frameMessage(MsgKind::kTorture, {0xAA, 0xBB})),
              "565253460300040002000000aabb");
    EXPECT_EQ(requestKey(MsgKind::kGuestRun,
                         encodeRequestPayload(requests[4])),
              0xb9db5bab0a74a29bull);
}

// --- result cache ----------------------------------------------------

std::vector<std::uint8_t>
payloadOfSize(std::size_t n, std::uint8_t fill)
{
    return std::vector<std::uint8_t>(n, fill);
}

TEST(ResultCache, EvictsLeastRecentlyUsedByBytes)
{
    ResultCache cache(250);
    cache.insert(1, MsgKind::kErrorReply, payloadOfSize(100, 1));
    cache.insert(2, MsgKind::kErrorReply, payloadOfSize(100, 2));
    MsgKind kind;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(cache.lookup(1, kind, payload)); // 1 is now MRU
    cache.insert(3, MsgKind::kErrorReply, payloadOfSize(100, 3));
    EXPECT_TRUE(cache.lookup(1, kind, payload));
    EXPECT_FALSE(cache.lookup(2, kind, payload)); // LRU victim
    ASSERT_TRUE(cache.lookup(3, kind, payload));
    EXPECT_EQ(payload, payloadOfSize(100, 3));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_LE(cache.bytesUsed(), 250u);
}

TEST(ResultCache, LruOrderMatchesAReferenceList)
{
    // Random inserts (some replacing a live key at a new size) and
    // lookups against a std::list model of the LRU order and the byte
    // budget: every hit, miss, payload and eviction must agree.
    constexpr std::size_t kBudget = 1000;
    ResultCache cache(kBudget);
    std::list<std::pair<std::uint64_t, std::size_t>> model; // newest first
    std::size_t model_bytes = 0;
    Rng rng(7);
    MsgKind kind;
    std::vector<std::uint8_t> payload;
    for (int step = 0; step < 5000; ++step) {
        const auto key = std::uint64_t(rng.uniformInt(0, 40));
        auto it = std::find_if(model.begin(), model.end(),
                               [key](const auto &e) {
                                   return e.first == key;
                               });
        if (rng.bernoulli(0.5)) {
            const auto size = std::size_t(rng.uniformInt(0, 300));
            cache.insert(key, MsgKind::kErrorReply,
                         payloadOfSize(size, std::uint8_t(key)));
            if (it != model.end()) {
                model_bytes -= it->second;
                model.erase(it);
            }
            model.emplace_front(key, size);
            model_bytes += size;
            while (model_bytes > kBudget && model.size() > 1) {
                model_bytes -= model.back().second;
                model.pop_back();
            }
        } else {
            const bool hit = cache.lookup(key, kind, payload);
            ASSERT_EQ(hit, it != model.end()) << "step " << step;
            if (hit) {
                EXPECT_EQ(payload,
                          payloadOfSize(it->second, std::uint8_t(key)));
                model.splice(model.begin(), model, it);
            }
        }
        ASSERT_EQ(cache.entryCount(), model.size()) << "step " << step;
        ASSERT_EQ(cache.bytesUsed(), model_bytes) << "step " << step;
    }
    EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ResultCache, SpillDirectorySurvivesRestartAndRejectsCorruption)
{
    const std::string dir = testing::TempDir() + "fs_spill_test";
    const std::vector<std::uint8_t> payload = payloadOfSize(64, 0xab);
    {
        ResultCache cache(1 << 20, dir);
        cache.insert(42, MsgKind::kGuestRunReply, payload);
    }
    ResultCache fresh(1 << 20, dir);
    MsgKind kind;
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(fresh.lookup(42, kind, got));
    EXPECT_EQ(kind, MsgKind::kGuestRunReply);
    EXPECT_EQ(got, payload);
    EXPECT_EQ(fresh.stats().diskHits, 1u);
    // Promoted into memory: the second lookup is a memory hit.
    ASSERT_TRUE(fresh.lookup(42, kind, got));
    EXPECT_EQ(fresh.stats().hits, 1u);

    // A corrupt spill file is a miss, not a crash or a wrong answer.
    ResultCache other(1 << 20, dir);
    {
        std::ofstream out(other.spillPath(43), std::ios::binary);
        out << "garbage that is not a frame";
    }
    EXPECT_FALSE(other.lookup(43, kind, got));
    std::remove(other.spillPath(42).c_str());
    std::remove(other.spillPath(43).c_str());
}

TEST(ResultCache, DiscardsBitFlippedAndTruncatedSpillFiles)
{
    const std::string dir = testing::TempDir() + "fs_spill_damage";
    const std::vector<std::uint8_t> payload = payloadOfSize(96, 0x5a);
    MsgKind kind;
    std::vector<std::uint8_t> got;

    // Bit rot: flip one payload bit on disk. The digest trailer must
    // catch it -- a miss and a deleted file, never the damaged bytes.
    {
        ResultCache cache(1 << 20, dir);
        cache.insert(7, MsgKind::kGuestRunReply, payload);
    }
    {
        ResultCache victim(1 << 20, dir);
        const std::string path = victim.spillPath(7);
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(20); // inside the payload, past the frame header
        char byte;
        f.get(byte);
        f.seekp(20);
        f.put(char(byte ^ 0x10));
        f.close();
        EXPECT_FALSE(victim.lookup(7, kind, got));
        EXPECT_EQ(victim.stats().spillDiscarded, 1u);
        std::ifstream gone(path, std::ios::binary);
        EXPECT_FALSE(gone.is_open()) << "corrupt file must be deleted";
        // The miss is recoverable: a fresh insert republishes.
        victim.insert(7, MsgKind::kGuestRunReply, payload);
    }

    // Crash mid-write: truncate at every possible length. Each prefix
    // is a miss (detected via digest or frame length), never a crash.
    {
        ResultCache cache(1 << 20, dir);
        const std::string path = cache.spillPath(7);
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.is_open());
        std::vector<char> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        in.close();
        for (std::size_t keep = 0; keep < bytes.size(); keep += 7) {
            {
                std::ofstream out(path, std::ios::binary);
                out.write(bytes.data(), std::streamsize(keep));
            }
            ResultCache fresh(1 << 20, dir);
            EXPECT_FALSE(fresh.lookup(7, kind, got))
                << "prefix " << keep << "/" << bytes.size();
            EXPECT_EQ(fresh.stats().spillDiscarded, 1u);
        }
        // And the undamaged file still loads.
        {
            std::ofstream out(path, std::ios::binary);
            out.write(bytes.data(), std::streamsize(bytes.size()));
        }
        ResultCache fresh(1 << 20, dir);
        ASSERT_TRUE(fresh.lookup(7, kind, got));
        EXPECT_EQ(kind, MsgKind::kGuestRunReply);
        EXPECT_EQ(got, payload);
        std::remove(path.c_str());
    }
}

// --- engine determinism ----------------------------------------------

/** Small-but-real jobs, one of each type. */
std::vector<Request>
sampleJobs()
{
    RoSweepJob ro;
    ro.vStart = 0.4;
    ro.vEnd = 1.2;
    ro.vStep = 0.1;

    DesignPointJob dp;

    DseShardJob dse;
    dse.populationSize = 24;
    dse.generations = 2;

    TortureJob torture;
    torture.workload.kind = WorkloadSpec::Kind::kCrc32;
    torture.workload.a = 1024;
    torture.randomKills = 4;

    GuestRunJob guest;
    guest.workload.kind = WorkloadSpec::Kind::kSort;
    guest.workload.a = 64;

    LintImageJob lint;
    lint.name = "demo-war";
    for (const analysis::LintImage &image : analysis::lintImages())
        if (image.name == lint.name)
            lint.code = image.code;

    return {ro, dp, dse, torture, guest, lint};
}

Engine::Options
engineOptions(std::size_t threads)
{
    Engine::Options opts;
    opts.threads = threads;
    return opts;
}

TEST(Engine, ColdCachedAndBatchedBytesAreIdenticalAcrossThreads)
{
    Engine one(engineOptions(1));
    Engine eight(engineOptions(8));
    const std::vector<Request> jobs = sampleJobs();

    std::vector<std::vector<std::uint8_t>> cold;
    for (const Request &req : jobs) {
        const ServedResponse a = one.serve(req);
        EXPECT_FALSE(a.fromCache);
        EXPECT_NE(a.kind, MsgKind::kErrorReply);
        const ServedResponse b = one.serve(req);
        EXPECT_TRUE(b.fromCache);
        EXPECT_EQ(a.payload, b.payload);
        EXPECT_EQ(a.kind, b.kind);
        cold.push_back(a.payload);
    }
    // 8 worker threads, fresh cache: byte-identical to 1 thread.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ServedResponse r = eight.serve(jobs[i]);
        EXPECT_FALSE(r.fromCache);
        EXPECT_EQ(r.payload, cold[i]) << "job " << i;
    }
    // Batched with duplicates, fresh engine: same bytes again, and
    // the duplicate is answered from the in-batch dedupe.
    Engine batcher(engineOptions(8));
    std::vector<Request> batch = jobs;
    batch.push_back(jobs[2]); // duplicate DSE shard
    const std::vector<ServedResponse> served =
        batcher.serveBatch(batch);
    ASSERT_EQ(served.size(), jobs.size() + 1);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(served[i].payload, cold[i]) << "job " << i;
    EXPECT_TRUE(served.back().fromCache);
    EXPECT_EQ(served.back().payload, cold[2]);
}

TEST(Engine, KillSwitchBypassesTheCache)
{
    ::setenv("FS_NO_SERVE_CACHE", "1", 1);
    Engine engine(engineOptions(1));
    const Request req = sampleJobs()[0];
    const ServedResponse a = engine.serve(req);
    const ServedResponse b = engine.serve(req);
    ::unsetenv("FS_NO_SERVE_CACHE");
    EXPECT_FALSE(a.fromCache);
    EXPECT_FALSE(b.fromCache);
    EXPECT_EQ(a.payload, b.payload); // determinism, not the cache
    EXPECT_EQ(engine.cache().entryCount(), 0u);
    // With the switch lifted the same engine caches again.
    const ServedResponse c = engine.serve(req);
    EXPECT_FALSE(c.fromCache);
    const ServedResponse d = engine.serve(req);
    EXPECT_TRUE(d.fromCache);
    EXPECT_EQ(c.payload, a.payload);
    EXPECT_EQ(d.payload, a.payload);
}

TEST(Engine, UndecodableAndInvalidRequestsAreTypedErrors)
{
    Engine engine(engineOptions(1));
    // Garbage payload bytes: kBadRequest, and never cached.
    const std::vector<std::uint8_t> junk = {1, 2, 3};
    const ServedResponse r = engine.serve(MsgKind::kRoSweep, junk);
    EXPECT_EQ(r.kind, MsgKind::kErrorReply);
    EXPECT_EQ(engine.cache().entryCount(), 0u);

    // Unknown technology: a typed error from execution.
    RoSweepJob job;
    job.tech = "13nm";
    const Response resp = engine.execute(job);
    const auto *err = std::get_if<ErrorResult>(&resp);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, ErrorCode::kBadRequest);
}

TEST(Engine, LintImageJobIsServedDeterministicallyAndValidated)
{
    Engine engine(engineOptions(2));
    LintImageJob job;
    job.name = "checkpoint-runtime";
    for (const analysis::LintImage &image : analysis::lintImages())
        if (image.name == job.name)
            job.code = image.code;
    ASSERT_FALSE(job.code.empty());

    const ServedResponse cold = engine.serve(Request(job));
    EXPECT_FALSE(cold.fromCache);
    ASSERT_EQ(cold.kind, MsgKind::kLintImageReply);
    const ServedResponse cached = engine.serve(Request(job));
    EXPECT_TRUE(cached.fromCache);
    EXPECT_EQ(cached.payload, cold.payload);

    Response resp;
    std::string err;
    ASSERT_TRUE(decodeResponsePayload(MsgKind::kLintImageReply,
                                      cold.payload.data(),
                                      cold.payload.size(), resp, err))
        << err;
    const auto *result = std::get_if<LintImageResult>(&resp);
    ASSERT_NE(result, nullptr);
    // The served certificate matches what the local linter proves:
    // a clean runtime whose commit path fits both budgets.
    EXPECT_EQ(result->image, "checkpoint-runtime");
    EXPECT_EQ(result->errors, 0u);
    EXPECT_GT(result->worstCaseCommitCycles, 5'000u);
    EXPECT_LE(result->worstCaseCommitCycles, result->budgetCycles);
    EXPECT_GT(result->staticEnergyBound, 0.0);
    EXPECT_LE(result->staticEnergyBound, result->energyBudgetJoules);
    // The served path is the deterministic one: wall-clock timing is
    // zeroed so identical images produce identical bytes.
    EXPECT_NE(result->reportJson.find("\"analysis_seconds\":0"),
              std::string::npos);

    // Tampered code under a registry name is refused, not linted.
    LintImageJob tampered = job;
    tampered.code[0] ^= 1u;
    const Response bad = engine.execute(Request(tampered));
    const auto *error = std::get_if<ErrorResult>(&bad);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, ErrorCode::kBadRequest);

    LintImageJob unknown = job;
    unknown.name = "no-such-image";
    const Response miss = engine.execute(Request(unknown));
    ASSERT_NE(std::get_if<ErrorResult>(&miss), nullptr);
}

// --- torture: unschedulable jobs and golden-run reuse ----------------

/** A crc32 torture job under the given power schedule. */
TortureJob
scheduleJob(std::uint64_t stable_cycles, std::uint64_t low_cycles)
{
    TortureJob job;
    job.workload.kind = WorkloadSpec::Kind::kCrc32;
    job.workload.a = 256;
    job.stableCycles = stable_cycles;
    job.lowCycles = low_cycles;
    return job;
}

/** Decodable jobs whose brown-out phase is too short to commit. */
std::vector<TortureJob>
unschedulableJobs()
{
    return {scheduleJob(1, 1), scheduleJob(2000, 30000)};
}

void
expectBadRequest(const Response &resp)
{
    const auto *error = std::get_if<ErrorResult>(&resp);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, ErrorCode::kBadRequest);
}

TEST(Engine, UnschedulableTortureJobsAreBadRequests)
{
    Engine engine(engineOptions(2));
    for (TortureJob job : unschedulableJobs()) {
        // Sampled and exhaustive jobs build the golden run alike.
        for (const std::uint64_t points : {0u, 64u}) {
            job.exhaustivePoints = points;
            const ServedResponse served = engine.serve(Request(job));
            ASSERT_EQ(served.kind, MsgKind::kErrorReply);
            Response resp;
            std::string err;
            ASSERT_TRUE(decodeResponsePayload(served.kind,
                                              served.payload.data(),
                                              served.payload.size(),
                                              resp, err))
                << err;
            expectBadRequest(resp);
        }
    }
    EXPECT_EQ(engine.cache().entryCount(), 0u);

    // The engine still grades a sound schedule afterwards.
    TortureJob sound = scheduleJob(60'000, 30'000);
    sound.exhaustivePoints = 64;
    const Response ok = engine.execute(Request(sound));
    const auto *result = std::get_if<TortureResult>(&ok);
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->points, 64u);
    EXPECT_EQ(result->incorrect, 0u);
}

WorkloadSpec
workload(WorkloadSpec::Kind kind, std::uint32_t a)
{
    WorkloadSpec spec;
    spec.kind = kind;
    spec.a = a;
    return spec;
}

/** A 400-point exhaustive campaign as 8 point-range shards. */
std::vector<TortureJob>
campaignShards(const WorkloadSpec &spec, std::uint64_t seed)
{
    constexpr std::uint64_t kPoints = 400;
    constexpr std::uint64_t kShards = 8;
    std::vector<TortureJob> shards;
    for (std::uint64_t s = 0; s < kShards; ++s) {
        TortureJob job;
        job.workload = spec;
        job.seed = seed;
        job.exhaustivePoints = kPoints;
        job.pointOffset = s * kPoints / kShards;
        job.pointCount = kPoints / kShards;
        job.coverageMap = 1;
        shards.push_back(job);
    }
    return shards;
}

/** The reply bytes of a fresh engine, with nothing retained. */
std::vector<std::uint8_t>
freshReply(const TortureJob &job)
{
    const Engine fresh(engineOptions(2));
    return encodeResponsePayload(fresh.execute(Request(job)));
}

TEST(Engine, RetainedGoldenRunRepliesMatchFreshEngines)
{
    const Engine engine(engineOptions(2));
    const auto expect_bytes = [&](const TortureJob &job,
                                  const std::vector<std::uint8_t> &want,
                                  const char *step) {
        const Response resp = engine.execute(Request(job));
        ASSERT_NE(std::get_if<TortureResult>(&resp), nullptr) << step;
        EXPECT_EQ(encodeResponsePayload(resp), want)
            << step << ", shard at point " << job.pointOffset;
    };
    const WorkloadSpec crc = workload(WorkloadSpec::Kind::kCrc32, 1024);
    const std::vector<TortureJob> a = campaignShards(crc, 1);
    std::vector<std::vector<std::uint8_t>> fresh_a;
    for (const TortureJob &job : a)
        fresh_a.push_back(freshReply(job));

    for (std::size_t s = 0; s < a.size(); ++s)
        expect_bytes(a[s], fresh_a[s], "campaign A");
    // Another workload's shard replaces the retained golden run.
    const TortureJob other =
        campaignShards(workload(WorkloadSpec::Kind::kSort, 64), 1)[3];
    expect_bytes(other, freshReply(other), "other workload");
    for (const TortureJob &job : campaignShards(crc, 2))
        expect_bytes(job, freshReply(job), "campaign A, new seed");
}

TEST(Engine, ConcurrentShardsOfOneCampaignMatchTheSerialRun)
{
    const std::vector<TortureJob> shards =
        campaignShards(workload(WorkloadSpec::Kind::kCrc32, 2048), 3);
    std::vector<std::vector<std::uint8_t>> serial;
    {
        const Engine engine(engineOptions(2));
        for (const TortureJob &job : shards)
            serial.push_back(
                encodeResponsePayload(engine.execute(Request(job))));
    }

    // Four callers race one engine: the first shards miss together,
    // the rest read the retained golden run while others grade on it.
    const Engine engine(engineOptions(2));
    std::vector<std::vector<std::uint8_t>> got(shards.size());
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < 4; ++t)
        callers.emplace_back([&, t] {
            for (std::size_t s = t; s < shards.size(); s += 4)
                got[s] = encodeResponsePayload(
                    engine.execute(Request(shards[s])));
        });
    for (std::thread &caller : callers)
        caller.join();
    for (std::size_t s = 0; s < shards.size(); ++s)
        EXPECT_EQ(got[s], serial[s]) << "shard " << s;
}

// --- live socket -----------------------------------------------------

std::string
testSocketPath(const char *tag)
{
    return "/tmp/fs_serve_test_" + std::to_string(::getpid()) + "_" +
           tag + ".sock";
}

TEST(Server, ServesEveryJobTypeByteIdenticalToDirectExecution)
{
    Server::Options opts;
    opts.socketPath = testSocketPath("jobs");
    opts.engine.threads = 2;
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    Engine direct(engineOptions(2));
    Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, err)) << err;
    for (const Request &req : sampleJobs()) {
        Frame reply;
        ASSERT_TRUE(client.call(requestKind(req),
                                encodeRequestPayload(req), reply,
                                err))
            << err;
        const Response expect = direct.execute(req);
        EXPECT_EQ(reply.kind, responseKind(expect));
        EXPECT_EQ(reply.payload, encodeResponsePayload(expect));
    }
    // Same requests again: served from the daemon's cache, same bytes.
    for (const Request &req : sampleJobs()) {
        Response resp;
        ASSERT_TRUE(client.call(req, resp, err)) << err;
        EXPECT_EQ(encodeResponsePayload(resp),
                  encodeResponsePayload(direct.execute(req)));
    }
    client.close();
    server.stop();
    const Server::Stats stats = server.stats();
    EXPECT_EQ(stats.requests, 2 * sampleJobs().size());
    EXPECT_EQ(stats.errors, 0u);
}

TEST(Server, AnswersVersionMismatchWithTypedError)
{
    Server::Options opts;
    opts.socketPath = testSocketPath("version");
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    // Hand-crafted frame from a "future" client version.
    std::vector<std::uint8_t> framed = frameMessage(
        MsgKind::kRoSweep, encodeRequestPayload(Request(RoSweepJob{})));
    const std::uint16_t wrong = kWireVersion + 7;
    std::memcpy(framed.data() + 4, &wrong, 2);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts.socketPath.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    ASSERT_EQ(::send(fd, framed.data(), framed.size(), 0),
              ssize_t(framed.size()));

    std::vector<std::uint8_t> buf;
    Frame reply;
    std::size_t consumed = 0;
    for (;;) {
        std::uint8_t chunk[512];
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        ASSERT_GT(n, 0) << "server closed without replying";
        buf.insert(buf.end(), chunk, chunk + n);
        if (parseFrame(buf.data(), buf.size(), reply, consumed) ==
            FrameStatus::kOk)
            break;
    }
    ::close(fd);
    server.stop();

    ASSERT_EQ(reply.kind, MsgKind::kErrorReply);
    Response resp;
    std::string decode_err;
    ASSERT_TRUE(decodeResponsePayload(reply.kind,
                                      reply.payload.data(),
                                      reply.payload.size(), resp,
                                      decode_err));
    const auto *error = std::get_if<ErrorResult>(&resp);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, ErrorCode::kVersionMismatch);
    EXPECT_EQ(server.stats().versionMismatches, 1u);
}

TEST(Server, RejectsHostileCacheInsertAndStaysUp)
{
    Server::Options opts;
    opts.socketPath = testSocketPath("hostile");
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, err)) << err;
    CacheInsertJob insert;
    insert.key = 1;
    insert.kind = std::uint16_t(MsgKind::kSwarmReply);
    insert.payload = hostileSwarmReply();
    bool stored = true;
    ASSERT_TRUE(client.cacheInsert(insert, stored, err)) << err;
    EXPECT_FALSE(stored);
    PingResult pong;
    EXPECT_TRUE(client.ping(pong, err)) << err;
    client.close();
    server.stop();
    EXPECT_EQ(server.stats().cacheInserts, 0u);
}

TEST(Server, AnswersUnschedulableTortureJobAndStaysUp)
{
    Server::Options opts;
    opts.socketPath = testSocketPath("schedule");
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, err)) << err;
    for (const TortureJob &job : unschedulableJobs()) {
        Response resp;
        ASSERT_TRUE(client.call(Request(job), resp, err)) << err;
        expectBadRequest(resp);
        PingResult pong;
        EXPECT_TRUE(client.ping(pong, err)) << err;
    }
    client.close();
    server.stop();
    EXPECT_EQ(server.stats().requests, unschedulableJobs().size());
}

/** Decodable jobs whose fault-free schedule exceeds the engine's
 *  bound, one of them with a cycle sum that overflows 64 bits. */
std::vector<TortureJob>
overlongJobs()
{
    const std::uint64_t per_power_cycle =
        Engine::kMaxTortureScheduleCycles /
        fault::TortureConfig{}.maxPowerCycles;
    return {scheduleJob(per_power_cycle, 1),
            scheduleJob(60'000, per_power_cycle),
            scheduleJob(~std::uint64_t(0), ~std::uint64_t(0))};
}

TEST(Server, RejectsOverlongTortureScheduleAndStaysUp)
{
    Server::Options opts;
    opts.socketPath = testSocketPath("overlong");
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, err)) << err;
    std::size_t calls = 0;
    for (TortureJob job : overlongJobs()) {
        // Rejected before any golden pass, sampled or exhaustive.
        for (const std::uint64_t points : {0u, 64u}) {
            job.exhaustivePoints = points;
            Response resp;
            ASSERT_TRUE(client.call(Request(job), resp, err)) << err;
            ++calls;
            expectBadRequest(resp);
            PingResult pong;
            EXPECT_TRUE(client.ping(pong, err)) << err;
        }
    }
    // A schedule exactly at the bound still grades (the small app
    // finishes early, so its golden pass is short).
    const std::uint64_t per_power_cycle =
        Engine::kMaxTortureScheduleCycles /
        fault::TortureConfig{}.maxPowerCycles;
    TortureJob fits = scheduleJob(per_power_cycle - 30'000, 30'000);
    fits.exhaustivePoints = 16;
    Response resp;
    ASSERT_TRUE(client.call(Request(fits), resp, err)) << err;
    ++calls;
    const auto *result = std::get_if<TortureResult>(&resp);
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->incorrect, 0u);
    client.close();
    server.stop();
    EXPECT_EQ(server.stats().requests, calls);
}

TEST(Server, DrainsQueuedRequestsOnStop)
{
    Server::Options opts;
    opts.socketPath = testSocketPath("drain");
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, err)) << err;
    // Pipeline several requests, then stop the server from another
    // thread while replies are still in flight: every request that
    // reached the queue must still be answered before the socket
    // closes.
    GuestRunJob job;
    job.workload.a = 512;
    const std::vector<std::uint8_t> payload =
        encodeRequestPayload(Request(job));
    Frame first;
    ASSERT_TRUE(
        client.call(MsgKind::kGuestRun, payload, first, err))
        << err;
    std::thread stopper([&server] { server.stop(); });
    stopper.join();
    EXPECT_EQ(first.kind, MsgKind::kGuestRunReply);
    EXPECT_FALSE(server.running());
}

TEST(Client, CallFailsWithATransportErrorOnceTheDaemonStops)
{
    const std::string path = testSocketPath("restart");
    std::string err;

    Server::Options opts;
    opts.socketPath = path;
    auto first = std::make_unique<Server>(opts);
    ASSERT_TRUE(first->start(err)) << err;

    const Request req = sampleJobs()[4]; // guest run: cheap
    Client client;
    ASSERT_TRUE(client.connect(path, err)) << err;
    Response before;
    ASSERT_TRUE(client.call(req, before, err)) << err;

    // Kill the daemon mid-session. The live connection is now dead;
    // a plain call() must fail with a typed transport error and close
    // it. (fleet::Router's retry loop re-dials; test_fleet covers it.)
    first->stop();
    first.reset();
    Response resp;
    err.clear();
    EXPECT_FALSE(client.call(req, resp, err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(client.connected());
}

TEST(Client, ExploreDesignSpaceServedFallsBackLocally)
{
    // No FS_SERVE_SOCKET: the wrapper must be a transparent local
    // call with an identical front.
    ::unsetenv("FS_SERVE_SOCKET");
    dse::Nsga2::Options opts;
    opts.populationSize = 24;
    opts.generations = 2;
    const auto local = dse::exploreDesignSpace(
        circuit::Technology::node90(), opts);
    const auto served = exploreDesignSpaceServed(
        circuit::Technology::node90(), opts);
    ASSERT_EQ(served.size(), local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
        EXPECT_EQ(served[i].config.summary(),
                  local[i].config.summary());
        EXPECT_DOUBLE_EQ(served[i].perf.meanCurrent,
                         local[i].perf.meanCurrent);
    }
}

TEST(Client, ServedDseMatchesLocalThroughLiveDaemon)
{
    Server::Options opts;
    opts.socketPath = testSocketPath("dse");
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    ::setenv("FS_SERVE_SOCKET", opts.socketPath.c_str(), 1);

    dse::Nsga2::Options nsga;
    nsga.populationSize = 24;
    nsga.generations = 2;
    const auto served = exploreDesignSpaceServed(
        circuit::Technology::node90(), nsga);
    ::unsetenv("FS_SERVE_SOCKET");
    server.stop();

    const auto local = dse::exploreDesignSpace(
        circuit::Technology::node90(), nsga);
    ASSERT_EQ(served.size(), local.size());
    for (std::size_t i = 0; i < local.size(); ++i)
        EXPECT_EQ(served[i].config.summary(),
                  local[i].config.summary());
    // The round trip actually used the daemon.
    EXPECT_GE(server.stats().requests, 1u);
}

} // namespace
} // namespace serve
} // namespace fs
