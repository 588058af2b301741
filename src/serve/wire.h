/**
 * @file
 * Canonical, versioned wire format for the fs::serve subsystem.
 *
 * Every simulation job the service understands is a typed request
 * struct with a single canonical byte encoding: little-endian
 * fixed-width integers, IEEE-754 doubles transported bit-exactly as
 * 64-bit words, and length-prefixed UTF-8 strings. "Canonical" is
 * load-bearing: the FNV-1a hash of the encoded request bytes is the
 * content address under which responses are cached, so two logically
 * equal requests must always encode to the same bytes. Responses use
 * the same primitives, which makes byte-level equality a meaningful
 * determinism check (test_serve locks cold/cached/batched responses
 * together at 1 and 8 worker threads).
 *
 * On a transport, every message travels in a fixed 12-byte frame
 * header (magic, version, message kind, payload length). Frames with
 * a wrong magic or an oversized payload are rejected outright;
 * version-mismatched frames are consumed and answered with a typed
 * error response so old clients fail loudly instead of hanging.
 *
 * Each struct's field order is written exactly once, in its fields()
 * list in wire.cc, which both the encoder and the decoder run. Adding
 * a wire field means one entry in that list; adding a message kind
 * means one variant alternative, its fields() list and one row of the
 * kind table in wire.cc. Decoding fails closed: truncation, trailing
 * bytes, non-0/1 bools and sketch geometry mismatches are typed
 * errors, and no element count read off the wire sizes an allocation.
 * test_serve pins the exact bytes of every kind; any change to them
 * needs a kWireVersion bump.
 */

#ifndef FS_SERVE_WIRE_H_
#define FS_SERVE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/fs_config.h"
#include "core/performance_model.h"
#include "swarm/swarm.h"
#include "util/hash.h"

namespace fs {
namespace serve {

// --- protocol constants ----------------------------------------------

/** "FSRV" */
constexpr std::uint32_t kWireMagic = 0x46535256u;
/** v3: swarm fleet-simulation shards (v2: exhaustive torture shards). */
constexpr std::uint16_t kWireVersion = 3;
/** Frame header: magic u32 + version u16 + kind u16 + length u32. */
constexpr std::size_t kFrameHeaderSize = 12;
/** Upper bound on a frame payload; larger frames are rejected. */
constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/**
 * Message kinds. Requests are < 0x8000, responses have the top bit.
 * kPing and kCacheInsert are control-plane messages: they are
 * answered by the daemon's reader thread directly (never queued
 * behind simulation work), which is what makes pings a usable
 * liveness signal under load.
 */
enum class MsgKind : std::uint16_t {
    kRoSweep = 1,
    kDesignPoint = 2,
    kDseShard = 3,
    kTorture = 4,
    kGuestRun = 5,
    kPing = 6,
    kCacheInsert = 7,
    kLintImage = 8,
    kSwarm = 9,

    kRoSweepReply = 0x8001,
    kDesignPointReply = 0x8002,
    kDseShardReply = 0x8003,
    kTortureReply = 0x8004,
    kGuestRunReply = 0x8005,
    kPingReply = 0x8006,
    kCacheInsertReply = 0x8007,
    kLintImageReply = 0x8008,
    kSwarmReply = 0x8009,
    kErrorReply = 0x80ff,
};

/** Error codes carried by ErrorResult. */
enum class ErrorCode : std::uint16_t {
    kBadRequest = 1,       ///< undecodable or unknown-kind payload
    kVersionMismatch = 2,  ///< frame version != kWireVersion
    kDeadlineExceeded = 3, ///< queued past the per-request deadline
    kOverloaded = 4,       ///< bounded queue refused the request
    kShuttingDown = 5,     ///< server draining; retry elsewhere
    kInternal = 6,         ///< execution failed
};

// --- typed jobs ------------------------------------------------------

/** Guest workload selector shared by the torture and guest-run jobs. */
struct WorkloadSpec {
    enum class Kind : std::uint8_t {
        kCrc32 = 0,  ///< a = byte count
        kFir = 1,    ///< a = taps, b = samples
        kSort = 2,   ///< a = element count
        kMatmul = 3, ///< a = matrix dimension
    };
    Kind kind = Kind::kCrc32;
    std::uint32_t a = 256;
    std::uint32_t b = 0;
    std::uint64_t seed = 1;
};

/** RO frequency sweep: f(v) on a uniform grid for one ring. */
struct RoSweepJob {
    std::string tech = "90nm";
    std::uint32_t stages = 21;
    std::uint8_t cell = 0; ///< circuit::InverterCell
    double speed = 1.0;    ///< process-variation speed factor
    double tempC = 25.0;
    double vStart = 0.2;
    double vEnd = 3.6;
    double vStep = 0.1;
};

struct RoSweepResult {
    std::vector<double> frequenciesHz; ///< one per grid point
};

/**
 * FsConfig on the wire (exact field transport, no re-derivation). Only
 * the design-point fields travel; vMin, vMax, thermalErrorFraction,
 * granularityBand and currentRefVoltage keep their FsConfig defaults.
 */
struct ConfigWire {
    std::uint64_t roStages = 21;
    double sampleRate = 1e3;
    std::uint64_t counterBits = 8;
    double enableTime = 10e-6;
    std::uint64_t nvmEntries = 49;
    std::uint64_t entryBits = 8;
    std::uint64_t dividerTap = 1;
    std::uint64_t dividerTotal = 3;
    std::uint8_t strategy = 2; ///< calib::Strategy
};

/** Evaluate one design point through the performance model. */
struct DesignPointJob {
    std::string tech = "90nm";
    ConfigWire config;
};

struct DesignPointResult {
    core::Performance perf;
};

/** One NSGA-II design-space exploration shard. */
struct DseShardJob {
    std::string tech = "90nm";
    std::uint32_t populationSize = 24;
    std::uint32_t generations = 4;
    std::uint64_t seed = 0x5eed;
    double fixedRate = 0.0;      ///< >0 pins F_s (Fig. 6 slices)
    std::uint8_t exploreDivider = 0;
};

struct DsePointWire {
    ConfigWire config;
    core::Performance perf;
};

struct DseShardResult {
    std::vector<DsePointWire> front;
};

/**
 * A seeded power-failure torture campaign.
 *
 * Two kill-generation modes. Sampled (exhaustivePoints == 0): the
 * legacy killsPerWindow/randomKills draws from one sequential RNG.
 * Exhaustive (exhaustivePoints > 0): the fault space is the clean
 * run's cycle span divided into exhaustivePoints evenly spaced kill
 * cycles; point i's tear parameters derive from rngForIndex(seed, i),
 * a pure function of (seed, i), so any [pointOffset, pointOffset +
 * pointCount) shard of the same campaign is byte-identical to the
 * matching slice of the full run -- that is what lets fs_router fan
 * one 10^6-point campaign across fleet workers and the client merge
 * the shards back together.
 */
struct TortureJob {
    WorkloadSpec workload;
    std::uint32_t sramSize = 1024;
    std::uint64_t stableCycles = 60'000;
    std::uint64_t lowCycles = 30'000;
    std::uint64_t seed = 0xF5C0FFEE;
    /** Evenly spaced kills injected into each commit window. */
    std::uint32_t killsPerWindow = 0;
    /** Additional kills at seeded random execution points. */
    std::uint32_t randomKills = 16;
    /** Exhaustive campaign: total evenly spaced kill points over the
     *  clean run (0 = sampled mode). */
    std::uint64_t exhaustivePoints = 0;
    /** First point index this request grades (shard start). */
    std::uint64_t pointOffset = 0;
    /** Points this request grades (0 = through the end). */
    std::uint64_t pointCount = 0;
    /** Nonzero: emit the per-instruction coverage map. */
    std::uint8_t coverageMap = 0;
};

/** Per-kill outcome flags packed into TortureResult::outcomeFlags. */
enum TortureOutcomeFlag : std::uint8_t {
    kOutcomeKilled = 1 << 0,
    kOutcomeKillTore = 1 << 1,
    kOutcomeColdRestart = 1 << 2,
    kOutcomeFinished = 1 << 3,
    kOutcomeCorrect = 1 << 4,
};

/**
 * Verdicts aggregated per firmware instruction: every graded kill is
 * attributed to the pc it lands on in the fault-free schedule
 * (kNoCoverageSite for kills past app finish), annotated with the
 * static injection-point map's class/rank for that pc so the dynamic
 * coverage merges with fs-lint's vulnerable-instruction ranking.
 */
struct TortureCoverageWire {
    std::uint32_t addr = 0;
    std::uint8_t cls = 0;   ///< fault::PointClass (2 = vulnerable)
    std::uint32_t rank = 0; ///< static vulnerability rank (0 = unmapped)
    std::uint32_t points = 0;
    std::uint32_t killed = 0;
    std::uint32_t correct = 0;
    std::uint32_t incorrect = 0;
    std::uint32_t coldRestarts = 0;
    std::uint32_t killTears = 0;
};

/** TortureCoverageWire::addr for kills the schedule never reaches. */
constexpr std::uint32_t kNoCoverageSite = 0xFFFFFFFFu;

struct TortureResult {
    std::uint64_t cleanCycles = 0;
    std::uint32_t checkpoints = 0;
    double checkpointVolts = 0.0;
    std::uint32_t points = 0;
    std::uint32_t killed = 0;
    std::uint32_t killTears = 0;
    std::uint32_t coldRestarts = 0;
    std::uint32_t tornRestores = 0;
    std::uint32_t correct = 0;
    std::uint32_t incorrect = 0;
    /** Parallel per-kill records, in kill order. */
    std::vector<std::uint8_t> outcomeFlags;
    std::vector<std::uint32_t> results;
    /** Per-instruction verdict map, sorted by addr (when requested). */
    std::vector<TortureCoverageWire> coverage;
};

/**
 * Fold one shard of an exhaustive campaign into an accumulator.
 * Shards must be merged in point order (into's kills precede shard's)
 * and must agree on the golden-run invariants; the merge of all
 * shards is then byte-identical to the unsharded campaign. Returns
 * false (into untouched) with a reason in err on a mismatch.
 */
bool mergeTortureResult(TortureResult &into, const TortureResult &shard,
                        std::string &err);

/** Run one guest workload to completion on a bare FRAM+SRAM machine. */
struct GuestRunJob {
    WorkloadSpec workload;
    std::uint8_t traceCache = 1; ///< 1 = fast path (DBT), 0 = interpreter
};

struct GuestRunResult {
    std::string name;
    std::uint32_t result = 0;
    std::uint32_t expected = 0;
    std::uint8_t correct = 0;
    std::uint64_t instructions = 0;
};

/**
 * Lint one registered firmware image (fs-lint v2) bit-
 * deterministically. The request carries both the registry name and
 * the full image words: the name selects the lint options (profile,
 * entry points, budgets) from the shared analysis::lintImages()
 * registry, while the code words make the request content-addressed —
 * two builds whose generated runtimes differ can never share a cache
 * entry. The server rejects a request whose code does not match its
 * own registry's bytes, so a cache hit always means "same analyzer
 * inputs".
 */
struct LintImageJob {
    std::string name;
    std::vector<std::uint32_t> code;
    std::uint8_t emitPruning = 1; ///< include the injection-point map
};

struct LintImageResult {
    std::string image;
    std::uint32_t errors = 0;
    std::uint32_t warnings = 0;
    std::uint32_t notes = 0;
    std::uint64_t worstCaseCommitCycles = 0;
    std::uint64_t budgetCycles = 0;
    double staticEnergyBound = 0.0;
    double energyBudgetJoules = 0.0;
    /** LintReport::json() with the wall-clock timing zeroed. */
    std::string reportJson;
    /** InjectionPointMap::json(); empty when not requested/applicable. */
    std::string pruningJson;
};

/**
 * Swarm shard result: the streaming aggregates, transported exactly
 * (Welford raw moments per block, histogram counts, reservoir entries
 * in canonical priority order). Shards merge with mergeSwarmResult in
 * block order; the merged encoding is byte-identical to the unsharded
 * run's.
 */
struct SwarmResult {
    swarm::SwarmAggregates agg;
};

/**
 * Fold one swarm shard into an accumulator (block order, matching
 * sketch geometry). Returns false with a reason in err on mismatch,
 * leaving `into` untouched.
 */
bool mergeSwarmResult(SwarmResult &into, const SwarmResult &shard,
                      std::string &err);

struct ErrorResult {
    ErrorCode code = ErrorCode::kInternal;
    std::string message;
};

// --- control plane (fleet health + replication) -----------------------

/**
 * Typed health probe. The reply carries enough for a router to make
 * eviction and load decisions: queue depth as a backpressure signal
 * and the draining flag so a worker in SIGTERM drain is taken out of
 * rotation before its socket actually closes.
 */
struct PingJob {
    std::uint64_t nonce = 0; ///< echoed back; pairs probe and reply
};

struct PingResult {
    std::uint64_t nonce = 0;
    std::uint32_t queueDepth = 0;   ///< requests waiting for the executor
    std::uint64_t cacheEntries = 0; ///< in-memory ResultCache entries
    std::uint8_t draining = 0;      ///< 1 = drain in progress; evict me
};

/**
 * Push one ResultCache entry to a peer worker (hash-ring
 * replication). `kind` must be a non-error reply kind and `payload`
 * its canonical bytes; the receiver validates both before storing, so
 * a corrupted or malicious insert can refuse capacity but never
 * poison the cache with undecodable bytes.
 */
struct CacheInsertJob {
    std::uint64_t key = 0; ///< content address (serve::requestKey)
    std::uint16_t kind = 0;
    std::vector<std::uint8_t> payload;
};

struct CacheInsertResult {
    std::uint8_t stored = 0; ///< 0 = rejected (invalid kind/payload)
};

/**
 * A kSwarm request is one shard of a fleet-scale swarm simulation,
 * carried as swarm::SwarmConfig itself. `firstDevice` must be aligned
 * to swarm::kSwarmBlock so the per-block Welford partials of any
 * sharding concatenate into exactly the blocks of the unsharded run.
 */
using Request = std::variant<RoSweepJob, DesignPointJob, DseShardJob,
                             TortureJob, GuestRunJob, LintImageJob,
                             swarm::SwarmConfig>;
using Response =
    std::variant<RoSweepResult, DesignPointResult, DseShardResult,
                 TortureResult, GuestRunResult, LintImageResult,
                 SwarmResult, ErrorResult>;

/** Wire kind of a request/response variant. */
MsgKind requestKind(const Request &req);
MsgKind responseKind(const Response &resp);

/** Reply kind matching a request kind (kErrorReply for unknown). */
MsgKind replyKindFor(MsgKind request_kind);

/**
 * Shedding priority of a request kind under overload: higher values
 * are kept longer. Heavy batch jobs (DSE shards, torture campaigns)
 * are priority 1 -- shed first, the caller can re-shard or retry
 * later; cheap interactive jobs (RO sweeps, design points, guest
 * runs) are priority 2. Control-plane messages never queue, so they
 * have no shedding priority.
 */
int requestPriority(MsgKind kind);

// --- control-plane codecs --------------------------------------------

std::vector<std::uint8_t> encodePing(const PingJob &job);
bool decodePing(const std::uint8_t *data, std::size_t len,
                PingJob &out, std::string &err);
std::vector<std::uint8_t> encodePingResult(const PingResult &res);
bool decodePingResult(const std::uint8_t *data, std::size_t len,
                      PingResult &out, std::string &err);
std::vector<std::uint8_t> encodeCacheInsert(const CacheInsertJob &job);
bool decodeCacheInsert(const std::uint8_t *data, std::size_t len,
                       CacheInsertJob &out, std::string &err);
std::vector<std::uint8_t>
encodeCacheInsertResult(const CacheInsertResult &res);
bool decodeCacheInsertResult(const std::uint8_t *data, std::size_t len,
                             CacheInsertResult &out, std::string &err);

// --- canonical payload encoding --------------------------------------

/** Canonical request payload bytes (excludes the frame header). */
std::vector<std::uint8_t> encodeRequestPayload(const Request &req);

/**
 * Decode a request payload of the given kind. @return false (with
 * `err` set) on unknown kind, truncation, or trailing bytes.
 */
bool decodeRequestPayload(MsgKind kind,
                          const std::uint8_t *data, std::size_t len,
                          Request &out, std::string &err);

std::vector<std::uint8_t> encodeResponsePayload(const Response &resp);

bool decodeResponsePayload(MsgKind kind,
                           const std::uint8_t *data, std::size_t len,
                           Response &out, std::string &err);

// --- framing ---------------------------------------------------------

struct Frame {
    std::uint16_t version = kWireVersion;
    MsgKind kind = MsgKind::kErrorReply;
    std::vector<std::uint8_t> payload;
};

/** Append one framed message to `out`. */
void appendFrame(std::vector<std::uint8_t> &out, MsgKind kind,
                 const std::uint8_t *payload, std::size_t len);
std::vector<std::uint8_t> frameMessage(MsgKind kind,
                                       const std::vector<std::uint8_t> &payload);

enum class FrameStatus {
    kOk,              ///< one frame parsed; `consumed` advanced
    kNeedMore,        ///< buffer holds a prefix of a valid frame
    kBadMagic,        ///< stream corrupt; connection unusable
    kOversized,       ///< declared payload exceeds kMaxFramePayload
    kVersionMismatch, ///< frame consumed; answer with a typed error
};

/**
 * Parse one frame from `data[0..len)`. On kOk and kVersionMismatch
 * the whole frame is consumed (header + payload, so a mismatched
 * client can be answered and the stream stays in sync); on any other
 * status `consumed` is 0.
 */
FrameStatus parseFrame(const std::uint8_t *data, std::size_t len,
                       Frame &out, std::size_t &consumed);

// --- content addressing ----------------------------------------------

/** FNV-1a 64-bit hash (the shared util implementation). */
inline std::uint64_t
fnv1a64(const void *data, std::size_t len,
        std::uint64_t seed = util::kFnvOffsetBasis)
{
    return util::fnv1a64(data, len, seed);
}

/**
 * Content address of a request: hash over (version, kind, canonical
 * payload bytes). This is the result-cache key.
 */
std::uint64_t requestKey(MsgKind kind,
                         const std::vector<std::uint8_t> &payload);

// --- core-type conversions -------------------------------------------

ConfigWire toWire(const core::FsConfig &cfg);
core::FsConfig fromWire(const ConfigWire &w);

/** Human-readable workload name, e.g. "crc32-256". */
std::string workloadName(const WorkloadSpec &spec);

} // namespace serve
} // namespace fs

#endif // FS_SERVE_WIRE_H_
