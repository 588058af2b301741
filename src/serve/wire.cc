#include "serve/wire.h"

#include <bit>
#include <cstring>
#include <map>
#include <type_traits>
#include <utility>

namespace fs {
namespace serve {

namespace {

template <class T> struct IsVector : std::false_type {};
template <class T> struct IsVector<std::vector<T>> : std::true_type {};

/** Sequences whose elements are raw bytes on the wire. */
template <class T>
constexpr bool kIsByteSeq = std::is_same_v<T, std::string> ||
                            std::is_same_v<T, std::vector<std::uint8_t>>;

/**
 * Canonical little-endian writer. Each value passed to operator() is
 * appended: integers and enums at their own width, bool as one 0/1
 * byte, doubles as their IEEE-754 bits (so they round-trip exactly),
 * strings and vectors as a u32 count then the elements, and any other
 * type through its fields() list below.
 */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<std::uint8_t> &out) : out_(out) {}

    template <class... T>
    void
    operator()(const T &...v)
    {
        (visit(v), ...);
    }

    /** Decode-side validation; the encoder trusts its input. */
    void require(bool, const char *) {}

  private:
    template <std::size_t Bytes>
    void
    le(std::uint64_t v)
    {
        for (std::size_t i = 0; i < Bytes; ++i)
            out_.push_back(std::uint8_t(v >> (8 * i)));
    }

    template <class T>
    void
    visit(const T &v)
    {
        if constexpr (std::is_enum_v<T>) {
            visit(std::underlying_type_t<T>(v));
        } else if constexpr (std::is_integral_v<T>) {
            le<sizeof(T)>(std::uint64_t(v));
        } else if constexpr (std::is_same_v<T, double>) {
            le<8>(std::bit_cast<std::uint64_t>(v));
        } else if constexpr (kIsByteSeq<T>) {
            le<4>(v.size());
            out_.insert(out_.end(), v.begin(), v.end());
        } else if constexpr (IsVector<T>::value) {
            le<4>(v.size());
            for (const auto &e : v)
                visit(e);
        } else {
            // fields() lists are shared with ByteReader, hence take a
            // mutable reference; writing never modifies the value.
            fields(*this, const_cast<T &>(v));
        }
    }

    std::vector<std::uint8_t> &out_;
};

/**
 * Bounds-checked reader for the same encoding, driven by the same
 * fields() lists. Failure is sticky: after the first short read or
 * failed require() every later read is a no-op returning zeros, and
 * error() names the failed require (nullptr for a short read).
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t len)
        : data_(data), len_(len)
    {
    }

    bool ok() const { return ok_; }
    bool atEnd() const { return pos_ == len_; }
    const char *error() const { return error_; }

    template <class... T>
    void
    operator()(T &...v)
    {
        (visit(v), ...);
    }

    /** Fail the decode with `why` unless `cond` holds. */
    void
    require(bool cond, const char *why)
    {
        if (ok_ && !cond) {
            ok_ = false;
            error_ = why;
        }
    }

  private:
    bool
    need(std::size_t n)
    {
        require(len_ - pos_ >= n, nullptr);
        return ok_;
    }

    template <std::size_t Bytes>
    std::uint64_t
    le()
    {
        if (!need(Bytes))
            return 0;
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < Bytes; ++i)
            v |= std::uint64_t(data_[pos_ + i]) << (8 * i);
        pos_ += Bytes;
        return v;
    }

    template <class T>
    void
    visit(T &v)
    {
        if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> u{};
            visit(u);
            v = T(u);
        } else if constexpr (std::is_same_v<T, bool>) {
            // Only 0 and 1 re-encode to the bytes they came from.
            const std::uint64_t b = le<1>();
            require(b <= 1, "non-canonical bool");
            v = b != 0;
        } else if constexpr (std::is_integral_v<T>) {
            v = T(le<sizeof(T)>());
        } else if constexpr (std::is_same_v<T, double>) {
            v = std::bit_cast<double>(le<8>());
        } else if constexpr (kIsByteSeq<T>) {
            // The bytes are checked present before anything is allocated.
            const std::size_t n = std::size_t(le<4>());
            if (need(n)) {
                v.assign(data_ + pos_, data_ + pos_ + n);
                pos_ += n;
            }
        } else if constexpr (IsVector<T>::value) {
            // The count is untrusted. Reserve it only when that many
            // elements, at their in-memory size (never below their wire
            // size), fit in the unread bytes, so a hostile count cannot
            // allocate more than the payload's own length. Otherwise
            // memory grows only as elements are actually read.
            const std::uint64_t n = le<4>();
            if (n <= (len_ - pos_) / sizeof(typename T::value_type))
                v.reserve(std::size_t(n));
            for (std::uint64_t i = 0; ok_ && i < n; ++i)
                visit(v.emplace_back());
        } else {
            fields(*this, v);
        }
    }

    const std::uint8_t *data_;
    std::size_t len_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    const char *error_ = nullptr;
};

// --- field lists: each struct's wire order, written once -------------
//
// ByteWriter and ByteReader both run these, so the encoder and decoder
// cannot disagree. Adding a field here changes the golden bytes pinned
// in test_serve, which calls for a kWireVersion bump.

template <class Io>
void
fields(Io &io, WorkloadSpec &v)
{
    io(v.kind, v.a, v.b, v.seed);
}

template <class Io>
void
fields(Io &io, RoSweepJob &v)
{
    io(v.tech, v.stages, v.cell, v.speed, v.tempC, v.vStart, v.vEnd,
       v.vStep);
}

template <class Io>
void
fields(Io &io, RoSweepResult &v)
{
    io(v.frequenciesHz);
}

template <class Io>
void
fields(Io &io, ConfigWire &v)
{
    io(v.roStages, v.sampleRate, v.counterBits, v.enableTime,
       v.nvmEntries, v.entryBits, v.dividerTap, v.dividerTotal,
       v.strategy);
}

template <class Io>
void
fields(Io &io, core::Performance &v)
{
    io(v.realizable, v.rejectReason, v.meanCurrent, v.sampleRate,
       v.granularity, v.nvmBytes, v.transistors, v.quantizationError,
       v.thermalError, v.interpolationError);
}

template <class Io>
void
fields(Io &io, DesignPointJob &v)
{
    io(v.tech, v.config);
}

template <class Io>
void
fields(Io &io, DesignPointResult &v)
{
    io(v.perf);
}

template <class Io>
void
fields(Io &io, DseShardJob &v)
{
    io(v.tech, v.populationSize, v.generations, v.seed, v.fixedRate,
       v.exploreDivider);
}

template <class Io>
void
fields(Io &io, DsePointWire &v)
{
    io(v.config, v.perf);
}

template <class Io>
void
fields(Io &io, DseShardResult &v)
{
    io(v.front);
}

template <class Io>
void
fields(Io &io, TortureJob &v)
{
    io(v.workload, v.sramSize, v.stableCycles, v.lowCycles, v.seed,
       v.killsPerWindow, v.randomKills, v.exhaustivePoints,
       v.pointOffset, v.pointCount, v.coverageMap);
}

template <class Io>
void
fields(Io &io, TortureCoverageWire &v)
{
    io(v.addr, v.cls, v.rank, v.points, v.killed, v.correct,
       v.incorrect, v.coldRestarts, v.killTears);
}

template <class Io>
void
fields(Io &io, TortureResult &v)
{
    io(v.cleanCycles, v.checkpoints, v.checkpointVolts, v.points,
       v.killed, v.killTears, v.coldRestarts, v.tornRestores,
       v.correct, v.incorrect, v.outcomeFlags, v.results, v.coverage);
}

template <class Io>
void
fields(Io &io, GuestRunJob &v)
{
    io(v.workload, v.traceCache);
}

template <class Io>
void
fields(Io &io, GuestRunResult &v)
{
    io(v.name, v.result, v.expected, v.correct, v.instructions);
}

template <class Io>
void
fields(Io &io, LintImageJob &v)
{
    io(v.name, v.code, v.emitPruning);
}

template <class Io>
void
fields(Io &io, LintImageResult &v)
{
    io(v.image, v.errors, v.warnings, v.notes, v.worstCaseCommitCycles,
       v.budgetCycles, v.staticEnergyBound, v.energyBudgetJoules,
       v.reportJson, v.pruningJson);
}

template <class Io>
void
fields(Io &io, swarm::SwarmConfig &v)
{
    io(v.deviceCount, v.firstDevice, v.spanDevices, v.seed, v.profile,
       v.traceSeconds, v.segmentSeconds, v.ckptPeriodS, v.zThreshold,
       v.warmup, v.tripsToFlag, v.anomalyEvery, v.anomalyFactor,
       v.traceCsv);
}

template <class Io>
void
fields(Io &io, swarm::BlockStats &v)
{
    io(v.lifetime, v.cadence, v.dead);
}

template <class Io>
void
fields(Io &io, swarm::SwarmAggregates &v)
{
    io(v.firstBlock, v.deviceCount, v.blocks);
    io.require(v.blocks.size() ==
                   (v.deviceCount + swarm::kSwarmBlock - 1) /
                       swarm::kSwarmBlock,
               "swarm block count does not match device count");
    io(v.lifetimeHist, v.cadenceHist, v.deadHist, v.lifetimeSample,
       v.cadenceSample, v.deadSample, v.boots, v.checkpoints,
       v.failedCheckpoints, v.flaggedDevices, v.cohortDevices,
       v.flaggedInCohort, v.neverBooted);
}

template <class Io>
void
fields(Io &io, SwarmResult &v)
{
    io(v.agg);
}

template <class Io>
void
fields(Io &io, ErrorResult &v)
{
    io(v.code, v.message);
}

template <class Io>
void
fields(Io &io, PingJob &v)
{
    io(v.nonce);
}

template <class Io>
void
fields(Io &io, PingResult &v)
{
    io(v.nonce, v.queueDepth, v.cacheEntries, v.draining);
}

template <class Io>
void
fields(Io &io, CacheInsertJob &v)
{
    io(v.key, v.kind, v.payload);
}

template <class Io>
void
fields(Io &io, CacheInsertResult &v)
{
    io(v.stored);
}

// --- sketches: decode rebuilds or validates, so each has two sides ---

void
fields(ByteWriter &w, RunningStats &s)
{
    w(std::uint64_t(s.count()), s.mean(), s.m2(), s.rawMin(),
      s.rawMax());
}

void
fields(ByteReader &r, RunningStats &s)
{
    std::uint64_t n = 0;
    double mean = 0.0, m2 = 0.0, mn = 0.0, mx = 0.0;
    r(n, mean, m2, mn, mx);
    s = RunningStats::fromMoments(std::size_t(n), mean, m2, mn, mx);
}

void
fields(ByteWriter &w, LogHistogram &h)
{
    w(std::int32_t(h.minExp()), std::int32_t(h.maxExp()),
      std::uint32_t(h.bucketsPerDecade()), std::uint32_t(h.buckets()));
    for (std::size_t b = 0; b < h.buckets(); ++b)
        w(h.countAt(b));
    w(h.underflow(), h.overflow());
}

/** Decode into `h`, whose geometry is authoritative (reject others). */
void
fields(ByteReader &r, LogHistogram &h)
{
    std::int32_t min_exp = 0, max_exp = 0;
    std::uint32_t per_decade = 0, buckets = 0;
    r(min_exp, max_exp, per_decade, buckets);
    r.require(min_exp == h.minExp() && max_exp == h.maxExp() &&
                  per_decade == h.bucketsPerDecade() &&
                  buckets == h.buckets(),
              "swarm histogram geometry mismatch");
    for (std::uint32_t b = 0; r.ok() && b < buckets; ++b) {
        std::uint64_t n = 0;
        r(n);
        if (n != 0)
            h.addToBucket(b, n);
    }
    std::uint64_t under = 0, over = 0;
    r(under, over);
    h.addUnderflow(under);
    h.addOverflow(over);
}

void
fields(ByteWriter &w, ReservoirSample &s)
{
    const std::vector<ReservoirSample::Entry> entries = s.sorted();
    w(std::uint32_t(s.k()), s.seed(), std::uint32_t(entries.size()));
    // Priorities are a pure function of (seed, tag); the reader
    // recomputes them, so only (tag, value) travels.
    for (const ReservoirSample::Entry &e : entries)
        w(e.tag, e.value);
}

/** Decode into `s`, whose k and seed are authoritative. */
void
fields(ByteReader &r, ReservoirSample &s)
{
    std::uint32_t k = 0, n = 0;
    std::uint64_t seed = 0;
    r(k, seed, n);
    r.require(k == s.k() && seed == s.seed() && n <= k,
              "swarm reservoir parameters mismatch");
    for (std::uint32_t i = 0; r.ok() && i < n; ++i) {
        std::uint64_t tag = 0;
        double value = 0.0;
        r(tag, value);
        s.add(tag, value);
    }
}

// --- kinds -----------------------------------------------------------

struct KindRow {
    MsgKind request;
    MsgKind reply;
};

/**
 * The one kind table. Row i is Request alternative i and Response
 * alternative i; the ErrorResult row has no request, and the control-
 * plane rows after it have no variant alternative.
 */
constexpr KindRow kKinds[] = {
    {MsgKind::kRoSweep, MsgKind::kRoSweepReply},
    {MsgKind::kDesignPoint, MsgKind::kDesignPointReply},
    {MsgKind::kDseShard, MsgKind::kDseShardReply},
    {MsgKind::kTorture, MsgKind::kTortureReply},
    {MsgKind::kGuestRun, MsgKind::kGuestRunReply},
    {MsgKind::kLintImage, MsgKind::kLintImageReply},
    {MsgKind::kSwarm, MsgKind::kSwarmReply},
    {MsgKind{}, MsgKind::kErrorReply},
    {MsgKind::kPing, MsgKind::kPingReply},
    {MsgKind::kCacheInsert, MsgKind::kCacheInsertReply},
};
static_assert(std::variant_size_v<Request> == 7 &&
                  std::variant_size_v<Response> == 8,
              "every variant alternative needs its kKinds row");

/** First of the leading `rows` rows whose `column` is `kind`, or rows. */
std::size_t
rowOf(MsgKind kind, MsgKind KindRow::*column, std::size_t rows)
{
    std::size_t i = 0;
    while (i < rows && kKinds[i].*column != kind)
        ++i;
    return i;
}

// --- payload codecs --------------------------------------------------

/** Decode epilogue: the payload must be consumed exactly. */
bool
finish(const ByteReader &r, const char *what, std::string &err)
{
    if (!r.ok())
        err = r.error() ? r.error()
                        : std::string("truncated ") + what + " payload";
    else if (!r.atEnd())
        err = std::string("trailing bytes after ") + what + " payload";
    return r.ok() && r.atEnd();
}

template <class T>
std::vector<std::uint8_t>
encodeFields(const T &v)
{
    std::vector<std::uint8_t> bytes;
    ByteWriter w(bytes);
    w(v);
    return bytes;
}

template <class T>
bool
decodeFields(const std::uint8_t *data, std::size_t len, T &out,
             const char *what, std::string &err)
{
    ByteReader r(data, len);
    r(out);
    return finish(r, what, err);
}

/** Decode the alternative that `column` of kKinds assigns to `kind`. */
template <class Variant>
bool
decodeVariant(MsgKind kind, MsgKind KindRow::*column, const char *what,
              const std::uint8_t *data, std::size_t len, Variant &out,
              std::string &err)
{
    constexpr std::size_t kAlts = std::variant_size_v<Variant>;
    const std::size_t alt = rowOf(kind, column, kAlts);
    if (alt == kAlts) {
        err = std::string("unknown ") + what + " kind " +
              std::to_string(unsigned(kind));
        return false;
    }
    ByteReader r(data, len);
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        ((alt == I ? r(out.template emplace<I>()) : void()), ...);
    }(std::make_index_sequence<kAlts>{});
    return finish(r, what, err);
}

} // namespace

bool
mergeSwarmResult(SwarmResult &into, const SwarmResult &shard,
                 std::string &err)
{
    // swarm::mergeAggregates validates before mutating, so a failure
    // leaves the accumulator intact.
    const std::string reason =
        swarm::mergeAggregates(&into.agg, shard.agg);
    if (!reason.empty()) {
        err = reason;
        return false;
    }
    return true;
}

MsgKind
requestKind(const Request &req)
{
    return kKinds[req.index()].request;
}

MsgKind
responseKind(const Response &resp)
{
    return kKinds[resp.index()].reply;
}

MsgKind
replyKindFor(MsgKind request_kind)
{
    const std::size_t row =
        rowOf(request_kind, &KindRow::request, std::size(kKinds));
    return row < std::size(kKinds) ? kKinds[row].reply
                                   : MsgKind::kErrorReply;
}

int
requestPriority(MsgKind kind)
{
    switch (kind) {
      case MsgKind::kDseShard:
      case MsgKind::kTorture:
      case MsgKind::kSwarm:
        return 1; // heavy batch work: shed first under overload
      default:
        return 2;
    }
}

std::vector<std::uint8_t>
encodePing(const PingJob &job)
{
    return encodeFields(job);
}

bool
decodePing(const std::uint8_t *data, std::size_t len, PingJob &out,
           std::string &err)
{
    return decodeFields(data, len, out, "ping", err);
}

std::vector<std::uint8_t>
encodePingResult(const PingResult &res)
{
    return encodeFields(res);
}

bool
decodePingResult(const std::uint8_t *data, std::size_t len,
                 PingResult &out, std::string &err)
{
    return decodeFields(data, len, out, "ping reply", err);
}

std::vector<std::uint8_t>
encodeCacheInsert(const CacheInsertJob &job)
{
    return encodeFields(job);
}

bool
decodeCacheInsert(const std::uint8_t *data, std::size_t len,
                  CacheInsertJob &out, std::string &err)
{
    return decodeFields(data, len, out, "cache-insert", err);
}

std::vector<std::uint8_t>
encodeCacheInsertResult(const CacheInsertResult &res)
{
    return encodeFields(res);
}

bool
decodeCacheInsertResult(const std::uint8_t *data, std::size_t len,
                        CacheInsertResult &out, std::string &err)
{
    return decodeFields(data, len, out, "cache-insert reply", err);
}

std::vector<std::uint8_t>
encodeRequestPayload(const Request &req)
{
    std::vector<std::uint8_t> bytes;
    std::visit(ByteWriter(bytes), req);
    return bytes;
}

bool
decodeRequestPayload(MsgKind kind, const std::uint8_t *data,
                     std::size_t len, Request &out, std::string &err)
{
    return decodeVariant(kind, &KindRow::request, "request", data, len,
                         out, err);
}

std::vector<std::uint8_t>
encodeResponsePayload(const Response &resp)
{
    std::vector<std::uint8_t> bytes;
    std::visit(ByteWriter(bytes), resp);
    return bytes;
}

bool
decodeResponsePayload(MsgKind kind, const std::uint8_t *data,
                      std::size_t len, Response &out, std::string &err)
{
    return decodeVariant(kind, &KindRow::reply, "response", data, len,
                         out, err);
}

bool
mergeTortureResult(TortureResult &into, const TortureResult &shard,
                   std::string &err)
{
    // The golden-run facts must agree bit for bit, or the shards were
    // graded against different schedules and summing them is garbage.
    if (into.cleanCycles != shard.cleanCycles ||
        into.checkpoints != shard.checkpoints ||
        std::memcmp(&into.checkpointVolts, &shard.checkpointVolts,
                    sizeof(double)) != 0) {
        err = "torture shards disagree on the golden run "
              "(cleanCycles/checkpoints/checkpointVolts)";
        return false;
    }
    if (into.outcomeFlags.size() != into.points ||
        shard.outcomeFlags.size() != shard.points ||
        into.results.size() != into.points ||
        shard.results.size() != shard.points) {
        err = "torture shard per-kill records do not match its point "
              "count";
        return false;
    }
    // Coverage merges per instruction: counters sum, the static
    // class/rank annotations must match (they come from the same
    // lint pass on the same image). Built before `into` is touched so
    // a mismatch leaves the accumulator intact.
    std::map<std::uint32_t, TortureCoverageWire> by_addr;
    for (const TortureCoverageWire &c : into.coverage)
        by_addr[c.addr] = c;
    for (const TortureCoverageWire &c : shard.coverage) {
        auto it = by_addr.find(c.addr);
        if (it == by_addr.end()) {
            by_addr[c.addr] = c;
            continue;
        }
        TortureCoverageWire &m = it->second;
        if (m.cls != c.cls || m.rank != c.rank) {
            err = "torture shards disagree on the static class/rank "
                  "of coverage site " + std::to_string(c.addr);
            return false;
        }
        m.points += c.points;
        m.killed += c.killed;
        m.correct += c.correct;
        m.incorrect += c.incorrect;
        m.coldRestarts += c.coldRestarts;
        m.killTears += c.killTears;
    }
    into.points += shard.points;
    into.killed += shard.killed;
    into.killTears += shard.killTears;
    into.coldRestarts += shard.coldRestarts;
    into.tornRestores += shard.tornRestores;
    into.correct += shard.correct;
    into.incorrect += shard.incorrect;
    into.outcomeFlags.insert(into.outcomeFlags.end(),
                             shard.outcomeFlags.begin(),
                             shard.outcomeFlags.end());
    into.results.insert(into.results.end(), shard.results.begin(),
                        shard.results.end());
    into.coverage.clear();
    into.coverage.reserve(by_addr.size());
    for (const auto &entry : by_addr)
        into.coverage.push_back(entry.second);
    return true;
}

void
appendFrame(std::vector<std::uint8_t> &out, MsgKind kind,
            const std::uint8_t *payload, std::size_t len)
{
    ByteWriter w(out);
    w(kWireMagic, kWireVersion, kind, std::uint32_t(len));
    out.insert(out.end(), payload, payload + len);
}

std::vector<std::uint8_t>
frameMessage(MsgKind kind, const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(kFrameHeaderSize + payload.size());
    appendFrame(out, kind, payload.data(), payload.size());
    return out;
}

FrameStatus
parseFrame(const std::uint8_t *data, std::size_t len, Frame &out,
           std::size_t &consumed)
{
    consumed = 0;
    if (len < kFrameHeaderSize)
        return FrameStatus::kNeedMore;
    std::uint32_t magic = 0, payload_len = 0;
    std::uint16_t version = 0;
    MsgKind kind{};
    ByteReader r(data, len);
    r(magic, version, kind, payload_len);
    if (magic != kWireMagic)
        return FrameStatus::kBadMagic;
    if (payload_len > kMaxFramePayload)
        return FrameStatus::kOversized;
    if (len - kFrameHeaderSize < payload_len)
        return FrameStatus::kNeedMore;
    out.version = version;
    out.kind = kind;
    out.payload.assign(data + kFrameHeaderSize,
                       data + kFrameHeaderSize + payload_len);
    consumed = kFrameHeaderSize + payload_len;
    if (version != kWireVersion)
        return FrameStatus::kVersionMismatch;
    return FrameStatus::kOk;
}

std::uint64_t
requestKey(MsgKind kind, const std::vector<std::uint8_t> &payload)
{
    const std::uint8_t head[4] = {
        std::uint8_t(kWireVersion & 0xff),
        std::uint8_t(kWireVersion >> 8),
        std::uint8_t(std::uint16_t(kind) & 0xff),
        std::uint8_t(std::uint16_t(kind) >> 8),
    };
    const std::uint64_t h = fnv1a64(head, sizeof head);
    return fnv1a64(payload.data(), payload.size(), h);
}

ConfigWire
toWire(const core::FsConfig &cfg)
{
    ConfigWire w;
    w.roStages = cfg.roStages;
    w.sampleRate = cfg.sampleRate;
    w.counterBits = cfg.counterBits;
    w.enableTime = cfg.enableTime;
    w.nvmEntries = cfg.nvmEntries;
    w.entryBits = cfg.entryBits;
    w.dividerTap = cfg.dividerTap;
    w.dividerTotal = cfg.dividerTotal;
    w.strategy = std::uint8_t(cfg.strategy);
    return w;
}

core::FsConfig
fromWire(const ConfigWire &w)
{
    core::FsConfig cfg;
    cfg.roStages = std::size_t(w.roStages);
    cfg.sampleRate = w.sampleRate;
    cfg.counterBits = std::size_t(w.counterBits);
    cfg.enableTime = w.enableTime;
    cfg.nvmEntries = std::size_t(w.nvmEntries);
    cfg.entryBits = std::size_t(w.entryBits);
    cfg.dividerTap = std::size_t(w.dividerTap);
    cfg.dividerTotal = std::size_t(w.dividerTotal);
    cfg.strategy = calib::Strategy(w.strategy);
    return cfg;
}

std::string
workloadName(const WorkloadSpec &spec)
{
    switch (spec.kind) {
      case WorkloadSpec::Kind::kCrc32:
        return "crc32-" + std::to_string(spec.a);
      case WorkloadSpec::Kind::kFir:
        return "fir-" + std::to_string(spec.a) + "x" +
               std::to_string(spec.b);
      case WorkloadSpec::Kind::kSort:
        return "sort-" + std::to_string(spec.a);
      case WorkloadSpec::Kind::kMatmul:
        return "matmul-" + std::to_string(spec.a);
    }
    return "unknown";
}

} // namespace serve
} // namespace fs
