/**
 * @file
 * The serve request engine: decode a typed job, execute it
 * deterministically, hand back canonical response bytes.
 *
 * Execution rides the repo's deterministic primitives — NSGA-II's
 * pre-drawn RNG batches, TortureRig::runKills' order-preserving
 * fan-out, the ISS's bit-exact DBT/interpreter equivalence —
 * so a response is byte-identical whether it is computed cold, read
 * from the content-addressed cache, deduplicated inside a batch, or
 * produced with 1 or 8 worker threads. That invariant is what makes
 * caching sound: the cache never has to decide whether a stored
 * response is "close enough", it is the exact bytes a fresh run would
 * produce.
 *
 * A torture job's kills come from fault::GoldenRun's two recipes
 * (pointKills for an exhaustive point-range shard, sampledKills
 * otherwise); the program is linted only when the job asks for a
 * coverage map.
 *
 * Exhaustive point-range shards of one campaign share their fault-free
 * analysis: the engine retains the most recent golden run built for an
 * exhaustive TortureJob, keyed on everything it depends on -- workload,
 * SRAM size and power schedule. It is a single entry: a shard of a
 * different campaign replaces it. Sampled torture jobs build their own
 * and retain nothing. Each request still grades on its own rig, so the
 * recovery memo never outlives the request.
 *
 * Concurrency contract: execute() is const and safe from any number
 * of threads at once. The retained golden run is immutable once built
 * and swapped under a mutex, so concurrent shards read it without
 * locks; two threads missing at once both build it and the last one
 * stored wins (the builds are identical). serve() and serveBatch()
 * go through the ResultCache, which is safe to share as well.
 */

#ifndef FS_SERVE_ENGINE_H_
#define FS_SERVE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/result_cache.h"
#include "serve/wire.h"

namespace fs {
namespace fault {
struct GoldenRun;
struct TortureOutcome;
} // namespace fault
namespace soc {
struct GuestProgram;
} // namespace soc
namespace util {
class ThreadPool;
} // namespace util

namespace serve {

/** One served response: canonical payload bytes plus provenance. */
struct ServedResponse {
    MsgKind kind = MsgKind::kErrorReply;
    std::vector<std::uint8_t> payload;
    std::uint64_t key = 0;  ///< content address of the request
    bool fromCache = false; ///< answered without re-simulation
};

/**
 * The reply to a torture job whose kills, graded on @p run, gave
 * @p outcomes (in kill order). With @p coverage it carries the
 * per-instruction coverage map: each verdict counted under its
 * outcome's kill site, annotated from the program's lint report.
 */
TortureResult tortureResult(const fault::GoldenRun &run,
                            const std::vector<fault::TortureOutcome> &outcomes,
                            bool coverage);

class Engine
{
  public:
    /**
     * Most cycles a torture job's fault-free schedule may span:
     * TortureConfig::maxPowerCycles x (stableCycles + lowCycles). The
     * golden pass single-steps up to that many cycles and keeps a
     * probe step per instruction, so the product bounds a request's
     * work and memory; larger jobs are kBadRequest. The default
     * TortureConfig schedule (64 x 260k cycles) fits with 2x to spare.
     */
    static constexpr std::uint64_t kMaxTortureScheduleCycles = 1ull << 25;

    struct Options {
        /**
         * Worker threads for job-internal parallelism: 0 = the
         * process-wide shared pool (FS_THREADS aware), otherwise a
         * dedicated pool of exactly this many threads.
         */
        std::size_t threads = 0;
        std::size_t cacheBytes = 64u << 20;
        /** On-disk spill directory; "" = no spilling. */
        std::string spillDir;
    };

    Engine();
    explicit Engine(Options opts);
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Execute one decoded request directly; never touches the cache. */
    Response execute(const Request &req) const;

    /** Serve one decoded request through the cache. */
    ServedResponse serve(const Request &req);

    /**
     * Serve canonical request payload bytes (the transport path):
     * decode, consult the cache, execute on a miss. Undecodable
     * payloads produce an ErrorResult and are never cached.
     */
    ServedResponse serve(MsgKind kind,
                         const std::vector<std::uint8_t> &payload);

    /**
     * Serve a batch in order. Duplicate requests inside the batch are
     * executed once and answered with identical bytes.
     */
    std::vector<ServedResponse>
    serveBatch(const std::vector<Request> &batch);

    ResultCache &cache() { return cache_; }
    const ResultCache &cache() const { return cache_; }
    util::ThreadPool &pool() const;
    std::size_t threadCount() const;

  private:
    Response executeRoSweep(const RoSweepJob &job) const;
    Response executeDesignPoint(const DesignPointJob &job) const;
    Response executeDseShard(const DseShardJob &job) const;
    struct GoldenEntry;
    std::shared_ptr<const GoldenEntry>
    goldenFor(const TortureJob &job, soc::GuestProgram prog,
              std::string &err) const;
    Response executeTorture(const TortureJob &job) const;
    Response executeGuestRun(const GuestRunJob &job) const;
    Response executeLintImage(const LintImageJob &job) const;
    Response executeSwarm(const swarm::SwarmConfig &cfg) const;

    Options opts_;
    std::unique_ptr<util::ThreadPool> owned_pool_;
    ResultCache cache_;
    /** Golden run of the latest exhaustive shard (see file comment). */
    mutable std::mutex golden_mu_;
    mutable std::shared_ptr<const GoldenEntry> golden_;
};

} // namespace serve
} // namespace fs

#endif // FS_SERVE_ENGINE_H_
