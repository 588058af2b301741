/**
 * @file
 * Serving-layer benchmark: the cost of a cold NSGA-II DSE shard
 * through serve::Engine versus the same request answered from the
 * content-addressed result cache, plus batched duplicate requests.
 * Verifies the determinism contract while timing it: the cached and
 * batched response bytes, and a cold run at 8 worker threads, must be
 * byte-identical to the 1-thread cold run. The summary line prints
 * the cold latencies and the measured cache speedup, and warns below
 * the 10x acceptance floor.
 *
 *   $ ./bench_serve [cached-repeats]
 */

#include <cstdio>
#include <cstdlib>

#include "serve/engine.h"
#include "util/logging.h"
#include "util/timer.h"

namespace {

using namespace fs;
using namespace fs::serve;

Engine::Options
options(std::size_t threads)
{
    Engine::Options opts;
    opts.threads = threads;
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t repeats =
        argc > 1 ? std::size_t(std::atol(argv[1])) : 64;

    DseShardJob job;
    job.tech = "90nm";
    job.populationSize = 48;
    job.generations = 10;
    job.seed = 0x5eed;
    const Request req = job;

    // Cold, 1 worker thread.
    Engine one(options(1));
    util::Timer timer;
    const ServedResponse cold = one.serve(req);
    const double cold_seconds = timer.seconds();
    if (cold.fromCache || cold.kind == MsgKind::kErrorReply)
        fatal("cold serve must execute and succeed");

    // Cold, 8 worker threads: must be byte-identical.
    Engine eight(options(8));
    timer.reset();
    const ServedResponse cold8 = eight.serve(req);
    const double cold8_seconds = timer.seconds();
    if (cold8.payload != cold.payload)
        fatal("8-thread cold response differs from 1-thread bytes");

    // Cached repeats against the warm 1-thread engine.
    timer.reset();
    for (std::size_t i = 0; i < repeats; ++i) {
        const ServedResponse hit = one.serve(req);
        if (!hit.fromCache)
            fatal("repeat ", i, " missed the cache");
        if (hit.payload != cold.payload)
            fatal("cached response differs from cold bytes");
    }
    const double cached_seconds = timer.seconds();

    // A batch of duplicates through a fresh engine: one execution,
    // identical bytes for every copy.
    Engine batcher(options(8));
    const std::vector<Request> batch(16, req);
    timer.reset();
    const std::vector<ServedResponse> served =
        batcher.serveBatch(batch);
    const double batch_seconds = timer.seconds();
    for (const ServedResponse &r : served)
        if (r.payload != cold.payload)
            fatal("batched response differs from cold bytes");

    const double per_hit = cached_seconds / double(repeats);
    const double speedup =
        per_hit > 0.0 ? cold_seconds / per_hit : 0.0;
    std::printf("cold %.3f s (1t), %.3f s (8t); cached %.2f us/hit,"
                " %.0fx vs cold; batch of %zu in %.3f s\n",
                cold_seconds, cold8_seconds, per_hit * 1e6, speedup,
                batch.size(), batch_seconds);
    if (speedup < 10.0)
        warn("cache speedup ", speedup, "x is below the 10x floor");
    return 0;
}
