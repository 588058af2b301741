/**
 * @file
 * Swarm benchmark: fleet-scale device simulation throughput and the
 * cost of combining shard aggregates. It prints end-to-end
 * devices/sec for a full office-profile run at 1 thread and at 8
 * threads (their ratio is the parallel scaling), and the rate at
 * which per-shard SwarmAggregates fold into a fleet-wide total -- the
 * merge is the serial tail of every sharded run, so it must stay
 * cheap relative to simulation.
 *
 * The bench is also a correctness gate: it asserts a sanity floor on
 * devices/sec (an order of magnitude under the slowest observed
 * single-core rate), checks the 1-thread and 8-thread runs agree
 * byte-for-byte, and re-runs the anomaly-monitor precision check on a
 * seeded known-anomalous cohort -- every drifted device must be
 * flagged at >=80% recall with <=2% false positives, because a fast
 * monitor that stops detecting is not worth benchmarking.
 *
 *   $ ./bench_swarm [devices]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "serve/wire.h"
#include "swarm/swarm.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace {

using namespace fs;
using swarm::SwarmAggregates;
using swarm::SwarmConfig;

/** Canonical wire bytes for an aggregate -- the byte-identity probe. */
std::vector<std::uint8_t>
aggregateBytes(const SwarmAggregates &agg)
{
    serve::SwarmResult result;
    result.agg = agg;
    return serve::encodeResponsePayload(serve::Response{result});
}

SwarmConfig
baseConfig(std::size_t devices)
{
    SwarmConfig cfg;
    cfg.deviceCount = std::uint64_t(devices);
    cfg.seed = 7;
    cfg.profile = swarm::HarvestProfile::kOffice;
    cfg.traceSeconds = 600.0;
    cfg.anomalyEvery = 50;
    cfg.anomalyFactor = 0.25;
    const std::string err = swarm::validateConfig(cfg);
    if (!err.empty())
        fatal("bench config invalid: ", err);
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t devices =
        argc > 1 ? std::size_t(std::atol(argv[1])) : 10'000;
    const SwarmConfig cfg = baseConfig(devices);

    // Phase 1: end-to-end simulation throughput, 1 thread then 8.
    // The two runs double as a bit-identity check.
    double rate_1t = 0.0;
    std::vector<std::uint8_t> bytes_1t;
    SwarmAggregates agg;
    for (const std::size_t threads : {std::size_t(1), std::size_t(8)}) {
        util::ThreadPool pool(threads);
        util::Timer timer;
        agg = swarm::runSwarmShard(cfg, pool);
        const double seconds = timer.seconds();
        const double rate = double(devices) / seconds;
        if (threads == 1) {
            rate_1t = rate;
            bytes_1t = aggregateBytes(agg);
        } else if (aggregateBytes(agg) != bytes_1t) {
            fatal("8-thread aggregate differs from 1-thread bytes");
        }
        std::printf("%zu thread%s: %8.0f devices/s  (%zu devices, "
                    "%.2f s)\n",
                    threads, threads == 1 ? " " : "s", rate, devices,
                    seconds);
    }

    // Sanity floor: the slowest observed single-core host does ~19k
    // office-profile devices/sec; an order-of-magnitude regression
    // means the simulator broke, not that the machine is busy.
    if (rate_1t < 1000.0)
        fatal("devices/sec sanity floor failed: ", rate_1t, " < 1000");

    // Anomaly-monitor precision on the seeded cohort baked into the
    // config: every 50th device drifts its checkpoint cadence halfway
    // through the trace.
    {
        const std::uint64_t cohort = agg.cohortDevices;
        const std::uint64_t hits = agg.flaggedInCohort;
        const std::uint64_t false_flags =
            agg.flaggedDevices - agg.flaggedInCohort;
        const std::uint64_t clean = agg.deviceCount - cohort;
        std::printf("anomaly cohort: %llu/%llu flagged, %llu false "
                    "flags in %llu clean devices\n",
                    (unsigned long long)hits,
                    (unsigned long long)cohort,
                    (unsigned long long)false_flags,
                    (unsigned long long)clean);
        if (cohort == 0)
            fatal("anomaly cohort is empty; config drifted");
        if (hits * 5 < cohort * 4)
            fatal("anomaly recall below 80%: ", hits, "/", cohort);
        if (false_flags * 50 > clean)
            fatal("anomaly false-positive rate above 2%: ",
                  false_flags, "/", clean);
    }

    // Phase 2: aggregate-merge throughput. Build a realistic shard
    // aggregate once, then fold copies of it repeatedly -- each fold
    // merges histograms, reservoirs, and block stats exactly as the
    // sharded client does after a fleet run.
    {
        SwarmConfig shard_cfg = cfg;
        shard_cfg.spanDevices = swarm::kSwarmBlock * 4;
        util::ThreadPool pool(1);
        const SwarmAggregates shard =
            swarm::runSwarmShard(shard_cfg, pool);
        const std::size_t merges = 2000;
        util::Timer timer;
        for (std::size_t i = 0; i < merges; ++i) {
            SwarmAggregates into = shard;
            SwarmAggregates from = shard;
            // Pretend `from` is the next contiguous shard so the
            // merge takes the real (non-error) path.
            from.firstBlock = into.firstBlock + into.blocks.size();
            const std::string err =
                swarm::mergeAggregates(&into, from);
            if (!err.empty())
                fatal("merge failed: ", err);
        }
        const double seconds = timer.seconds();
        const double rate = double(merges) / seconds;
        std::printf("merge: %8.0f shard-merges/s  (%zu merges, "
                    "%.3f s)\n",
                    rate, merges, seconds);
        if (rate < 50.0)
            fatal("merge throughput sanity floor failed: ", rate,
                  " < 50/s");
    }
    return 0;
}
