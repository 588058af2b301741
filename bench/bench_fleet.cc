/**
 * @file
 * Fleet benchmark: routed serving throughput at 1/2/4/8 workers,
 * tail latency (p50/p99) with hedging off and on, and the overhead
 * of running under an active chaos plan. Every routed response is
 * checked byte-identical to direct single-node execution while being
 * timed -- the fleet's whole value is that scaling out and surviving
 * faults never changes a single answer byte.
 *
 * Workers execute on a single-threaded engine each, so the scaling
 * phases show parallel speedup only when the host has spare cores;
 * on a saturated (or single-core) host they instead show that the
 * router's fan-out overhead stays flat as the fleet grows -- either
 * reading is meaningful.
 *
 *   $ ./bench_fleet [requests-per-phase]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "fleet/chaos.h"
#include "fleet/fleet.h"
#include "fleet/router.h"
#include "serve/engine.h"
#include "util/logging.h"
#include "util/timer.h"

namespace {

using namespace fs;
using fleet::ChaosParams;
using fleet::ChaosPlan;
using fleet::Fleet;
using fleet::Router;
using serve::Frame;
using serve::MsgKind;
using serve::Request;

std::string
benchDir(const std::string &tag)
{
    std::string dir = "/tmp/fs_bench_fleet_";
    dir += std::to_string(::getpid());
    dir += "_";
    dir += tag;
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

/** A mixed request list: distinct guest runs + one RO sweep. */
std::vector<Request>
workload(std::size_t n)
{
    std::vector<Request> jobs;
    for (std::size_t i = 0; i < n; ++i) {
        serve::GuestRunJob guest;
        if (i % 2 == 0) {
            guest.workload.kind = serve::WorkloadSpec::Kind::kCrc32;
            guest.workload.a = std::uint32_t(2048 + 256 * (i % 13));
        } else {
            guest.workload.kind = serve::WorkloadSpec::Kind::kSort;
            guest.workload.a = std::uint32_t(256 + 64 * (i % 11));
        }
        guest.workload.seed = i;
        jobs.push_back(guest);
    }
    return jobs;
}

struct PhaseResult {
    double seconds = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
};

/**
 * Drive `jobs` through a routed fleet with `clients` threads and
 * check every reply against `reference`. Fatal on any mismatch or
 * typed error -- a bench that silently measured wrong answers would
 * be worse than useless.
 */
PhaseResult
drive(Router &router, const std::vector<Request> &jobs,
      const std::vector<std::vector<std::uint8_t>> &reference,
      std::size_t clients)
{
    std::vector<double> latencies_ms(jobs.size(), 0.0);
    std::atomic<std::size_t> next{0};
    std::atomic<int> bad{0};
    util::Timer timer;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < clients; ++t)
        threads.emplace_back([&] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= jobs.size())
                    return;
                util::Timer one;
                Frame reply;
                router.callRaw(
                    serve::requestKind(jobs[i]),
                    serve::encodeRequestPayload(jobs[i]), reply);
                latencies_ms[i] = one.seconds() * 1e3;
                if (reply.kind == MsgKind::kErrorReply ||
                    reply.payload != reference[i])
                    bad.fetch_add(1);
            }
        });
    for (auto &t : threads)
        t.join();
    PhaseResult out;
    out.seconds = timer.seconds();
    if (bad.load() > 0)
        fatal(bad.load(), " routed replies were wrong or errored");
    std::sort(latencies_ms.begin(), latencies_ms.end());
    out.p50Ms = latencies_ms[latencies_ms.size() / 2];
    out.p99Ms = latencies_ms[latencies_ms.size() * 99 / 100];
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t n =
        argc > 1 ? std::size_t(std::atol(argv[1])) : 160;
    const std::size_t clients = 8;

    const std::vector<Request> jobs = workload(n);
    serve::Engine direct;
    std::vector<std::vector<std::uint8_t>> reference;
    reference.reserve(jobs.size());
    for (const Request &req : jobs)
        reference.push_back(
            serve::encodeResponsePayload(direct.execute(req)));

    // Throughput scaling: 1 -> 8 workers, same workload, no chaos.
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        Fleet::Options fopts;
        fopts.workers = workers;
        fopts.socketDir = benchDir("w" + std::to_string(workers));
        Fleet fleet(fopts);
        std::string err;
        if (!fleet.start(err))
            fatal("fleet start: ", err);
        Router::Options ropts;
        ropts.endpoints = fleet.endpoints();
        ropts.maxInFlight = 2 * clients;
        Router router(ropts);
        const PhaseResult r = drive(router, jobs, reference, clients);
        const double rate = double(n) / r.seconds;
        std::printf("%zu worker%s: %6.1f req/s  p50 %5.2f ms  "
                    "p99 %5.2f ms\n",
                    workers, workers == 1 ? " " : "s", rate, r.p50Ms,
                    r.p99Ms);
        router.stop();
        fleet.stop();
    }

    // Tail latency with hedging off vs on, 4 workers, one of them
    // deliberately slow (a chaos stall on every reply): hedging
    // should cut p99 roughly to the healthy replicas' latency.
    for (const bool hedge : {false, true}) {
        Fleet::Options fopts;
        fopts.workers = 4;
        fopts.socketDir = benchDir(hedge ? "hs1" : "hs0");
        fopts.chaosEnabled = true;
        ChaosPlan plan;
        plan.seed = 1;
        plan.scripts.resize(4);
        for (std::uint64_t serial = 0; serial < 4096; ++serial) {
            serve::ChaosAction stall;
            stall.stallMs = 25; // worker 0 is pathologically slow
            plan.scripts[0].emplace(serial, stall);
        }
        fopts.chaos = plan;
        Fleet fleet(fopts);
        std::string err;
        if (!fleet.start(err))
            fatal("fleet start: ", err);
        Router::Options ropts;
        ropts.endpoints = fleet.endpoints();
        ropts.maxInFlight = 2 * clients;
        ropts.hedgeAfterMs = hedge ? 8 : 0;
        Router router(ropts);
        const PhaseResult r = drive(router, jobs, reference, clients);
        std::printf("hedge %-3s (slow worker): p50 %5.2f ms  "
                    "p99 %5.2f ms  hedges=%llu wins=%llu\n",
                    hedge ? "on" : "off", r.p50Ms, r.p99Ms,
                    (unsigned long long)router.stats().hedges,
                    (unsigned long long)router.stats().hedgeWins);
        router.stop();
        fleet.stop();
    }

    // Chaos overhead: 4 workers under an active fault plan (resets,
    // truncations, stalls -- no kills) vs the clean 4-worker run.
    {
        Fleet::Options fopts;
        fopts.workers = 4;
        fopts.socketDir = benchDir("chaos");
        fopts.chaosEnabled = true;
        ChaosParams params;
        params.resetProbability = 0.05;
        params.truncateProbability = 0.05;
        params.stallProbability = 0.05;
        params.maxStallMs = 5;
        params.horizonReplies = 4096;
        fopts.chaos = ChaosPlan::random(7, 4, params);
        Fleet fleet(fopts);
        std::string err;
        if (!fleet.start(err))
            fatal("fleet start: ", err);
        Router::Options ropts;
        ropts.endpoints = fleet.endpoints();
        ropts.maxInFlight = 2 * clients;
        ropts.retry.backoffBaseMs = 1;
        ropts.retry.backoffMaxMs = 20;
        Router router(ropts);
        const PhaseResult r = drive(router, jobs, reference, clients);
        std::printf("4 workers + chaos: %6.1f req/s  p99 %5.2f ms  "
                    "faults=%llu retries=%llu\n",
                    double(n) / r.seconds, r.p99Ms,
                    (unsigned long long)fopts.chaos.faultsApplied(),
                    (unsigned long long)router.stats().retries);
        router.stop();
        fleet.stop();
    }

    return 0;
}
