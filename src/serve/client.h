/**
 * @file
 * Client side of the fs::serve protocol.
 *
 * Client speaks the framed wire format over a Unix-domain socket
 * (endpoint = filesystem path) or TCP (endpoint = "tcp:port" or
 * "tcp:a.b.c.d:port", numeric only). One call() is one synchronous
 * request/reply exchange; the connection persists across calls, and
 * because the daemon answers each connection in request order, a
 * Client can be layered under pipelined use later without a protocol
 * change.
 *
 * The offload helpers are how benches opt in: when FS_SERVE_SOCKET
 * names a reachable daemon, tryServe() routes the job there (hitting
 * the daemon's content-addressed cache); otherwise the caller falls
 * back to in-process execution. exploreDesignSpaceServed() wraps the
 * DSE entry point this way — byte-determinism of the engine
 * guarantees both paths give identical fronts.
 */

#ifndef FS_SERVE_CLIENT_H_
#define FS_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dse/fs_design_space.h"
#include "serve/wire.h"

namespace fs {
namespace serve {

/**
 * fleet::Router's retry policy: exponential backoff with
 * deterministic jitter. Attempt k sleeps backoffBaseMs * 2^k, capped
 * at backoffMaxMs, scaled by a factor drawn uniformly from
 * [1 - jitter, 1 + jitter] from the router's seeded generator --
 * reproducible in tests, decorrelated in fleets.
 */
struct RetryPolicy {
    std::uint32_t maxAttempts = 6;
    std::uint32_t backoffBaseMs = 5;
    std::uint32_t backoffMaxMs = 320;
    double jitter = 0.25;
};

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** FS_SERVE_SOCKET, or "" when unset. */
    static std::string defaultEndpoint();

    /** Connect to "path", "tcp:port", or "tcp:a.b.c.d:port". */
    bool connect(const std::string &endpoint, std::string &err);
    bool connected() const { return fd_ >= 0; }
    void close();

    /** Raw socket (for callers multiplexing with poll), -1 if closed. */
    int fd() const { return fd_; }

    /** Endpoint of the last connect() (reconnect target). */
    const std::string &endpoint() const { return endpoint_; }

    /**
     * One framed request/reply exchange at the byte level. @return
     * false with `err` set on transport failure (the connection is
     * closed); a server-side ErrorResult still returns true with
     * `reply.kind == kErrorReply`.
     */
    bool call(MsgKind kind, const std::vector<std::uint8_t> &payload,
              Frame &reply, std::string &err);

    /**
     * Typed exchange: encode, call, decode. A server-side ErrorResult
     * decodes into `resp` and returns true like any other response.
     */
    bool call(const Request &req, Response &resp, std::string &err);

    /** Typed health probe (control plane, never queued). */
    bool ping(PingResult &out, std::string &err);

    /** Push one cache entry to the peer (hash-ring replication). */
    bool cacheInsert(const CacheInsertJob &job, bool &stored,
                     std::string &err);

  private:
    int fd_ = -1;
    std::string endpoint_;
};

/**
 * Serve `req` through the daemon named by FS_SERVE_SOCKET using a
 * process-wide connection. @return false (caller should run the job
 * in-process) when the variable is unset, the daemon is unreachable,
 * or it answers with an error.
 */
bool tryServe(const Request &req, Response &resp);

/**
 * dse::exploreDesignSpace with daemon offload: identical signature,
 * identical (bit-exact) result, served from the FS_SERVE_SOCKET
 * daemon's cache when one is reachable. Note the wire carries the
 * standard NSGA-II knobs (population, generations, seed); calls that
 * customize crossover/mutation rates are executed locally.
 */
std::vector<dse::FsParetoPoint>
exploreDesignSpaceServed(const circuit::Technology &tech,
                         dse::Nsga2::Options opts = {},
                         double fixed_rate = 0.0,
                         bool explore_divider = false);

} // namespace serve
} // namespace fs

#endif // FS_SERVE_CLIENT_H_
