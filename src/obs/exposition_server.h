// cad::obs::ExpositionServer — dependency-free HTTP/1.0 exposition of the
// pipeline's observability surface.
//
// A deliberately tiny, blocking poll-loop server (POSIX sockets only, no
// third-party code) that serves GET requests on 127.0.0.1:
//
//   /metrics           Prometheus text exposition of a Registry snapshot
//   /healthz           JSON liveness: last-round age, rounds/sec, ring
//                      occupancy (whatever the owner's healthz handler says)
//   /explain?round=r   JSON decision provenance for round r (404 when the
//                      round is not in the flight-recorder ring, 400 on a
//                      malformed round)
//   /advise?from=..&to=..  JSON root-cause advice over the round range
//                      [from, to]; both bounds optional (default: the whole
//                      ring). 400 on a malformed bound, 404 when the range
//                      selects no recorded rounds.
//   /                  plain-text index of the endpoints
//
// /explain and /advise also take tenant=name, routing the query to one
// tenant of a fleet. The handlers receive the tenant ("" when the parameter
// is absent) and answer empty — a 404 — for a tenant they do not host, so a
// single-stream owner 404s every tenant= query and a fleet 404s a query
// without one.
//
// Content is produced by caller-supplied handlers, so the server knows
// nothing about the engine; StreamingCad wires its own lock-taking closures
// in. Handlers run on the server thread — they must be thread-safe against
// the owner's mutators and must not block indefinitely.
//
// Lifecycle: Start() binds (port 0 picks an ephemeral port, reported by
// port()), spawns the serve thread, and returns; Stop() (or destruction)
// wakes the poll loop through a self-pipe and joins. One connection is
// served at a time — scrape traffic is rare and tiny, and serial handling
// keeps the server trivially correct under TSan.
#ifndef CAD_OBS_EXPOSITION_SERVER_H_
#define CAD_OBS_EXPOSITION_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace cad::obs {

class ExpositionServer {
 public:
  struct Handlers {
    // Body for /metrics (Prometheus text exposition format).
    std::function<std::string()> metrics_text;
    // Body for /healthz (a JSON object).
    std::function<std::string()> healthz_json;
    // Body for /explain?[tenant=name&]round=r, or empty when the tenant or
    // the round is unknown (404).
    std::function<std::string(const std::string& tenant, int round)>
        explain_json;
    // Body for /advise?[tenant=name&]from=..&to=.. — root-cause advice over
    // the inclusive round range [from_round, to_round], -1 meaning unbounded
    // on that side. Empty when the tenant is unknown or the range selects no
    // recorded rounds (404).
    std::function<std::string(const std::string& tenant, int from_round,
                              int to_round)>
        advise_json;
  };

  // Binds 127.0.0.1:`port` (0 = ephemeral) and starts the serve thread.
  ~ExpositionServer();
  [[nodiscard]] static Result<std::unique_ptr<ExpositionServer>> Start(
      uint16_t port, Handlers handlers);
  ExpositionServer(const ExpositionServer&) = delete;
  ExpositionServer& operator=(const ExpositionServer&) = delete;

  // The bound port (the actual one when constructed with port 0).
  uint16_t port() const { return port_; }
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  // Idempotent and safe to race; wakes the poll loop and joins the serve
  // thread.
  void Stop() EXCLUDES(join_mu_);

 private:
  ExpositionServer(int listen_fd, int wake_read_fd, int wake_write_fd,
                   uint16_t port, Handlers handlers);

  void Serve();
  void HandleConnection(int fd);
  std::string BuildResponse(const std::string& request_line);

  const int listen_fd_;
  const int wake_read_fd_;   // self-pipe: Stop() writes, poll loop wakes
  const int wake_write_fd_;
  const uint16_t port_;
  const Handlers handlers_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> requests_served_{0};
  // Rank 10 (common/lock_order.h), the outermost rank: Stop() holds it
  // across the serve-thread join, and handler code on that thread takes
  // every other ranked lock — so this one must never be acquired while any
  // of them is held.
  common::Mutex join_mu_{common::lock_order::kExpositionJoin,
                         "obs::ExpositionServer::join_mu_"};
  std::thread thread_ GUARDED_BY(join_mu_);  // joined at most once
};

}  // namespace cad::obs

#endif  // CAD_OBS_EXPOSITION_SERVER_H_
