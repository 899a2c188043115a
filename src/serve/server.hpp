/// \file server.hpp
/// \brief radiocast_serve's daemon core: a socket front end on SweepRunner.
///
/// The paper's schemes amortize one expensive labeling over arbitrarily many
/// executions — an economy a batch CLI keeps discarding at process exit.
/// `Server` holds the `SweepRunner` (and its `PlanCache` / `PlanStore`)
/// alive behind a Unix or loopback-TCP socket and serves batched
/// `ExperimentSpec` requests over it, so every client, and every restart
/// with a plan store attached, starts from the warm regime.
///
/// Wire protocol (u32 little-endian length-prefixed JSON frames, see
/// runtime/wire.hpp for the framing and the spec/result encodings):
///
///   -> {"v":2,"type":"batch","id":7,"specs":[<spec>...]}
///   <- {"v":2,"type":"result","id":7,"index":0,"result":<result>}   (per
///      spec, in spec order, streamed as soon as the batch finishes)
///   <- {"v":2,"type":"done","id":7,"count":N,"stats":<cache stats>}
///
///   A batch may opt into the compact binary result encoding with
///   "encoding":"binary" (absent or "json" = JSON results above):
///   <- {"v":2,"type":"results","id":7,"count":N,"encoding":"binary"}
///   <- one RAW frame whose payload is radiocast-resbin/1 (wire.hpp): the
///      N per-spec records, in spec order
///   <- the usual done frame
///
///   -> {"v":2,"type":"ping"}            <- {"v":2,"type":"pong"}
///   -> {"v":2,"type":"stats"}           <- {"v":2,"type":"stats",
///      "server":{...,"graphs":..}, "pipeline":{queue depth, coalesced
///      batches, merged specs, ...}, "cache":{...}, "store":{...}}
///   -> {"v":2,"type":"compact","max_bytes":N}
///                                       <- {"v":2,"type":"compacted",
///      "records_evicted":K,"records":R,"bytes":B}   (plan-store GC)
///   -> {"v":2,"type":"shutdown"}        <- {"v":2,"type":"bye"}  (server
///      then stops accepting and drains)
///
/// Any malformed frame, unknown type, undecodable spec, unregistered
/// scheme, or contract violation while running answers
/// {"v":2,"type":"error","id":...,"code":"...","error":"..."} — `code` is
/// stable and machine-readable (bad_json / bad_version / bad_request /
/// bad_spec / run_failed / no_store); the connection stays usable; only
/// framing-level poison (oversized frame) closes it.
///
/// Concurrency: one accept thread plus one thread per connection, and (with
/// `executor.pipeline_depth` > 0, the default) the two pipeline stage
/// threads of `serve::Executor` — connection threads only decode and
/// enqueue, concurrent batches coalesce into merged sweeps, and encoding
/// overlaps execution (see executor.hpp for the stage diagram).  Depth 0
/// selects the legacy serial path: batches from different connections
/// serialize on the runner mutex.  Either way each connection's responses
/// arrive in the order it sent its batches, and results are byte-identical
/// across paths.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/sweep.hpp"
#include "serve/executor.hpp"
#include "support/json.hpp"

namespace radiocast::serve {

struct ServerOptions {
  /// Unix-domain socket path; non-empty selects the Unix listener.
  std::string unix_path;
  /// Loopback TCP port; used when `unix_path` is empty (0 = ephemeral,
  /// read the bound port back with `tcp_port()`).
  std::uint16_t tcp_port = 0;
  /// Frames larger than this poison the connection (decode bombs).
  std::size_t max_frame_bytes = 1 << 26;
  /// Pipeline configuration.  `executor.pipeline_depth` 0 disables the
  /// pipeline entirely (legacy serial path, one batch at a time on the
  /// runner mutex) — the differential tests pin the two paths against each
  /// other.
  ExecutorOptions executor;
};

struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t batches = 0;
  std::uint64_t specs_run = 0;
  std::uint64_t errors = 0;  ///< error frames sent
};

class Server {
 public:
  /// The runner (graphs, cache, attached store) outlives the server.
  Server(runtime::SweepRunner& runner, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and starts the accept thread (and, with a non-zero
  /// pipeline depth, the executor stage threads).  Violates a precondition
  /// when the address cannot be bound.
  void start();

  /// Stops accepting, closes every live connection, drains the pipeline,
  /// and joins all threads.  Idempotent; also invoked by the destructor.
  void stop();

  /// Blocks until stop() is called (from a shutdown request or another
  /// thread).  The daemon main calls this after start().
  void wait();

  bool running() const;
  /// The bound TCP port (valid after start() on a TCP listener).
  std::uint16_t tcp_port() const noexcept { return bound_port_; }
  const std::string& unix_path() const noexcept { return options_.unix_path; }
  ServerStats stats() const;
  /// Pipeline counters (all zero on the serial path).
  PipelineStats pipeline_stats() const;

 private:
  /// One live connection: its socket plus a write lock so the encode
  /// thread's result frames and the connection thread's error frames never
  /// interleave mid-frame.
  struct Conn {
    int fd = -1;
    std::mutex write_mu;
  };

  void accept_loop();
  void serve_connection(const std::shared_ptr<Conn>& conn);
  /// Handles one decoded request frame; returns false when the connection
  /// asked the whole server to shut down.
  bool handle(const std::shared_ptr<Conn>& conn,
              const support::Json& request);
  void handle_batch(const std::shared_ptr<Conn>& conn,
                    const support::Json& request);
  void handle_compact(const std::shared_ptr<Conn>& conn,
                      const support::Json& request);
  /// Streams one completed batch back: result frames (JSON or the binary
  /// announce + raw resbin frame) then the done frame.
  void send_batch_results(const std::shared_ptr<Conn>& conn,
                          const support::Json& id, bool binary,
                          const Completion& completion);
  void send_json(const std::shared_ptr<Conn>& conn,
                 const support::Json& message);
  void send_error(const std::shared_ptr<Conn>& conn, const support::Json& id,
                  const char* code, const std::string& error);
  void count_error();

  runtime::SweepRunner& runner_;
  ServerOptions options_;
  std::mutex runner_mu_;  ///< serial path: serializes batches
  std::unique_ptr<Executor> executor_;  ///< null on the serial path

  mutable std::mutex mu_;  ///< guards everything below
  ServerStats stats_;
  bool running_ = false;
  bool stopping_ = false;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::size_t live_workers_ = 0;  ///< connection threads not yet finished
  std::vector<std::shared_ptr<Conn>> conns_;
  /// Signals running_ turning false and live_workers_ dropping.
  std::condition_variable stopped_cv_;
};

}  // namespace radiocast::serve
