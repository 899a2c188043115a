#include "serve/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "runtime/scheme.hpp"
#include "runtime/wire.hpp"
#include "support/contracts.hpp"

namespace radiocast::serve {

namespace {

using support::Json;

Json make_frame(const char* type) {
  Json j(Json::Object{});
  j.set("v", Json(runtime::wire::kWireVersion));
  j.set("type", Json(std::string(type)));
  return j;
}

Json cache_stats_json(const runtime::PlanCacheStats& s) {
  Json j(Json::Object{});
  j.set("plan_hits", Json(s.plan_hits));
  j.set("plan_misses", Json(s.plan_misses));
  j.set("plan_store_hits", Json(s.plan_store_hits));
  j.set("plan_evictions", Json(s.plan_evictions));
  j.set("compiled_hits", Json(s.compiled_hits));
  j.set("compiled_misses", Json(s.compiled_misses));
  j.set("compiled_store_hits", Json(s.compiled_store_hits));
  j.set("compiled_evictions", Json(s.compiled_evictions));
  return j;
}

/// write() until done; false on a broken pipe / closed peer.
bool write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(runtime::SweepRunner& runner, ServerOptions options)
    : runner_(runner), options_(std::move(options)) {}

Server::~Server() {
  stop();
  // A connection thread that ran stop() for a shutdown request detached
  // itself and may still be inside it; wait until every connection thread
  // is past its last touch of this object.
  std::unique_lock<std::mutex> lock(mu_);
  stopped_cv_.wait(lock, [this] { return live_workers_ == 0; });
}

void Server::start() {
  RC_EXPECTS_MSG(!running(), "server already started");
  int fd = -1;
  if (!options_.unix_path.empty()) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    RC_EXPECTS_MSG(fd >= 0, "socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    RC_EXPECTS_MSG(options_.unix_path.size() < sizeof(addr.sun_path),
                   "unix socket path too long: " + options_.unix_path);
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_path.c_str());  // stale socket from a past run
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      RC_EXPECTS_MSG(false, "bind failed on " + options_.unix_path);
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    RC_EXPECTS_MSG(fd >= 0, "socket() failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      RC_EXPECTS_MSG(false, "bind failed on loopback port " +
                                std::to_string(options_.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port_ = ntohs(bound.sin_port);
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    RC_EXPECTS_MSG(false, "listen failed");
  }
  if (options_.executor.pipeline_depth > 0) {
    executor_ = std::make_unique<Executor>(runner_, options_.executor);
    executor_->start();
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    listen_fd_ = fd;
    running_ = true;
    stopping_ = false;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  std::thread accept_thread;
  std::vector<std::thread> workers;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!running_ && accept_thread_.joinable() == false &&
        workers_.empty()) {
      return;
    }
    stopping_ = true;
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RDWR);
    accept_thread = std::move(accept_thread_);
    workers = std::move(workers_);
  }
  if (accept_thread.joinable()) accept_thread.join();
  for (std::thread& w : workers) {
    if (!w.joinable()) continue;
    // A shutdown request reaches stop() from its own connection thread;
    // that thread cannot join itself, so it is released instead (it only
    // has the fd teardown left to run).
    if (w.get_id() == std::this_thread::get_id()) {
      w.detach();
    } else {
      w.join();
    }
  }
  // Drain the pipeline after the connection threads are gone: queued
  // batches still run to completion (their response writes fail on the
  // shut-down sockets, which is fine), and the stage threads join.
  if (executor_ != nullptr) executor_->stop();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& conn : conns_) ::close(conn->fd);
    conns_.clear();
    running_ = false;
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  stopped_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stopped_cv_.wait(lock, [this] { return !running_; });
}

bool Server::running() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

ServerStats Server::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

PipelineStats Server::pipeline_stats() const {
  return executor_ != nullptr ? executor_->stats() : PipelineStats{};
}

void Server::accept_loop() {
  while (true) {
    int listen_fd = -1;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      listen_fd = listen_fd_;
    }
    if (listen_fd < 0) return;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop()
    }
    // Request/response framing over loopback: Nagle + delayed ACK adds tens
    // of milliseconds per exchange; disable it.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    ++stats_.connections;
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conns_.push_back(conn);
    ++live_workers_;
    workers_.emplace_back([this, conn] {
      serve_connection(conn);
      const std::lock_guard<std::mutex> lock(mu_);
      --live_workers_;
      stopped_cv_.notify_all();
    });
  }
}

void Server::serve_connection(const std::shared_ptr<Conn>& conn) {
  runtime::wire::FrameReader frames(options_.max_frame_bytes);
  char buf[64 * 1024];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    frames.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    if (frames.bad()) break;  // oversized frame: unrecoverable framing
    while (open) {
      const auto payload = frames.next();
      if (!payload) break;
      const auto parsed = support::parse_json(*payload);
      if (!parsed.ok) {
        send_error(conn, Json(), "bad_json", "bad JSON: " + parsed.error);
        continue;
      }
      open = handle(conn, parsed.value);
    }
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  // The fd itself is closed by stop() (it stays in conns_ so shutdown can
  // interrupt a blocked recv); nothing else to release here.
  if (!open) stop();  // shutdown request: stop from outside the accept loop
}

bool Server::handle(const std::shared_ptr<Conn>& conn, const Json& request) {
  const Json& id = request.get("id");
  const std::uint64_t version = request.get("v").as_uint(1);
  if (version > runtime::wire::kWireVersion) {
    send_error(conn, id, "bad_version",
               "wire version " + std::to_string(version) + " not supported");
    return true;
  }
  const std::string& type = request.get("type").as_string();
  if (type == "batch") {
    handle_batch(conn, request);
    return true;
  }
  if (type == "ping") {
    Json pong = make_frame("pong");
    if (!id.is_null()) pong.set("id", id);
    send_json(conn, pong);
    return true;
  }
  if (type == "stats") {
    Json out = make_frame("stats");
    if (!id.is_null()) out.set("id", id);
    const ServerStats s = stats();
    Json server_json(Json::Object{});
    server_json.set("connections", Json(s.connections));
    server_json.set("batches", Json(s.batches));
    server_json.set("specs_run", Json(s.specs_run));
    server_json.set("errors", Json(s.errors));
    server_json.set("graphs", Json(std::uint64_t{runner_.graph_count()}));
    out.set("server", std::move(server_json));
    const PipelineStats p = pipeline_stats();
    Json pipeline_json(Json::Object{});
    pipeline_json.set("enabled", Json(executor_ != nullptr));
    pipeline_json.set("depth",
                      Json(std::uint64_t{options_.executor.pipeline_depth}));
    pipeline_json.set("window_ms",
                      Json(options_.executor.coalesce_window_ms));
    pipeline_json.set("queue_depth", Json(p.queue_depth));
    pipeline_json.set("max_queue_depth", Json(p.max_queue_depth));
    pipeline_json.set("batches", Json(p.batches));
    pipeline_json.set("specs", Json(p.specs));
    pipeline_json.set("submissions", Json(p.submissions));
    pipeline_json.set("coalesced_batches", Json(p.coalesced_batches));
    pipeline_json.set("merged_specs", Json(p.merged_specs));
    pipeline_json.set("fallback_splits", Json(p.fallback_splits));
    out.set("pipeline", std::move(pipeline_json));
    out.set("cache", cache_stats_json(runner_.cache_stats()));
    if (const runtime::PlanStore* store = runner_.store()) {
      const auto st = store->stats();
      Json store_json(Json::Object{});
      store_json.set("dir", Json(store->directory()));
      store_json.set("reads", Json(st.reads));
      store_json.set("read_hits", Json(st.read_hits));
      store_json.set("rejected", Json(st.rejected));
      store_json.set("writes", Json(st.writes));
      store_json.set("orphans_swept", Json(st.orphans_swept));
      store_json.set("records_evicted", Json(st.records_evicted));
      store_json.set("records", Json(std::uint64_t{store->entry_count()}));
      store_json.set("bytes", Json(std::uint64_t{store->total_bytes()}));
      out.set("store", std::move(store_json));
    }
    send_json(conn, out);
    return true;
  }
  if (type == "compact") {
    handle_compact(conn, request);
    return true;
  }
  if (type == "shutdown") {
    Json bye = make_frame("bye");
    if (!id.is_null()) bye.set("id", id);
    send_json(conn, bye);
    return false;
  }
  send_error(conn, id, "bad_request",
             "unknown request type: \"" + type + "\"");
  return true;
}

void Server::handle_batch(const std::shared_ptr<Conn>& conn,
                          const Json& request) {
  const Json id = request.get("id");
  const Json& specs_json = request.get("specs");
  if (specs_json.kind() != Json::Kind::kArray) {
    send_error(conn, id, "bad_request", "batch needs a \"specs\" array");
    return;
  }
  const Json& encoding = request.get("encoding");
  bool binary = false;
  if (!encoding.is_null()) {
    if (encoding.as_string() == "binary") {
      binary = true;
    } else if (encoding.as_string() != "json") {
      send_error(conn, id, "bad_request",
                 "unknown result encoding: \"" + encoding.as_string() + "\"");
      return;
    }
  }
  // Decode and validate the whole batch before running any of it: a batch
  // either runs completely or is rejected with the first offending index.
  // Scheme names are checked here too, so an unregistered scheme is a
  // decode-time `bad_spec` on both paths instead of poisoning a merged
  // sweep.
  std::vector<runtime::ExperimentSpec> specs;
  specs.reserve(specs_json.as_array().size());
  for (std::size_t i = 0; i < specs_json.as_array().size(); ++i) {
    auto decoded = runtime::wire::spec_from_json(specs_json.as_array()[i]);
    if (!decoded.ok) {
      send_error(conn, id, "bad_spec",
                 "spec " + std::to_string(i) + ": " + decoded.error);
      return;
    }
    if (runtime::SchemeRegistry::instance().find(decoded.value.scheme) ==
        nullptr) {
      send_error(conn, id, "bad_spec",
                 "spec " + std::to_string(i) + ": unregistered scheme \"" +
                     decoded.value.scheme + "\"");
      return;
    }
    specs.push_back(std::move(decoded.value));
  }

  if (executor_ != nullptr) {
    executor_->submit(std::move(specs),
                      [this, conn, id, binary](Completion completion) {
                        if (!completion.ok()) {
                          send_error(conn, id, "run_failed",
                                     completion.error);
                          return;
                        }
                        send_batch_results(conn, id, binary, completion);
                      });
    return;
  }

  // Serial path: one batch at a time on the runner mutex.
  Completion completion;
  try {
    const std::lock_guard<std::mutex> lock(runner_mu_);
    std::vector<runtime::BatchResults> sliced = runner_.run_merged({&specs});
    completion.results = std::move(sliced[0].results);
    completion.spec_wall_ns = std::move(sliced[0].spec_wall_ns);
    completion.cache_stats = runner_.cache_stats();
  } catch (const ContractViolation& violation) {
    // Unresolvable graph ref, out-of-range source... the batch is rejected,
    // the connection and server stay up.
    send_error(conn, id, "run_failed", violation.what());
    return;
  }
  send_batch_results(conn, id, binary, completion);
}

void Server::handle_compact(const std::shared_ptr<Conn>& conn,
                            const Json& request) {
  const Json& id = request.get("id");
  runtime::PlanStore* store = runner_.store();
  if (store == nullptr) {
    send_error(conn, id, "no_store",
               "no plan store attached; start with --store");
    return;
  }
  const std::uint64_t max_bytes = request.get("max_bytes").as_uint(0);
  const std::size_t evicted =
      store->compact(static_cast<std::size_t>(max_bytes));
  Json out = make_frame("compacted");
  if (!id.is_null()) out.set("id", id);
  out.set("records_evicted", Json(std::uint64_t{evicted}));
  out.set("records", Json(std::uint64_t{store->entry_count()}));
  out.set("bytes", Json(std::uint64_t{store->total_bytes()}));
  send_json(conn, out);
}

void Server::send_batch_results(const std::shared_ptr<Conn>& conn,
                                const Json& id, bool binary,
                                const Completion& completion) {
  const std::vector<runtime::SchemeResult>& results = completion.results;
  if (binary) {
    std::vector<runtime::wire::BinaryResult> records;
    records.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::uint64_t wall = i < completion.spec_wall_ns.size()
                                     ? completion.spec_wall_ns[i]
                                     : 0;
      records.push_back(runtime::wire::binary_result(results[i], wall));
    }
    Json announce = make_frame("results");
    if (!id.is_null()) announce.set("id", id);
    announce.set("count", Json(std::uint64_t{results.size()}));
    announce.set("encoding", Json("binary"));
    const std::string payload =
        runtime::wire::encode_results_binary(records);
    // The announce frame and the raw binary frame must be adjacent on the
    // wire, so both go out under one hold of the connection's write lock.
    const std::lock_guard<std::mutex> lock(conn->write_mu);
    write_all(conn->fd, runtime::wire::frame(announce.dump()));
    write_all(conn->fd, runtime::wire::frame(payload));
  } else {
    for (std::size_t i = 0; i < results.size(); ++i) {
      Json frame = make_frame("result");
      if (!id.is_null()) frame.set("id", id);
      frame.set("index", Json(std::uint64_t{i}));
      frame.set("result", runtime::wire::to_json(results[i]));
      send_json(conn, frame);
    }
  }
  // Count the batch before the done frame goes out: the done frame is the
  // client's synchronization point, so counters it can observe afterwards
  // (the stats frame, Server::stats()) must already include this batch.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.specs_run += results.size();
  }
  Json done = make_frame("done");
  if (!id.is_null()) done.set("id", id);
  done.set("count", Json(std::uint64_t{results.size()}));
  done.set("stats", cache_stats_json(completion.cache_stats));
  send_json(conn, done);
}

void Server::send_json(const std::shared_ptr<Conn>& conn,
                       const Json& message) {
  const std::string framed = runtime::wire::frame(message.dump());
  const std::lock_guard<std::mutex> lock(conn->write_mu);
  write_all(conn->fd, framed);
}

void Server::send_error(const std::shared_ptr<Conn>& conn, const Json& id,
                        const char* code, const std::string& error) {
  Json frame = make_frame("error");
  if (!id.is_null()) frame.set("id", id);
  frame.set("code", Json(std::string(code)));
  frame.set("error", Json(error));
  send_json(conn, frame);
  count_error();
}

void Server::count_error() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.errors;
}

}  // namespace radiocast::serve
