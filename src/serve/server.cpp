#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "hypergraph/io.hpp"
#include "obs/counters.hpp"

namespace fhp::serve {

namespace {

[[nodiscard]] std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct Server::Impl {
  int listen_fd = -1;
  std::thread accept_thread;
  std::mutex mutex;
  std::condition_variable shutdown_cv;
  bool shutting_down = false;
  /// Live connection fds, so shutdown() can unblock their read loops.
  std::vector<int> connection_fds;
  std::vector<std::thread> connection_threads;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      scheduler_(std::make_unique<Scheduler>(options_.scheduler)),
      impl_(std::make_unique<Impl>()) {
  FHP_REQUIRE(!options_.socket_path.empty(), "socket path must be set");
  FHP_REQUIRE(options_.socket_path.size() < sizeof(sockaddr_un{}.sun_path),
              "socket path too long for AF_UNIX");
}

Server::~Server() { shutdown(); }

void Server::start() {
  impl_->listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) {
    throw IoError(std::string("socket() failed: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  // A leftover socket file from a crashed daemon would fail bind with
  // EADDRINUSE even though nobody is listening; probe with connect() so a
  // live daemon is still protected.
  if (::connect(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    throw IoError("another daemon is already listening on " +
                  options_.socket_path);
  }
  ::unlink(options_.socket_path.c_str());
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    throw IoError("bind(" + options_.socket_path + ") failed: " + reason);
  }
  if (::listen(impl_->listen_fd, 64) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    throw IoError("listen(" + options_.socket_path + ") failed: " + reason);
  }
  impl_->accept_thread = std::thread([this] { accept_loop(); });
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->shutdown_cv.wait(lock, [&] { return impl_->shutting_down; });
  lock.unlock();
  // Finish teardown on the waiting thread (shutdown() may have been
  // triggered from a connection thread, which cannot join itself).
  shutdown();
}

void Server::shutdown() {
  {
    // Unblocks every live connection's read loop. Under the lock, so no
    // fd in the list can be closed (and its number reused) meanwhile.
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutting_down = true;
    for (const int fd : impl_->connection_fds) ::shutdown(fd, SHUT_RDWR);
  }
  impl_->shutdown_cv.notify_all();
  if (impl_->listen_fd >= 0) {
    // Unblocks accept(); the loop sees shutting_down and exits.
    ::shutdown(impl_->listen_fd, SHUT_RDWR);
  }
  // Joining is serialized so concurrent shutdown() calls don't both join;
  // a connection thread running shutdown() skips joining itself.
  static std::mutex join_mutex;
  std::lock_guard<std::mutex> join_lock(join_mutex);
  if (impl_->accept_thread.joinable() &&
      impl_->accept_thread.get_id() != std::this_thread::get_id()) {
    impl_->accept_thread.join();
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    threads.swap(impl_->connection_threads);
  }
  for (std::thread& t : threads) {
    if (t.get_id() == std::this_thread::get_id()) {
      t.detach();  // a connection thread triggered the shutdown
    } else if (t.joinable()) {
      t.join();
    }
  }
  if (impl_->listen_fd >= 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    ::unlink(options_.socket_path.c_str());
  }
  scheduler_->stop();
}

void Server::accept_loop() {
  while (true) {
    const int fd = ::accept(impl_->listen_fd, nullptr, nullptr);
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      if (impl_->shutting_down) {
        if (fd >= 0) ::close(fd);
        return;
      }
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // listener broken; daemon keeps serving open connections
      }
      impl_->connection_fds.push_back(fd);
      impl_->connection_threads.emplace_back(
          [this, fd] { serve_connection(fd); });
      FHP_COUNTER_ADD("serve/connections", 1);
    }
  }
}

Response Server::handle(const Request& request) {
  Response response;
  response.id = request.id;
  switch (request.op) {
    case Request::Op::kPing:
      response.status = "ok";
      break;
    case Request::Op::kStats:
      response.status = "ok";
      response.stats_json = scheduler_->stats_json();
      break;
    case Request::Op::kShutdown:
      response.status = "ok";
      break;
    case Request::Op::kPartition: {
      const std::int64_t start = now_us();
      try {
        Hypergraph h = read_hmetis(request.hypergraph);
        ScheduleResult scheduled =
            scheduler_->partition(std::move(h), request.options);
        response.status = scheduled.status;
        response.error = scheduled.error;
        if (scheduled.ok()) {
          ml::EngineResult& engine = scheduled.engine;
          response.engine = ml::to_string(engine.engine_used);
          response.levels = engine.levels;
          response.cached = scheduled.cached;
          response.degraded = scheduled.degraded;
          response.starts_used = scheduled.starts_used;
          response.cut_weight = engine.metrics.cut_weight;
          response.cut_edges = engine.metrics.cut_edges;
          response.sides = std::move(engine.sides);
        }
      } catch (const std::exception& error) {
        // Bad netlists (and any other typed failure) stay request-local.
        response.status = "error";
        response.error = error.what();
        FHP_COUNTER_ADD("serve/errors", 1);
      }
      response.latency_us = now_us() - start;
      break;
    }
  }
  return response;
}

void Server::serve_connection(int fd) {
  bool trigger_shutdown = false;
  try {
    while (true) {
      std::optional<std::string> payload = read_frame(fd, options_.limits);
      if (!payload.has_value()) break;  // clean EOF
      Response response;
      bool is_shutdown = false;
      try {
        const Request request = parse_request(*payload);
        is_shutdown = request.op == Request::Op::kShutdown;
        response = handle(request);
      } catch (const ProtocolError& error) {
        // The frame was well-formed but the payload was not a valid
        // request: answer typed and keep the connection.
        response.status = "error";
        response.error = error.what();
        FHP_COUNTER_ADD("serve/bad_requests", 1);
      }
      write_frame(fd, to_json(response), options_.limits);
      if (is_shutdown) {
        trigger_shutdown = true;
        break;
      }
    }
  } catch (const ProtocolError&) {
    // Framing violation (hostile length, truncation) or a dead peer: the
    // stream cannot be resynchronized, so drop this connection.
    FHP_COUNTER_ADD("serve/dropped_connections", 1);
  }
  {
    // Erase and close under one lock: once closed, accept() may hand the
    // same number to a new connection, whose entry must not be erased in
    // its place (shutdown() would then never unblock it).
    std::lock_guard<std::mutex> lock(impl_->mutex);
    std::erase(impl_->connection_fds, fd);
    ::close(fd);
  }
  if (trigger_shutdown) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutting_down = true;
    impl_->shutdown_cv.notify_all();
  }
}

}  // namespace fhp::serve
