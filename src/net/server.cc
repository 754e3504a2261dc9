#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

namespace habf {
namespace net {

/// Per-connection state. Owned by exactly one worker; every field is
/// touched from that worker's loop thread only.
struct Server::Connection {
  explicit Connection(size_t max_frame_bytes) : decoder(max_frame_bytes) {}

  int fd = -1;
  /// Accumulates the 8 hello bytes; the decoder sees nothing until the
  /// handshake validates.
  std::string handshake;
  bool handshook = false;
  FrameDecoder decoder;

  /// Buffered output: [out_pos, out.size()) is unsent. Responses append
  /// here and FlushOutput drains until EAGAIN.
  std::string out;
  size_t out_pos = 0;

  /// Cleared when the connection must not read more (framing error, drain).
  bool want_read = true;
  /// Backpressure: reads paused while the unsent tail sits between the high
  /// and low watermarks (EPOLLIN dropped; want_read stays true — the pause
  /// is a flow-control state, not a terminal one).
  bool read_paused = false;
  /// Close once `out` fully flushes (peer EOF, framing error, drain).
  bool close_after_flush = false;
  /// The mask currently registered with epoll (avoids redundant Modify).
  uint32_t registered_events = EPOLLIN;
  /// Last successful recv or send, for the idle sweep.
  std::chrono::steady_clock::time_point last_activity;
};

/// One worker loop plus its loop-thread-only connection table.
struct Server::Worker {
  EventLoop loop;
  std::thread thread;
  std::unordered_map<int, std::unique_ptr<Connection>> connections;
  bool draining = false;
  /// Periodic idle-sweep timer (idle_timeout > 0), registered before the
  /// worker thread starts and closed after it joins.
  int idle_timer_fd = -1;
};

Server::Server(ServerBackend* backend, ServerOptions options)
    : backend_(backend), options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  // Normalize the governance knobs to low <= high <= hard cap so every
  // combination of user inputs yields a coherent state machine.
  if (options_.out_high_watermark == 0) options_.out_high_watermark = 1;
  options_.out_low_watermark =
      std::min(options_.out_low_watermark, options_.out_high_watermark);
  options_.out_hard_cap =
      std::max(options_.out_hard_cap, options_.out_high_watermark);
  if (options_.read_budget_bytes == 0) {
    options_.read_budget_bytes = std::numeric_limits<size_t>::max();
  }
}

Server::~Server() { Shutdown(); }

bool Server::Start(std::string* error) {
  if (started_) {
    *error = "server already started";
    return false;
  }

  acceptor_loop_ = std::make_unique<EventLoop>();
  if (!acceptor_loop_->ok()) {
    *error = "failed to create acceptor event loop";
    return false;
  }
  workers_.clear();
  for (size_t w = 0; w < options_.num_workers; ++w) {
    auto worker = std::make_unique<Worker>();
    if (!worker->loop.ok()) {
      *error = "failed to create worker event loop";
      return false;
    }
    workers_.push_back(std::move(worker));
  }

  listen_fd_ =
      socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    *error = "bad bind address: " + options_.bind_address;
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    *error = std::string("bind: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (listen(listen_fd_, SOMAXCONN) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  // Read back the kernel's port pick (options.port == 0: the tests' mode).
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) != 0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  port_ = ntohs(bound.sin_port);

  // Registration before the acceptor thread exists is single-threaded, so
  // the "loop-thread only" contract on Add is trivially met.
  if (!acceptor_loop_->Add(listen_fd_, EPOLLIN,
                           [this](uint32_t) { AcceptPending(); })) {
    *error = "failed to register listen socket";
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  // Idle-sweep timers, one per worker, registered in the same
  // single-threaded window as the listen socket above.
  if (options_.idle_timeout.count() > 0) {
    const auto sweep_every = std::max<std::chrono::milliseconds>(
        options_.idle_timeout / 4, std::chrono::milliseconds(10));
    itimerspec spec{};
    spec.it_interval.tv_sec = sweep_every.count() / 1000;
    spec.it_interval.tv_nsec = (sweep_every.count() % 1000) * 1000000;
    spec.it_value = spec.it_interval;
    for (size_t w = 0; w < workers_.size(); ++w) {
      const int timer_fd =
          timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
      if (timer_fd < 0 || timerfd_settime(timer_fd, 0, &spec, nullptr) != 0 ||
          !workers_[w]->loop.Add(timer_fd, EPOLLIN,
                                 [this, w](uint32_t) { SweepIdle(w); })) {
        *error = std::string("idle timer: ") + std::strerror(errno);
        if (timer_fd >= 0) close(timer_fd);
        for (auto& worker : workers_) {
          if (worker->idle_timer_fd >= 0) {
            close(worker->idle_timer_fd);
            worker->idle_timer_fd = -1;
          }
        }
        close(listen_fd_);
        listen_fd_ = -1;
        return false;
      }
      workers_[w]->idle_timer_fd = timer_fd;
    }
  }

  for (auto& worker : workers_) {
    Worker* raw = worker.get();
    worker->thread = std::thread([raw] { raw->loop.Run(); });
  }
  acceptor_thread_ = std::thread([this] { acceptor_loop_->Run(); });
  started_ = true;
  shut_down_ = false;
  return true;
}

void Server::AcceptPending() {
  for (;;) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: drained the backlog. Anything else (EMFILE, ECONNABORTED):
      // give up this cycle; level triggering re-arms us if more arrive.
      break;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // Global cap, claimed here so a burst of accepts racing the workers'
    // close paths can never overshoot: claim a slot, refuse if over.
    const size_t admitted = admitted_.fetch_add(1, std::memory_order_relaxed);
    if (options_.max_connections > 0 && admitted >= options_.max_connections) {
      admitted_.fetch_sub(1, std::memory_order_relaxed);
      connections_refused_.fetch_add(1, std::memory_order_relaxed);
      // Graceful refusal: close before the hello so the client sees a clean
      // EOF at handshake instead of a connection that never answers.
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.so_sndbuf_bytes > 0) {
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf_bytes,
                 sizeof(options_.so_sndbuf_bytes));
    }
    const size_t w = next_worker_.fetch_add(1, std::memory_order_relaxed) %
                     workers_.size();
    workers_[w]->loop.RunInLoop([this, w, fd] { AdoptConnection(w, fd); });
  }
}

void Server::AdoptConnection(size_t worker_index, int fd) {
  Worker& worker = *workers_[worker_index];
  if (worker.draining) {
    // Accepted after drain began: the client gets a clean RST/EOF instead
    // of a hello that would never be answered.
    close(fd);
    admitted_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  auto conn = std::make_unique<Connection>(options_.max_frame_bytes);
  conn->fd = fd;
  conn->last_activity = std::chrono::steady_clock::now();
  if (!worker.loop.Add(fd, EPOLLIN, [this, worker_index, fd](uint32_t events) {
        HandleIo(worker_index, fd, events);
      })) {
    close(fd);
    admitted_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  worker.connections.emplace(fd, std::move(conn));
  {
    MutexLock lock(drain_mu_);
    ++open_connections_;
  }
}

void Server::HandleIo(size_t worker_index, int fd, uint32_t events) {
  Worker& worker = *workers_[worker_index];
  const auto it = worker.connections.find(fd);
  if (it == worker.connections.end()) return;
  Connection& conn = *it->second;

  if ((events & EPOLLERR) != 0) {
    CloseConnection(worker, fd);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!FlushOutput(worker, conn)) return;
  }
  if ((events & (EPOLLIN | EPOLLHUP)) == 0) return;
  if (!conn.want_read || conn.read_paused) {
    // Not reading (drain, framing error, or backpressure pause): EPOLLHUP
    // here means the peer is gone and the pending flush can never land.
    if ((events & EPOLLHUP) != 0) CloseConnection(worker, fd);
    return;
  }

  // Per-wakeup read budget: a connection streaming at line rate hands the
  // worker back to its other connections after this many bytes; level
  // triggering re-arms it on the next epoll_wait, so nothing is lost.
  size_t budget = options_.read_budget_bytes;
  bool peer_eof = false;
  char buf[65536];
  for (;;) {
    if (budget == 0) {
      read_budget_exhausted_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    const ssize_t n =
        recv(fd, buf, std::min(sizeof(buf), budget), 0);
    if (n > 0) {
      conn.last_activity = std::chrono::steady_clock::now();
      const char* data = buf;
      size_t len = static_cast<size_t>(n);
      budget -= len;
      if (!conn.handshook) {
        const size_t take =
            std::min(kHandshakeBytes - conn.handshake.size(), len);
        conn.handshake.append(data, take);
        data += take;
        len -= take;
        if (conn.handshake.size() < kHandshakeBytes) continue;
        std::string hello_error;
        if (!ParseHandshake(conn.handshake, &hello_error)) {
          // A bad hello closes silently: nothing after it can be framed.
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          CloseConnection(worker, fd);
          return;
        }
        conn.handshook = true;
        conn.out += EncodeHandshake();
      }
      if (len > 0) conn.decoder.Feed(std::string_view(data, len));
      continue;
    }
    if (n == 0) {
      peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(worker, fd);
    return;
  }

  if (!ProcessBuffered(worker, conn)) return;
  if (peer_eof) {
    // Half-close: answer what arrived, then close once it flushes.
    conn.want_read = false;
    conn.close_after_flush = true;
    if (conn.out_pos >= conn.out.size()) {
      CloseConnection(worker, fd);
      return;
    }
    UpdateInterest(worker, conn);
  }
}

bool Server::ProcessBuffered(Worker& worker, Connection& conn) {
  // Coalescing: consecutive query frames pool their keys into one flat
  // batch answered by a single backend call (one snapshot pin). Responses
  // are framed per request, in request order; mutations and errors are
  // barriers that flush the pool first so ordering is exact.
  struct PendingQuery {
    uint64_t request_id;
    size_t offset;
    size_t count;
  };
  std::vector<std::string_view> batch_keys;
  std::vector<PendingQuery> pending;
  std::vector<std::string_view> frame_keys;
  std::vector<uint8_t> answers;
  std::string payload;

  // Appends one response frame, then enforces the hard cap on the unsent
  // tail: one flush attempt (the client may just be momentarily behind),
  // then eviction — per-connection memory is bounded no matter how much a
  // never-draining client pipelines into a single wakeup. False means the
  // connection is gone.
  const auto append_out = [&](uint64_t request_id, uint8_t op,
                              std::string_view body) -> bool {
    AppendFrame(&conn.out, request_id, op, body);
    size_t unsent = conn.out.size() - conn.out_pos;
    if (unsent <= options_.out_hard_cap) return true;
    if (!SendPending(conn)) {
      CloseConnection(worker, conn.fd);
      return false;
    }
    unsent = conn.out.size() - conn.out_pos;
    NoteUnsentPeak(unsent);
    if (unsent <= options_.out_hard_cap) return true;
    evictions_output_overflow_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(worker, conn.fd);
    return false;
  };

  const auto flush_queries = [&]() -> bool {
    if (pending.empty()) return true;
    answers.assign(batch_keys.size(), 0);
    backend_->QueryBatch(KeySpan(batch_keys.data(), batch_keys.size()),
                         answers.data());
    batches_answered_.fetch_add(1, std::memory_order_relaxed);
    keys_queried_.fetch_add(batch_keys.size(), std::memory_order_relaxed);
    for (const PendingQuery& query : pending) {
      payload.clear();
      AppendQueryResponsePayload(&payload, answers.data() + query.offset,
                                 query.count);
      if (!append_out(query.request_id, kOpQueryResponse, payload)) {
        return false;
      }
      requests_answered_.fetch_add(1, std::memory_order_relaxed);
    }
    batch_keys.clear();
    pending.clear();
    return true;
  };

  Frame frame;
  std::string error;
  bool done = false;
  while (!done) {
    switch (conn.decoder.Next(&frame, &error)) {
      case FrameDecoder::Status::kNeedMore:
        done = true;
        break;
      case FrameDecoder::Status::kError: {
        // Framing is connection-fatal: answer request_id 0, stop reading
        // the desynced stream, close once the pipeline's responses flush.
        if (!flush_queries()) return false;
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        payload.clear();
        AppendErrorPayload(&payload, kErrBadFrame, error);
        if (!append_out(0, kOpError, payload)) return false;
        conn.want_read = false;
        conn.close_after_flush = true;
        done = true;
        break;
      }
      case FrameDecoder::Status::kFrame: {
        frames_decoded_.fetch_add(1, std::memory_order_relaxed);
        switch (frame.op) {
          case kOpQuery: {
            if (!ParseKeyBatchPayload(frame.payload, &frame_keys, &error)) {
              if (!flush_queries()) return false;
              protocol_errors_.fetch_add(1, std::memory_order_relaxed);
              payload.clear();
              AppendErrorPayload(&payload, kErrBadPayload, error);
              if (!append_out(frame.request_id, kOpError, payload)) {
                return false;
              }
              break;
            }
            pending.push_back(
                {frame.request_id, batch_keys.size(), frame_keys.size()});
            batch_keys.insert(batch_keys.end(), frame_keys.begin(),
                              frame_keys.end());
            break;
          }
          case kOpInsert:
          case kOpRemove: {
            if (!flush_queries()) return false;
            if (!ParseKeyBatchPayload(frame.payload, &frame_keys, &error)) {
              protocol_errors_.fetch_add(1, std::memory_order_relaxed);
              payload.clear();
              AppendErrorPayload(&payload, kErrBadPayload, error);
              if (!append_out(frame.request_id, kOpError, payload)) {
                return false;
              }
              break;
            }
            uint64_t applied = 0;
            std::string mutate_error;
            if (!backend_->Mutate(
                    frame.op == kOpInsert,
                    KeySpan(frame_keys.data(), frame_keys.size()), &applied,
                    &mutate_error)) {
              keys_mutated_.fetch_add(applied, std::memory_order_relaxed);
              payload.clear();
              AppendErrorPayload(&payload, kErrUnsupported, mutate_error);
              if (!append_out(frame.request_id, kOpError, payload)) {
                return false;
              }
              break;
            }
            keys_mutated_.fetch_add(applied, std::memory_order_relaxed);
            payload.clear();
            AppendMutateResponsePayload(&payload, kStatusOk, applied);
            if (!append_out(frame.request_id, kOpMutateResponse, payload)) {
              return false;
            }
            requests_answered_.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          case kOpStats: {
            // A barrier like a mutation: the pending queries answer first so
            // the counters reflect every request ahead of this one.
            if (!flush_queries()) return false;
            if (!frame.payload.empty()) {
              protocol_errors_.fetch_add(1, std::memory_order_relaxed);
              payload.clear();
              AppendErrorPayload(&payload, kErrBadPayload,
                                 "stats takes no payload");
              if (!append_out(frame.request_id, kOpError, payload)) {
                return false;
              }
              break;
            }
            payload.clear();
            AppendStatsResponsePayload(&payload, StatsToWireEntries(stats()));
            if (!append_out(frame.request_id, kOpStatsResponse, payload)) {
              return false;
            }
            requests_answered_.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          default: {
            if (!flush_queries()) return false;
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
            payload.clear();
            AppendErrorPayload(
                &payload, kErrBadOp,
                "unknown op " + std::to_string(int{frame.op}));
            if (!append_out(frame.request_id, kOpError, payload)) {
              return false;
            }
            break;
          }
        }
        break;
      }
    }
  }
  if (!flush_queries()) return false;
  return FlushOutput(worker, conn);
}

bool Server::SendPending(Connection& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = send(conn.fd, conn.out.data() + conn.out_pos,
                           conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<size_t>(n);
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  return true;
}

bool Server::FlushOutput(Worker& worker, Connection& conn) {
  if (!SendPending(conn)) {
    CloseConnection(worker, conn.fd);
    return false;
  }
  if (conn.out_pos >= conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
    if (conn.close_after_flush) {
      CloseConnection(worker, conn.fd);
      return false;
    }
  } else if (conn.out_pos > options_.out_compact_threshold) {
    // Reclaim the consumed prefix even when the tail never drains: a
    // steadily slow consumer must not grow the buffer monotonically.
    conn.out.erase(0, conn.out_pos);
    conn.out_pos = 0;
    output_compactions_.fetch_add(1, std::memory_order_relaxed);
  }

  // Backpressure transitions on the unsent tail.
  const size_t unsent = conn.out.size() - conn.out_pos;
  NoteUnsentPeak(unsent);
  if (!conn.read_paused) {
    if (conn.want_read && unsent >= options_.out_high_watermark) {
      conn.read_paused = true;
      backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (unsent <= options_.out_low_watermark) {
    conn.read_paused = false;
    backpressure_resumes_.fetch_add(1, std::memory_order_relaxed);
  }
  UpdateInterest(worker, conn);
  return true;
}

void Server::UpdateInterest(Worker& worker, Connection& conn) {
  uint32_t want =
      (conn.want_read && !conn.read_paused) ? uint32_t{EPOLLIN} : 0u;
  if (conn.out_pos < conn.out.size()) want |= EPOLLOUT;
  if (want == conn.registered_events) return;
  worker.loop.Modify(conn.fd, want);
  conn.registered_events = want;
}

void Server::NoteUnsentPeak(size_t unsent) {
  uint64_t prev = out_buffer_peak_bytes_.load(std::memory_order_relaxed);
  while (unsent > prev &&
         !out_buffer_peak_bytes_.compare_exchange_weak(
             prev, unsent, std::memory_order_relaxed)) {
  }
}

void Server::CloseConnection(Worker& worker, int fd) {
  const auto it = worker.connections.find(fd);
  if (it == worker.connections.end()) return;
  worker.loop.Remove(fd);
  close(fd);
  worker.connections.erase(it);
  admitted_.fetch_sub(1, std::memory_order_relaxed);
  {
    MutexLock lock(drain_mu_);
    --open_connections_;
    if (open_connections_ == 0) drain_cv_.NotifyAll();
  }
}

void Server::SweepIdle(size_t worker_index) {
  Worker& worker = *workers_[worker_index];
  // Drain the (nonblocking, level-triggered) timer so it doesn't re-fire.
  uint64_t expirations;
  while (read(worker.idle_timer_fd, &expirations, sizeof(expirations)) ==
         static_cast<ssize_t>(sizeof(expirations))) {
  }
  const auto now = std::chrono::steady_clock::now();
  std::vector<int> idle_fds;
  for (const auto& entry : worker.connections) {
    if (now - entry.second->last_activity >= options_.idle_timeout) {
      idle_fds.push_back(entry.first);
    }
  }
  for (const int fd : idle_fds) {
    evictions_idle_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(worker, fd);
  }
}

void Server::BeginDrain(size_t worker_index) {
  Worker& worker = *workers_[worker_index];
  worker.draining = true;
  std::vector<int> fds;
  fds.reserve(worker.connections.size());
  for (const auto& entry : worker.connections) fds.push_back(entry.first);
  for (const int fd : fds) {
    const auto it = worker.connections.find(fd);
    if (it == worker.connections.end()) continue;
    Connection& conn = *it->second;
    conn.want_read = false;
    conn.close_after_flush = true;
    if (conn.out_pos >= conn.out.size()) {
      CloseConnection(worker, fd);
      continue;
    }
    UpdateInterest(worker, conn);
  }
}

void Server::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;

  // kServing -> kDraining: close the front door first so no connection can
  // slip in behind the per-worker drain tasks.
  acceptor_loop_->Stop();
  if (acceptor_thread_.joinable()) acceptor_thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->loop.RunInLoop([this, w] { BeginDrain(w); });
  }

  // Wait for the flush (bounded): every close notifies drain_cv_.
  const auto deadline =
      std::chrono::steady_clock::now() + options_.drain_timeout;
  {
    MutexLock lock(drain_mu_);
    while (open_connections_ > 0) {
      if (!drain_cv_.WaitUntil(drain_mu_, deadline)) break;
    }
  }

  // kDraining -> kDrained: force-close stragglers (deadline expired or
  // none), stop the loops, join. RunInLoop-then-Stop ordering guarantees
  // the force-close task runs before Run() returns.
  for (size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->loop.RunInLoop([this, w] {
      Worker& worker = *workers_[w];
      std::vector<int> fds;
      fds.reserve(worker.connections.size());
      for (const auto& entry : worker.connections) fds.push_back(entry.first);
      for (const int fd : fds) CloseConnection(worker, fd);
    });
    workers_[w]->loop.Stop();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
    if (worker->idle_timer_fd >= 0) {
      close(worker->idle_timer_fd);
      worker->idle_timer_fd = -1;
    }
  }
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_refused =
      connections_refused_.load(std::memory_order_relaxed);
  stats.open_connections = open_connections();
  stats.frames_decoded = frames_decoded_.load(std::memory_order_relaxed);
  stats.batches_answered = batches_answered_.load(std::memory_order_relaxed);
  stats.requests_answered =
      requests_answered_.load(std::memory_order_relaxed);
  stats.keys_queried = keys_queried_.load(std::memory_order_relaxed);
  stats.keys_mutated = keys_mutated_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.backpressure_pauses =
      backpressure_pauses_.load(std::memory_order_relaxed);
  stats.backpressure_resumes =
      backpressure_resumes_.load(std::memory_order_relaxed);
  stats.evictions_output_overflow =
      evictions_output_overflow_.load(std::memory_order_relaxed);
  stats.evictions_idle = evictions_idle_.load(std::memory_order_relaxed);
  stats.read_budget_exhausted =
      read_budget_exhausted_.load(std::memory_order_relaxed);
  stats.output_compactions =
      output_compactions_.load(std::memory_order_relaxed);
  stats.out_buffer_peak_bytes =
      out_buffer_peak_bytes_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<std::pair<std::string_view, uint64_t>> StatsToWireEntries(
    const ServerStats& stats) {
  return {
      {"connections_accepted", stats.connections_accepted},
      {"connections_refused", stats.connections_refused},
      {"open_connections", stats.open_connections},
      {"frames_decoded", stats.frames_decoded},
      {"batches_answered", stats.batches_answered},
      {"requests_answered", stats.requests_answered},
      {"keys_queried", stats.keys_queried},
      {"keys_mutated", stats.keys_mutated},
      {"protocol_errors", stats.protocol_errors},
      {"backpressure_pauses", stats.backpressure_pauses},
      {"backpressure_resumes", stats.backpressure_resumes},
      {"evictions_output_overflow", stats.evictions_output_overflow},
      {"evictions_idle", stats.evictions_idle},
      {"read_budget_exhausted", stats.read_budget_exhausted},
      {"output_compactions", stats.output_compactions},
      {"out_buffer_peak_bytes", stats.out_buffer_peak_bytes},
  };
}

size_t Server::open_connections() const {
  MutexLock lock(drain_mu_);
  return open_connections_;
}

}  // namespace net
}  // namespace habf
