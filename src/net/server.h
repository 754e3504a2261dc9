// habf_server (DESIGN.md §11): a non-blocking epoll serving front end for
// the HNP1 protocol — single acceptor loop + N worker loops, level
// triggered, per-connection request coalescing into one ContainsBatch per
// readiness cycle, and a graceful drain state machine for SIGTERM.
//
// Coalescing + pinning model: when a connection becomes readable the worker
// reads until EAGAIN, decodes every complete frame, and gathers the keys of
// *consecutive* query frames into one flat batch answered by a single
// ServerBackend::QueryBatch call. StoreBackend pins one FilterStore
// snapshot per coalesced batch (an atomic shared_ptr load), so a rebuild
// hot-swap published mid-pipeline is invisible to clients: every response
// in a batch is answered from one coherent snapshot, and the next batch
// simply pins the newer one. Mutation frames are barriers — the pending
// query batch flushes first — so per-connection request order is preserved
// exactly.
//
// Drain state machine (kServing → kDraining → kDrained):
//   kServing   — accepting, reading, answering.
//   kDraining  — Shutdown() was called (the CLI's SIGTERM path): the listen
//                socket closes (no new connections), every connection stops
//                reading (EPOLLIN interest dropped — frames already decoded
//                keep their in-flight responses), and pending output
//                flushes.
//   kDrained   — every connection closed (or the drain deadline expired and
//                the stragglers were force-closed); worker loops stop and
//                join. Shutdown() returns only in this state.
//
// Backpressure + governance (ServerOptions below, DESIGN.md §11): a slow or
// hostile client is throttled by output watermarks (reads pause while its
// unsent tail is high, the hard cap evicts it), a per-wakeup read budget
// keeps one firehose connection from starving its worker's siblings, an
// idle sweep reclaims dead connections, and a global max-connections cap
// refuses accepts past the limit. Every counter is exported over the wire
// by the kOpStats op.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dynamic_filter.h"
#include "core/filter_store.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "util/annotated_sync.h"

namespace habf {
namespace net {

/// What the server serves. Query is const and called concurrently from
/// every worker thread; Mutate must be internally synchronized (the dynamic
/// filter is). The default Mutate refuses — a static snapshot server.
class ServerBackend {
 public:
  virtual ~ServerBackend() = default;

  /// Answers the coalesced batch: out[i] = 1 iff keys[i] may be a member.
  /// Must answer every key (the server frames the bitmap from `out`).
  virtual size_t QueryBatch(KeySpan keys, uint8_t* out) const = 0;

  /// Applies an insert (or remove) batch in order. Returns false with
  /// *error when unsupported or failed; *applied = keys applied (and
  /// acknowledged) before the failure.
  virtual bool Mutate(bool insert, KeySpan keys, uint64_t* applied,
                      std::string* error) {
    (void)insert;
    (void)keys;
    *applied = 0;
    *error = "backend does not accept mutations";
    return false;
  }
};

/// Serves a FilterStore-held immutable snapshot. One Acquire() pin per
/// coalesced batch: rebuild hot-swaps never tear a batch.
template <typename F>
class StoreBackend : public ServerBackend {
 public:
  /// The store must outlive the backend (and the server).
  explicit StoreBackend(const FilterStore<F>* store) : store_(store) {}

  size_t QueryBatch(KeySpan keys, uint8_t* out) const override {
    const typename FilterStore<F>::VersionedSnapshot snapshot =
        store_->Acquire();
    if (snapshot.filter == nullptr) {
      for (size_t i = 0; i < keys.size(); ++i) out[i] = 0;
      return 0;
    }
    return snapshot.filter->ContainsBatch(keys, out);
  }

 private:
  const FilterStore<F>* store_;
};

/// Serves the mutable dynamic filter: queries are delta-overlay-then-base,
/// and kOpInsert/kOpRemove frames apply real (WAL-acknowledged, when
/// durability is on) mutations.
class DynamicBackend : public ServerBackend {
 public:
  /// The filter must outlive the backend (and the server).
  explicit DynamicBackend(DynamicShardedHabf* filter) : filter_(filter) {}

  size_t QueryBatch(KeySpan keys, uint8_t* out) const override {
    return filter_->ContainsBatch(keys, out);
  }

  /// Applies the keys in order and stops at the first one the filter does
  /// not acknowledge (its WAL failed): the keys before it are durable, and
  /// the frame answers an error.
  bool Mutate(bool insert, KeySpan keys, uint64_t* applied,
              std::string* error) override {
    *applied = 0;
    for (const std::string_view key : keys) {
      if (!(insert ? filter_->Insert(key) : filter_->Remove(key))) {
        *error = "mutation not durable: the WAL failed and the filter is "
                 "read-only";
        return false;
      }
      ++*applied;
    }
    return true;
  }

 private:
  DynamicShardedHabf* filter_;
};

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port, read back via port() — the only
  /// mode the tests use, so parallel ctest runs never collide.
  uint16_t port = 0;
  /// Worker event loops (>= 1); connections are assigned round-robin.
  size_t num_workers = 2;
  /// Per-frame body cap handed to every connection's FrameDecoder.
  size_t max_frame_bytes = kMaxFrameBytes;
  /// How long Shutdown() waits for pending responses to flush before
  /// force-closing stragglers.
  std::chrono::milliseconds drain_timeout{5000};

  // --- backpressure + resource governance (DESIGN.md §11) -------------------
  //
  // The unsent output tail (out.size() - out_pos) is the one per-connection
  // quantity a slow client controls; the watermarks govern it:
  //   unsent >= out_high_watermark  -> stop reading the connection (EPOLLIN
  //                                    dropped; requests already decoded keep
  //                                    their in-flight responses)
  //   unsent <= out_low_watermark   -> resume reading
  //   unsent >  out_hard_cap        -> evict (close) after one last flush
  //                                    attempt; the cap bounds per-connection
  //                                    memory no matter what the client does.
  /// Normalized at construction: low <= high <= hard cap.
  size_t out_high_watermark = 256 * 1024;
  size_t out_low_watermark = 64 * 1024;
  size_t out_hard_cap = 4 * 1024 * 1024;
  /// FlushOutput erases the consumed [0, out_pos) prefix once it exceeds
  /// this, so a steadily slow consumer cannot grow the buffer monotonically.
  size_t out_compact_threshold = 64 * 1024;
  /// Bytes one connection may recv() per epoll wakeup before yielding the
  /// worker to its other connections (level triggering re-arms it). 0 =
  /// unbounded.
  size_t read_budget_bytes = 256 * 1024;
  /// SO_SNDBUF for accepted sockets; bounds kernel-side buffering per
  /// connection so the watermarks see a slow client promptly. 0 = kernel
  /// default (autotuned, can reach megabytes).
  int so_sndbuf_bytes = 0;
  /// Connections with no read/write progress for this long are evicted.
  /// Zero disables the sweep.
  std::chrono::milliseconds idle_timeout{0};
  /// Global cap on concurrently open connections; accepts past it are closed
  /// immediately (graceful refusal: the client sees a clean EOF at
  /// handshake, not a hung socket). 0 = unlimited.
  size_t max_connections = 0;
};

/// Monotonic counters, readable at any time (atomics), and two gauges
/// (open_connections, out_buffer_peak_bytes). The whole struct crosses the
/// wire via kOpStats (StatsToWireEntries below).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;  // max_connections cap
  uint64_t open_connections = 0;     // gauge
  uint64_t frames_decoded = 0;
  uint64_t batches_answered = 0;  // coalesced QueryBatch calls
  uint64_t requests_answered = 0;
  uint64_t keys_queried = 0;
  uint64_t keys_mutated = 0;
  uint64_t protocol_errors = 0;
  uint64_t backpressure_pauses = 0;
  uint64_t backpressure_resumes = 0;
  uint64_t evictions_output_overflow = 0;  // unsent output passed the hard cap
  uint64_t evictions_idle = 0;             // idle_timeout sweep
  uint64_t read_budget_exhausted = 0;      // wakeups truncated at the budget
  uint64_t output_compactions = 0;         // consumed-prefix erases
  uint64_t out_buffer_peak_bytes = 0;      // high-water unsent tail, any conn
};

/// The stats as self-describing wire entries (names are string literals),
/// in the stable order kOpStatsResponse carries them.
std::vector<std::pair<std::string_view, uint64_t>> StatsToWireEntries(
    const ServerStats& stats);

class Server {
 public:
  /// The backend must outlive the server.
  Server(ServerBackend* backend, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the acceptor + worker threads. False with
  /// *error on any socket/loop failure (nothing keeps running).
  bool Start(std::string* error);

  /// The bound port (the kernel's pick when options.port was 0). Valid
  /// after a successful Start.
  uint16_t port() const { return port_; }

  /// Graceful drain per the state machine above. Blocks until drained (or
  /// the drain deadline force-closes stragglers), then joins every thread.
  /// Idempotent; also run by the destructor.
  void Shutdown();

  ServerStats stats() const;

  /// Currently open connections (drain bookkeeping; also handy in tests).
  size_t open_connections() const;

 private:
  struct Connection;
  struct Worker;

  void AcceptPending();
  void AdoptConnection(size_t worker_index, int fd);
  void HandleIo(size_t worker_index, int fd, uint32_t events);
  /// Decodes + answers everything buffered. Returns false if the
  /// connection was closed.
  bool ProcessBuffered(Worker& worker, Connection& conn);
  /// Sends until EAGAIN or empty — no close, no interest changes. False on
  /// a fatal socket error (the caller closes).
  bool SendPending(Connection& conn);
  /// Flushes pending output, compacts the consumed prefix, and runs the
  /// backpressure pause/resume transitions. Returns false if the connection
  /// was closed.
  bool FlushOutput(Worker& worker, Connection& conn);
  void UpdateInterest(Worker& worker, Connection& conn);
  void CloseConnection(Worker& worker, int fd);
  void BeginDrain(size_t worker_index);
  /// Evicts this worker's connections idle past options_.idle_timeout.
  void SweepIdle(size_t worker_index);
  /// Raises the out_buffer_peak_bytes high-water gauge to `unsent`.
  void NoteUnsentPeak(size_t unsent);

  ServerBackend* backend_;
  ServerOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;
  bool shut_down_ = false;

  std::unique_ptr<EventLoop> acceptor_loop_;
  std::thread acceptor_thread_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<size_t> next_worker_{0};

  /// Open-connection count, shared between worker threads (adopt/close) and
  /// Shutdown (drain wait).
  mutable Mutex drain_mu_;
  CondVar drain_cv_;
  size_t open_connections_ HABF_GUARDED_BY(drain_mu_) = 0;

  /// Connections admitted (accepted and handed to a worker, not yet
  /// closed). The acceptor enforces max_connections against it without
  /// waiting on any worker loop.
  std::atomic<size_t> admitted_{0};

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_refused_{0};
  std::atomic<uint64_t> frames_decoded_{0};
  std::atomic<uint64_t> batches_answered_{0};
  std::atomic<uint64_t> requests_answered_{0};
  std::atomic<uint64_t> keys_queried_{0};
  std::atomic<uint64_t> keys_mutated_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> backpressure_pauses_{0};
  std::atomic<uint64_t> backpressure_resumes_{0};
  std::atomic<uint64_t> evictions_output_overflow_{0};
  std::atomic<uint64_t> evictions_idle_{0};
  std::atomic<uint64_t> read_budget_exhausted_{0};
  std::atomic<uint64_t> output_compactions_{0};
  std::atomic<uint64_t> out_buffer_peak_bytes_{0};
};

}  // namespace net
}  // namespace habf
