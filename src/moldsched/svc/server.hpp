// TCP front end of the scheduling service.
//
// One io thread owns the listening socket and every connection: it
// accepts, reads, deframes and runs admission control. Decoded requests
// are handed to an engine::Executor; per connection they are processed
// strictly in arrival order (a connection acts as a serial queue on the
// pool), so a lockstep client always reads the reply to its last
// request. Replies the io thread writes itself — overload rejections and
// framing errors — can overtake queued work; every reply echoes the
// request's seq so pipelining clients can correlate.
//
// Admission control, outermost first:
//   - stopping            -> shutting_down
//   - in-flight requests across all connections >= max_in_flight
//                         -> overloaded (the bounded queue's backpressure)
//   - session.open with max_sessions live sessions -> overloaded
//   - task.release beyond max_tasks_per_session    -> quota_exceeded
// Sessions idle longer than idle_timeout_s are reaped by the io thread;
// later requests against them answer unknown_session.
//
// Instrumentation goes to an obs::MetricRegistry under svc.* names
// (request/rejection/session counters, svc.queue.depth gauge,
// svc.request.latency_ms log-bucketed histogram measured enqueue ->
// reply written). With a ServerTelemetry config the server additionally
// produces one obs::RequestSpan per request — phase decomposition into
// queue/parse/schedule/serialize/write — fanned out to the svc.phase.*
// histograms, an optional SpanObserver, and a lock-free flight recorder
// retaining the last N requests for post-hoc dumps. When telemetry is
// not armed the request path takes exactly the same number of clock
// reads as before: spans cost nothing unless asked for.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "moldsched/engine/executor.hpp"
#include "moldsched/obs/metrics.hpp"
#include "moldsched/obs/span.hpp"
#include "moldsched/svc/flight_recorder.hpp"
#include "moldsched/svc/session.hpp"
#include "moldsched/svc/wire.hpp"

namespace moldsched::svc {

struct ServerLimits {
  int max_sessions = 64;            ///< live sessions across the server
  int max_tasks_per_session = 100000;
  int max_in_flight = 256;          ///< queued+running requests, all conns
  double idle_timeout_s = 300.0;    ///< reap sessions idle this long
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  bool allow_remote_stop = false;   ///< honor the server.stop op
};

/// Opt-in request telemetry. The server is "armed" when any field asks
/// for something; an armed server times every request's phases (a few
/// extra steady_clock reads per request) and fans the resulting
/// RequestSpan out to every configured sink.
struct ServerTelemetry {
  bool phases = false;                 ///< svc.phase.* histograms
  obs::SpanObserver* spans = nullptr;  ///< optional sink; must outlive
                                       ///< the server
  std::size_t flight_capacity = 0;     ///< 0 = no flight recorder
  double slow_ms = 0.0;                ///< >0: auto-dump the flight
                                       ///< recorder on slower requests
  std::string slow_dump_path;          ///< JSONL target for auto-dumps

  [[nodiscard]] bool armed() const noexcept {
    return phases || spans != nullptr || flight_capacity > 0 || slow_ms > 0;
  }
};

class Server {
 public:
  /// The executor runs request compute; the registry receives svc.*
  /// metrics. Both must outlive the server. Defaults share the
  /// process-wide instances.
  explicit Server(ServerLimits limits = {},
                  engine::Executor& executor = engine::Executor::global(),
                  obs::MetricRegistry& registry = obs::default_registry());

  /// As above, with request telemetry armed per `telemetry`.
  Server(ServerLimits limits, ServerTelemetry telemetry,
         engine::Executor& executor = engine::Executor::global(),
         obs::MetricRegistry& registry = obs::default_registry());

  /// Stops, drains in-flight work and closes every connection.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds `host:port` (port 0 picks an ephemeral port), starts the io
  /// thread and returns the bound port. Throws std::runtime_error on
  /// socket errors; callable once.
  int listen(const std::string& host = "127.0.0.1", int port = 0);

  [[nodiscard]] int port() const noexcept { return port_; }

  /// Initiates shutdown: stops accepting, rejects queued work with
  /// shutting_down, wakes the io thread. Returns immediately.
  void stop();

  /// Blocks until the io thread exited and every submitted request
  /// finished. Implies nothing about stop() — call that first (or let a
  /// remote server.stop do it).
  void wait();

  /// wait() with a timeout; true when fully stopped.
  bool wait_for(double seconds);

  [[nodiscard]] bool stopped() const noexcept {
    return stopped_.load(std::memory_order_acquire);
  }

  /// Live session count (for tests and the serve tool's status line).
  [[nodiscard]] int num_sessions() const;

  /// The flight recorder, or nullptr when telemetry.flight_capacity == 0.
  [[nodiscard]] const FlightRecorder* flight() const noexcept {
    return flight_.get();
  }

  /// JSONL dump of the flight recorder's retained records (empty string
  /// when no recorder is configured). Safe to call while serving.
  [[nodiscard]] std::string flight_jsonl() const {
    return flight_ ? flight_->to_jsonl() : std::string();
  }

 private:
  struct PendingRequest {
    std::string payload;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// One TCP connection. The io thread owns fd lifecycle and the reader;
  /// worker jobs only write (under write_mu) and pop the queue (under
  /// queue_mu). The fd closes when the last shared_ptr drops, so a
  /// worker mid-reply never races a close.
  struct Conn {
    Conn(int fd_in, std::size_t max_frame) : fd(fd_in), reader(max_frame) {}
    ~Conn();
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    int fd;
    FrameReader reader;
    std::mutex write_mu;
    std::mutex queue_mu;
    std::deque<PendingRequest> queue;  // guarded by queue_mu
    bool draining = false;             // guarded by queue_mu
    std::atomic<bool> open{true};
  };

  struct SessionEntry {
    SessionEntry(std::string id, const OpenParams& params,
                 const SessionMetrics& metrics)
        : session(std::move(id), params, &metrics) {}
    std::mutex mu;
    Session session;  // guarded by mu
  };

  struct HandleResult {
    std::string reply;
    bool stop_server = false;
  };

  void io_loop();
  void accept_ready(std::map<int, std::shared_ptr<Conn>>& conns);
  /// Reads everything available; false = connection is done.
  bool read_ready(const std::shared_ptr<Conn>& c);
  void admit(const std::shared_ptr<Conn>& c, std::string payload);
  void drain(const std::shared_ptr<Conn>& c);
  /// `span` is null when telemetry is off; when set, handle() fills the
  /// parse/schedule/serialize phase timings plus op/session/seq/
  /// trace_id/outcome.
  [[nodiscard]] HandleResult handle(const std::string& payload,
                                    obs::RequestSpan* span);
  [[nodiscard]] std::string handle_open(const Request& req,
                                        obs::RequestSpan* span);
  [[nodiscard]] std::string handle_release(const Request& req,
                                           obs::RequestSpan* span);
  [[nodiscard]] std::string handle_close(const Request& req,
                                         obs::RequestSpan* span);
  void write_frame(Conn& c, const std::string& payload);
  void wake_io();
  /// Fans a finished span out to the phase histograms, the flight
  /// recorder, the SpanObserver, and the slow-request dump trigger.
  void emit_span(const obs::RequestSpan& span);
  void maybe_dump_slow(const obs::RequestSpan& span);

  ServerLimits limits_;
  ServerTelemetry telemetry_;
  bool telemetry_armed_ = false;
  engine::Executor& executor_;

  // Cached instrument references (stable for the registry's lifetime).
  obs::Counter& m_accepted_;
  obs::Counter& m_requests_;
  obs::Counter& m_rejected_overloaded_;
  obs::Counter& m_errors_;
  obs::Counter& m_sessions_opened_;
  obs::Counter& m_sessions_closed_;
  obs::Counter& m_sessions_reaped_;
  obs::Gauge& m_sessions_active_;
  obs::Gauge& m_queue_depth_;
  obs::Histogram& m_latency_ms_;
  // Phase histograms (same log-bucketed bounds as the latency
  // histogram); only observed when telemetry is armed.
  obs::Histogram& m_phase_queue_ms_;
  obs::Histogram& m_phase_parse_ms_;
  obs::Histogram& m_phase_schedule_ms_;
  obs::Histogram& m_phase_serialize_ms_;
  obs::Histogram& m_phase_write_ms_;
  SessionMetrics m_session_;

  std::unique_ptr<FlightRecorder> flight_;
  std::chrono::steady_clock::time_point epoch_;  // set in the ctor
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<std::int64_t> last_slow_dump_us_{-1};  // rate limit, vs epoch_

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [read, write]
  int port_ = 0;
  std::thread io_thread_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<int> in_flight_{0};

  mutable std::mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<SessionEntry>> sessions_;
  std::uint64_t next_session_ = 0;  // guarded by sessions_mu_

  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  int jobs_outstanding_ = 0;  // drain jobs submitted but not finished
};

}  // namespace moldsched::svc
