#include "moldsched/svc/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "moldsched/svc/protocol.hpp"

namespace moldsched::svc {

namespace {

constexpr int kPollTimeoutMs = 200;
constexpr double kReapSweepSeconds = 1.0;
constexpr double kWriteTimeoutSeconds = 10.0;
/// Minimum spacing between slow-request flight dumps: one storm of slow
/// requests produces one dump, not one file write per request.
constexpr double kSlowDumpCooldownSeconds = 1.0;

[[nodiscard]] std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

using Clock = std::chrono::steady_clock;

[[nodiscard]] double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Best-effort seq extraction for replies built before (or instead of)
/// a full parse — overload rejections and framing errors.
[[nodiscard]] std::int64_t extract_seq(const std::string& payload) {
  try {
    const auto doc = io::parse_json(payload);
    const auto* seq = doc.find("seq");
    if (seq != nullptr && seq->is_number())
      return static_cast<std::int64_t>(seq->number);
  } catch (const std::exception&) {
  }
  return 0;
}

}  // namespace

Server::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerLimits limits, engine::Executor& executor,
               obs::MetricRegistry& registry)
    : Server(limits, ServerTelemetry{}, executor, registry) {}

Server::Server(ServerLimits limits, ServerTelemetry telemetry,
               engine::Executor& executor, obs::MetricRegistry& registry)
    : limits_(limits),
      telemetry_(std::move(telemetry)),
      telemetry_armed_(telemetry_.armed()),
      executor_(executor),
      m_accepted_(registry.counter("svc.connections.accepted")),
      m_requests_(registry.counter("svc.requests.received")),
      m_rejected_overloaded_(registry.counter("svc.rejected.overloaded")),
      m_errors_(registry.counter("svc.replies.error")),
      m_sessions_opened_(registry.counter("svc.sessions.opened")),
      m_sessions_closed_(registry.counter("svc.sessions.closed")),
      m_sessions_reaped_(registry.counter("svc.sessions.reaped")),
      m_sessions_active_(registry.gauge("svc.sessions.active")),
      m_queue_depth_(registry.gauge("svc.queue.depth")),
      m_latency_ms_(registry.histogram(
          "svc.request.latency_ms", obs::Histogram::default_latency_bounds())),
      m_phase_queue_ms_(registry.histogram(
          "svc.phase.queue_ms", obs::Histogram::default_latency_bounds())),
      m_phase_parse_ms_(registry.histogram(
          "svc.phase.parse_ms", obs::Histogram::default_latency_bounds())),
      m_phase_schedule_ms_(registry.histogram(
          "svc.phase.schedule_ms", obs::Histogram::default_latency_bounds())),
      m_phase_serialize_ms_(registry.histogram(
          "svc.phase.serialize_ms", obs::Histogram::default_latency_bounds())),
      m_phase_write_ms_(registry.histogram(
          "svc.phase.write_ms", obs::Histogram::default_latency_bounds())),
      m_session_(registry),
      epoch_(Clock::now()) {
  if (limits_.max_sessions < 1 || limits_.max_in_flight < 1 ||
      limits_.max_tasks_per_session < 1)
    throw std::invalid_argument("Server: limits must be >= 1");
  if (telemetry_.flight_capacity > 0)
    flight_ = std::make_unique<FlightRecorder>(telemetry_.flight_capacity);
}

Server::~Server() {
  stop();
  wait();
}

int Server::listen(const std::string& host, int port) {
  if (listen_fd_ >= 0) throw std::logic_error("Server::listen called twice");

  int bound_port = 0;
  const int fd = tcp_listen(host, port, bound_port);
  if (::pipe(wake_fds_) != 0) {
    const std::string msg = errno_message("pipe");
    ::close(fd);
    throw std::runtime_error(msg);
  }
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);

  listen_fd_ = fd;
  port_ = bound_port;
  io_thread_ = std::thread([this] { io_loop(); });
  return port_;
}

void Server::stop() {
  stopping_.store(true, std::memory_order_release);
  wake_io();
}

void Server::wake_io() {
  if (wake_fds_[1] >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &b, 1);
  }
}

void Server::wait() {
  if (io_thread_.joinable()) io_thread_.join();
  {
    std::unique_lock<std::mutex> lock(jobs_mu_);
    jobs_cv_.wait(lock, [this] { return jobs_outstanding_ == 0; });
  }
  // All stop() callers (worker-side server.stop included) have finished
  // once jobs_outstanding_ hit zero, so the self-pipe can close safely.
  if (wake_fds_[0] >= 0) {
    ::close(wake_fds_[0]);
    ::close(wake_fds_[1]);
    wake_fds_[0] = wake_fds_[1] = -1;
  }
  stopped_.store(true, std::memory_order_release);
}

bool Server::wait_for(double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  // The io thread only exits once stopping_ is set, so polling is the
  // honest contract here: a live server simply times out.
  while (std::chrono::steady_clock::now() < deadline) {
    if (stopping_.load(std::memory_order_acquire)) {
      wait();
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return stopped();
}

int Server::num_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return static_cast<int>(sessions_.size());
}

// ---------------------------------------------------------------------------
// io thread

void Server::io_loop() {
  std::map<int, std::shared_ptr<Conn>> conns;
  auto last_sweep = std::chrono::steady_clock::now();

  while (!stopping_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    fds.reserve(2 + conns.size());
    fds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& [fd, c] : conns) fds.push_back(pollfd{fd, POLLIN, 0});

    const int rc = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    if (rc < 0 && errno != EINTR) break;

    if (rc > 0) {
      if ((fds[0].revents & POLLIN) != 0) {
        char buf[64];
        while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
        }
      }
      if ((fds[1].revents & POLLIN) != 0) accept_ready(conns);
      for (std::size_t i = 2; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        auto it = conns.find(fds[i].fd);
        if (it == conns.end()) continue;
        const bool hup = (fds[i].revents & (POLLERR | POLLNVAL)) != 0;
        if (hup || !read_ready(it->second)) {
          it->second->open.store(false, std::memory_order_release);
          conns.erase(it);  // fd closes when workers drop their refs
        }
      }
    }

    const auto now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(now - last_sweep).count() >=
        kReapSweepSeconds) {
      last_sweep = now;
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        bool idle = false;
        {
          std::lock_guard<std::mutex> entry_lock(it->second->mu);
          idle = it->second->session.idle_seconds() > limits_.idle_timeout_s;
        }
        if (idle) {
          it = sessions_.erase(it);
          m_sessions_reaped_.add();
          m_sessions_active_.set(static_cast<double>(sessions_.size()));
        } else {
          ++it;
        }
      }
    }
  }

  // Shutdown: stop reading, nudge peers, and let per-Conn destructors
  // close fds once in-flight replies are written.
  for (auto& [fd, c] : conns) {
    c->open.store(false, std::memory_order_release);
    ::shutdown(fd, SHUT_RD);
  }
  conns.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // The wake pipe stays open: stop() may still be writing to it from a
  // worker thread; wait() closes it after the job count drains.
}

void Server::accept_ready(std::map<int, std::shared_ptr<Conn>>& conns) {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN / transient
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    m_accepted_.add();
    conns.emplace(fd, std::make_shared<Conn>(fd, limits_.max_frame_bytes));
  }
}

bool Server::read_ready(const std::shared_ptr<Conn>& c) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
    if (n == 0) return false;  // peer closed
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    try {
      c->reader.feed(buf, static_cast<std::size_t>(n));
      for (;;) {
        auto payload = c->reader.next();
        if (!payload) break;
        admit(c, std::move(*payload));
      }
    } catch (const std::exception& e) {
      // Oversized frame header: the stream position is poisoned. Tell
      // the peer why, then drop the connection.
      try {
        write_frame(*c, error_reply_json(0, ErrorCode::kParseError, e.what()));
      } catch (const std::exception&) {
      }
      m_errors_.add();
      return false;
    }
  }
  return true;
}

void Server::admit(const std::shared_ptr<Conn>& c, std::string payload) {
  m_requests_.add();
  if (stopping_.load(std::memory_order_acquire)) {
    write_frame(*c, error_reply_json(extract_seq(payload),
                                     ErrorCode::kShuttingDown,
                                     "server is shutting down"));
    m_errors_.add();
    return;
  }
  // The bounded queue: admission is a single atomic claim against
  // max_in_flight, released when the reply is written.
  int cur = in_flight_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur >= limits_.max_in_flight) {
      m_rejected_overloaded_.add();
      m_errors_.add();
      write_frame(*c,
                  error_reply_json(extract_seq(payload),
                                   ErrorCode::kOverloaded,
                                   "request queue is full (" +
                                       std::to_string(limits_.max_in_flight) +
                                       " in flight)"));
      return;
    }
    if (in_flight_.compare_exchange_weak(cur, cur + 1,
                                         std::memory_order_acq_rel))
      break;
  }
  m_queue_depth_.set(in_flight_.load(std::memory_order_relaxed));

  bool start = false;
  {
    std::lock_guard<std::mutex> lock(c->queue_mu);
    c->queue.push_back(
        PendingRequest{std::move(payload), std::chrono::steady_clock::now()});
    if (!c->draining) {
      c->draining = true;
      start = true;
    }
  }
  if (start) {
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      ++jobs_outstanding_;
    }
    executor_.submit([this, c] {
      drain(c);
      std::lock_guard<std::mutex> lock(jobs_mu_);
      --jobs_outstanding_;
      jobs_cv_.notify_all();
    });
  }
}

void Server::drain(const std::shared_ptr<Conn>& c) {
  for (;;) {
    PendingRequest item;
    {
      std::lock_guard<std::mutex> lock(c->queue_mu);
      if (c->queue.empty()) {
        c->draining = false;
        return;
      }
      item = std::move(c->queue.front());
      c->queue.pop_front();
    }

    if (!telemetry_armed_) {
      // Fast path: identical clock-read count to the pre-telemetry
      // server — one steady_clock::now() per request, for the latency
      // histogram.
      HandleResult result = handle(item.payload, nullptr);
      try {
        write_frame(*c, result.reply);
      } catch (const std::exception&) {
        c->open.store(false, std::memory_order_release);
      }
      m_latency_ms_.observe(
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    item.enqueued)
              .count());
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      m_queue_depth_.set(in_flight_.load(std::memory_order_relaxed));
      if (result.stop_server) stop();
      continue;
    }

    obs::RequestSpan span;
    span.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    span.start_us = us_between(epoch_, item.enqueued);
    const auto dequeued = Clock::now();
    span.queue_us = us_between(item.enqueued, dequeued);
    HandleResult result = handle(item.payload, &span);
    const auto handled = Clock::now();
    try {
      write_frame(*c, result.reply);
    } catch (const std::exception&) {
      c->open.store(false, std::memory_order_release);
    }
    const auto done = Clock::now();
    span.write_us = us_between(handled, done);
    span.total_us = us_between(item.enqueued, done);
    m_latency_ms_.observe(span.total_us / 1000.0);
    emit_span(span);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    m_queue_depth_.set(in_flight_.load(std::memory_order_relaxed));
    if (result.stop_server) stop();
  }
}

void Server::emit_span(const obs::RequestSpan& span) {
  m_phase_queue_ms_.observe(span.queue_us / 1000.0);
  m_phase_parse_ms_.observe(span.parse_us / 1000.0);
  m_phase_schedule_ms_.observe(span.schedule_us / 1000.0);
  m_phase_serialize_ms_.observe(span.serialize_us / 1000.0);
  m_phase_write_ms_.observe(span.write_us / 1000.0);
  if (flight_) flight_->record(span);
  if (telemetry_.spans != nullptr) telemetry_.spans->on_request(span);
  if (telemetry_.slow_ms > 0 && span.total_us / 1000.0 >= telemetry_.slow_ms)
    maybe_dump_slow(span);
}

void Server::maybe_dump_slow(const obs::RequestSpan& span) {
  (void)span;
  if (!flight_ || telemetry_.slow_dump_path.empty()) return;
  const auto now_us =
      static_cast<std::int64_t>(us_between(epoch_, Clock::now()));
  std::int64_t last = last_slow_dump_us_.load(std::memory_order_relaxed);
  const auto cooldown_us =
      static_cast<std::int64_t>(kSlowDumpCooldownSeconds * 1e6);
  if (last >= 0 && now_us - last < cooldown_us) return;
  if (!last_slow_dump_us_.compare_exchange_strong(last, now_us,
                                                  std::memory_order_relaxed))
    return;  // another worker is dumping
  // Atomic-rename publish: readers never see a half-written dump.
  const std::string tmp = telemetry_.slow_dump_path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
  if (!out) return;
  out << flight_->to_jsonl();
  out.close();
  if (out) ::rename(tmp.c_str(), telemetry_.slow_dump_path.c_str());
}

// ---------------------------------------------------------------------------
// Request dispatch (worker threads)

namespace {

/// Marks a span's outcome with an error code (no-op on a null span).
void span_error(obs::RequestSpan* span, ErrorCode code) {
  if (span != nullptr) span->outcome = to_string(code);
}

[[nodiscard]] const char* op_name(Request::Op op) {
  switch (op) {
    case Request::Op::kOpen: return "session.open";
    case Request::Op::kRelease: return "task.release";
    case Request::Op::kClose: return "session.close";
    case Request::Op::kStop: return "server.stop";
  }
  return "other";
}

}  // namespace

Server::HandleResult Server::handle(const std::string& payload,
                                    obs::RequestSpan* span) {
  Request req;
  try {
    if (span == nullptr) {
      req = parse_request(payload);
    } else {
      const auto t0 = Clock::now();
      req = parse_request(payload);
      span->parse_us = us_between(t0, Clock::now());
      span->op = op_name(req.op);
      span->seq = req.seq;
      span->session = req.session;
      span->trace_id = req.trace_id;
      span->outcome = "ok";
    }
  } catch (const std::exception& e) {
    const std::string what = e.what();
    ErrorCode code = ErrorCode::kBadRequest;
    std::string message = what;
    if (what.rfind("parse_error: ", 0) == 0) {
      code = ErrorCode::kParseError;
      message = what.substr(13);
    } else if (what.rfind("unknown_op: ", 0) == 0) {
      code = ErrorCode::kUnknownOp;
      message = what.substr(12);
    }
    m_errors_.add();
    span_error(span, code);
    return {error_reply_json(extract_seq(payload), code, message), false};
  }

  try {
    switch (req.op) {
      case Request::Op::kOpen:
        return {handle_open(req, span), false};
      case Request::Op::kRelease:
        return {handle_release(req, span), false};
      case Request::Op::kClose:
        return {handle_close(req, span), false};
      case Request::Op::kStop: {
        if (!limits_.allow_remote_stop) {
          m_errors_.add();
          span_error(span, ErrorCode::kForbidden);
          return {error_reply_json(req.seq, ErrorCode::kForbidden,
                                   "server.stop is disabled"),
                  false};
        }
        StopReply reply;
        reply.ok = true;
        reply.seq = req.seq;
        return {stop_reply_json(reply), true};
      }
    }
    m_errors_.add();
    span_error(span, ErrorCode::kInternal);
    return {error_reply_json(req.seq, ErrorCode::kInternal, "unreachable"),
            false};
  } catch (const SessionError& e) {
    m_errors_.add();
    span_error(span, e.code());
    return {error_reply_json(req.seq, e.code(), e.what()), false};
  } catch (const std::exception& e) {
    m_errors_.add();
    span_error(span, ErrorCode::kInternal);
    return {error_reply_json(req.seq, ErrorCode::kInternal, e.what()), false};
  }
}

std::string Server::handle_open(const Request& req, obs::RequestSpan* span) {
  const auto t0 = span != nullptr ? Clock::now() : Clock::time_point{};
  std::string id;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (static_cast<int>(sessions_.size()) >= limits_.max_sessions) {
      m_rejected_overloaded_.add();
      m_errors_.add();
      span_error(span, ErrorCode::kOverloaded);
      return error_reply_json(req.seq, ErrorCode::kOverloaded,
                              "session limit reached (" +
                                  std::to_string(limits_.max_sessions) + ")");
    }
    id = "s" + std::to_string(++next_session_);
  }
  // Construct outside the map lock: spec_by_name walks the registry.
  auto entry = std::make_shared<SessionEntry>(id, req.open, m_session_);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.emplace(id, std::move(entry));
    m_sessions_active_.set(static_cast<double>(sessions_.size()));
  }
  m_sessions_opened_.add();

  OpenReply reply;
  reply.ok = true;
  reply.seq = req.seq;
  reply.session = id;
  reply.scheduler = req.open.scheduler;
  reply.P = req.open.P;
  if (span == nullptr) return open_reply_json(reply);
  const auto t1 = Clock::now();
  span->schedule_us = us_between(t0, t1);
  span->session = id;  // the minted id, so the span lands in its lane
  std::string out = open_reply_json(reply);
  span->serialize_us = us_between(t1, Clock::now());
  return out;
}

std::string Server::handle_release(const Request& req,
                                   obs::RequestSpan* span) {
  std::shared_ptr<SessionEntry> entry;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(req.session);
    if (it != sessions_.end()) entry = it->second;
  }
  if (!entry) {
    m_errors_.add();
    span_error(span, ErrorCode::kUnknownSession);
    return error_reply_json(req.seq, ErrorCode::kUnknownSession,
                            "no session '" + req.session + "'");
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->session.num_tasks() >= limits_.max_tasks_per_session)
    throw SessionError(ErrorCode::kQuotaExceeded,
                       "session task quota of " +
                           std::to_string(limits_.max_tasks_per_session) +
                           " reached");
  if (span == nullptr) {
    ReleaseReply reply = entry->session.release(req.release);
    reply.seq = req.seq;
    return release_reply_json(reply);
  }
  const auto t0 = Clock::now();
  ReleaseReply reply = entry->session.release(req.release);
  reply.seq = req.seq;
  const auto t1 = Clock::now();
  span->schedule_us = us_between(t0, t1);
  std::string out = release_reply_json(reply);
  span->serialize_us = us_between(t1, Clock::now());
  return out;
}

std::string Server::handle_close(const Request& req, obs::RequestSpan* span) {
  std::shared_ptr<SessionEntry> entry;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(req.session);
    if (it != sessions_.end()) {
      entry = it->second;
      sessions_.erase(it);
      m_sessions_active_.set(static_cast<double>(sessions_.size()));
    }
  }
  if (!entry) {
    m_errors_.add();
    span_error(span, ErrorCode::kUnknownSession);
    return error_reply_json(req.seq, ErrorCode::kUnknownSession,
                            "no session '" + req.session + "'");
  }
  m_sessions_closed_.add();
  std::lock_guard<std::mutex> lock(entry->mu);
  if (span == nullptr) {
    CloseReply reply = entry->session.close();
    reply.seq = req.seq;
    return close_reply_json(reply);
  }
  const auto t0 = Clock::now();
  CloseReply reply = entry->session.close();
  reply.seq = req.seq;
  const auto t1 = Clock::now();
  span->schedule_us = us_between(t0, t1);
  std::string out = close_reply_json(reply);
  span->serialize_us = us_between(t1, Clock::now());
  return out;
}

// ---------------------------------------------------------------------------
// Writing

void Server::write_frame(Conn& c, const std::string& payload) {
  if (!c.open.load(std::memory_order_acquire)) return;
  const std::string frame = encode_frame(payload, limits_.max_frame_bytes);
  std::lock_guard<std::mutex> lock(c.write_mu);
  std::size_t off = 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(kWriteTimeoutSeconds);
  while (off < frame.size()) {
    const ssize_t n =
        ::send(c.fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (std::chrono::steady_clock::now() >= deadline)
        throw std::runtime_error("write_frame: send timed out");
      pollfd pfd{c.fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error(errno_message("send"));
  }
}

}  // namespace moldsched::svc
