// RPC protocol of the scheduling service.
//
// One request frame carries one JSON object with an "op" discriminator
// and an optional client-chosen "seq" echoed back in the reply:
//
//   session.open   pick a scheduler from sched::registry, a platform
//                  size P and (for mu-parameterized schedulers) mu;
//                  returns a server-assigned session id.
//   task.release   stream one task arrival: name, speedup model (wire
//                  codec), predecessor ids among already-released tasks.
//                  The reply carries the task's dense id, its final LPA
//                  allocation, and its start/finish times in the
//                  schedule of the instance revealed so far.
//   session.close  returns the authoritative schedule of the full
//                  instance — makespan, the Lemma 2 lower bound, their
//                  ratio, per-task allocations and trace records — plus
//                  per-session counters and (if requested at open) a
//                  Chrome trace-event JSON of the final schedule.
//   server.stop    graceful remote shutdown; only honored when the
//                  server was started with allow_remote_stop.
//
// Timing semantics: the allocation in a task.release reply is final (LPA
// depends only on the task's own model and P — Algorithm 2 is local by
// design), while the start/finish times are *projections* under the
// prefix revealed so far: a later release with an earlier ready time can
// still claim processors first and shift them. The session.close reply
// is the authority, and is byte-identical to running the accumulated
// graph through the same SchedulerSpec in process.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "moldsched/core/queue_policy.hpp"
#include "moldsched/io/json.hpp"
#include "moldsched/model/speedup_model.hpp"
#include "moldsched/sim/trace.hpp"

namespace moldsched::svc {

/// Application-level error codes carried in {"error":{"code":..}}.
enum class ErrorCode {
  kParseError,      ///< frame payload is not valid JSON / not an object
  kBadRequest,      ///< missing or invalid fields
  kUnknownOp,       ///< unrecognized "op"
  kUnknownSession,  ///< session id never existed, closed, or reaped
  kOverloaded,      ///< admission control: queue full or session limit
  kQuotaExceeded,   ///< per-session task quota exhausted
  kShuttingDown,    ///< server is draining; no new work accepted
  kForbidden,       ///< op disabled by server configuration
  kInternal,        ///< unexpected exception while serving the request
};

[[nodiscard]] std::string to_string(ErrorCode code);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
[[nodiscard]] ErrorCode error_code_from_string(const std::string& s);

/// Parsed error payload of a failed reply.
struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

struct OpenParams {
  std::string scheduler = "lpa";  ///< name from sched::full_suite_names()
  int P = 1;
  double mu = 0.25;               ///< LPA parameter for mu-family schedulers
  core::QueuePolicy policy = core::QueuePolicy::kFifo;
  bool trace = false;             ///< ship a Chrome trace in the close reply
};

struct ReleaseParams {
  std::string name;                   ///< task label (may be empty)
  model::ModelPtr model;              ///< required
  std::vector<int> preds;             ///< ids of already-released tasks
  std::optional<int> expected_task;   ///< client's intended id; mismatch =
                                      ///< duplicate or reordered release
};

/// One parsed request, server side.
struct Request {
  enum class Op { kOpen, kRelease, kClose, kStop };
  Op op = Op::kOpen;
  std::int64_t seq = 0;        ///< echoed verbatim; 0 when absent
  std::string session;         ///< open: empty; others: target session
  std::string trace_id;        ///< optional client-chosen correlation id,
                               ///< carried into spans and flight records
  OpenParams open;
  ReleaseParams release;
};

/// Parses one request payload. Throws std::invalid_argument with a
/// message suitable for a kBadRequest / kUnknownOp / kParseError reply.
[[nodiscard]] Request parse_request(const std::string& payload);

/// Request serializers (client side). A non-empty `trace_id` rides the
/// request as "trace_id" and shows up in the server's request spans and
/// flight-recorder records, correlating client-side activity with
/// server-side telemetry.
[[nodiscard]] std::string open_request_json(const OpenParams& p,
                                            std::int64_t seq,
                                            const std::string& trace_id = "");
[[nodiscard]] std::string release_request_json(
    const std::string& session, const ReleaseParams& p, std::int64_t seq,
    const std::string& trace_id = "");
[[nodiscard]] std::string close_request_json(const std::string& session,
                                             std::int64_t seq,
                                             const std::string& trace_id = "");
[[nodiscard]] std::string stop_request_json(std::int64_t seq);

// ---------------------------------------------------------------------------
// Replies. Each struct has ok/error plus op-specific payload; the
// *_reply_json builders are used by the server, parse_*_reply by the
// client. Builders print doubles via wire_number, so every time the
// client reads back is the server's bit pattern.

struct OpenReply {
  bool ok = false;
  Error error;
  std::int64_t seq = 0;
  std::string session;
  std::string scheduler;
  int P = 0;
};

struct ReleaseReply {
  bool ok = false;
  Error error;
  std::int64_t seq = 0;
  int task = -1;       ///< dense id assigned by the session
  int alloc = 0;       ///< final processor allocation
  double ready = 0.0;  ///< reveal instant in the prefix schedule
  double start = 0.0;  ///< projected start under the prefix
  double end = 0.0;    ///< projected finish under the prefix
  double projected_makespan = 0.0;
};

struct SessionStats {
  std::uint64_t releases = 0;
  std::uint64_t reschedules = 0;  ///< simulations run, full or resumed
  double schedule_ms = 0.0;       ///< total time spent simulating
};

struct CloseReply {
  bool ok = false;
  Error error;
  std::int64_t seq = 0;
  double makespan = 0.0;
  double lower_bound = 0.0;  ///< Lemma 2: max(A_min / P, C_min)
  double ratio = 0.0;        ///< makespan / lower_bound (1 when both 0)
  int num_tasks = 0;
  std::uint64_t num_events = 0;
  std::vector<int> allocation;
  std::vector<sim::TaskRecord> records;
  SessionStats stats;
  std::string trace_json;    ///< Chrome trace; empty unless requested
};

struct StopReply {
  bool ok = false;
  Error error;
  std::int64_t seq = 0;
};

[[nodiscard]] std::string error_reply_json(std::int64_t seq, ErrorCode code,
                                           const std::string& message);
[[nodiscard]] std::string open_reply_json(const OpenReply& r);
[[nodiscard]] std::string release_reply_json(const ReleaseReply& r);
[[nodiscard]] std::string close_reply_json(const CloseReply& r);
[[nodiscard]] std::string stop_reply_json(const StopReply& r);

[[nodiscard]] OpenReply parse_open_reply(const std::string& payload);
[[nodiscard]] ReleaseReply parse_release_reply(const std::string& payload);
[[nodiscard]] CloseReply parse_close_reply(const std::string& payload);
[[nodiscard]] StopReply parse_stop_reply(const std::string& payload);

}  // namespace moldsched::svc
