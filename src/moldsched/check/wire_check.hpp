// Differential check for the scheduling service's wire path.
//
// The service promises that a streamed instance schedules byte-for-byte
// identically to an in-process run. This module makes that promise
// executable without sockets: it drives an instance through every codec
// layer the TCP path uses — graph JSON, task.release request JSON, the
// session state machine, close-reply JSON — and compares canonical
// schedule forms (check::canonical_schedule hexfloats) against a direct
// sched::SchedulerSpec run.
//
// Streaming requires predecessors to be released before their
// successors. Corpus families whose id order is not topological (the
// in-tree family points edges from larger to smaller ids) are first
// relabeled by the stable minimum-id topological order, which is the
// identity whenever id order was already topological — so for streamable
// graphs the check compares against the untouched instance.
#pragma once

#include <string>
#include <vector>

#include "moldsched/core/online_scheduler.hpp"
#include "moldsched/core/queue_policy.hpp"
#include "moldsched/graph/task_graph.hpp"
#include "moldsched/svc/protocol.hpp"

namespace moldsched::check {

/// `g` with tasks renumbered along graph::topological_order, the stable
/// minimum-id order (models and names shared, edges remapped); the
/// result streams in id order, and the renumbering is the identity when
/// every edge already points from a smaller to a larger id. Throws
/// std::invalid_argument on a cyclic graph.
[[nodiscard]] graph::TaskGraph relabel_topological(const graph::TaskGraph& g);

struct WireCheckReport {
  /// Human-readable description of every divergence; empty = the wire
  /// path is indistinguishable from the in-process run.
  std::vector<std::string> mismatches;
  bool relabeled = false;  ///< instance needed the topological relabel
  int num_tasks = 0;
  double makespan = 0.0;   ///< in-process reference makespan

  [[nodiscard]] bool ok() const noexcept { return mismatches.empty(); }
  [[nodiscard]] std::string to_string() const;
};

/// Rebuilds a ScheduleResult from the fields a close reply carries, so
/// canonical_schedule can compare it against an in-process run.
/// Records replay in reply order, which is the trace's insertion order;
/// the canonical form preserves it.
[[nodiscard]] core::ScheduleResult result_from_close(
    const svc::CloseReply& reply);

/// Runs the full wire battery for scheduler `scheduler` (a
/// sched::full_suite_names() entry, rebuilt at `mu`, queue policy
/// overridden to `policy` — the same override svc::Session applies):
///  1. encode_graph -> decode_graph -> encode_graph is byte-stable, and
///     the decoded graph schedules byte-identically to the original;
///  2. releasing the instance task by task through svc::Session — each
///     release serialized with release_request_json and re-parsed with
///     parse_request, the close reply serialized and re-parsed likewise —
///     reconstructs a schedule byte-identical to the in-process run;
///  3. the final release's projected makespan equals the close makespan
///     (the last prefix *is* the full instance).
[[nodiscard]] WireCheckReport wire_roundtrip_check(const graph::TaskGraph& g,
                                                   int P,
                                                   const std::string& scheduler,
                                                   double mu,
                                                   core::QueuePolicy policy);

/// Convenience overload: the paper's scheduler, scheduler = "lpa".
[[nodiscard]] WireCheckReport wire_roundtrip_check(
    const graph::TaskGraph& g, int P, double mu,
    core::QueuePolicy policy = core::QueuePolicy::kFifo);

}  // namespace moldsched::check
