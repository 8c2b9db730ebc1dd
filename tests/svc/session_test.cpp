// Session state machine: streamed scheduling must be bit-exact against
// the in-process SchedulerSpec, and malformed streams must be rejected
// without corrupting the session.
#include "moldsched/svc/session.hpp"

#include <gtest/gtest.h>

#include "moldsched/check/differential.hpp"
#include "moldsched/check/wire_check.hpp"
#include "moldsched/graph/adversary.hpp"
#include "moldsched/graph/generators.hpp"
#include "moldsched/graph/workflows.hpp"
#include "moldsched/model/sampler.hpp"
#include "moldsched/model/special_models.hpp"
#include "moldsched/sched/registry.hpp"
#include "moldsched/util/rng.hpp"

namespace {

using namespace moldsched;

svc::ReleaseParams release_of(const graph::TaskGraph& g, graph::TaskId v) {
  svc::ReleaseParams params;
  params.name = g.name(v);
  params.model = g.model_ptr(v);
  for (const graph::TaskId u : g.predecessors(v)) params.preds.push_back(u);
  params.expected_task = v;
  return params;
}

TEST(Session, StreamedScheduleMatchesInProcessBitExactly) {
  graph::WorkflowModelConfig config;
  config.kind = model::ModelKind::kAmdahl;
  const graph::TaskGraph g = graph::cholesky(3, config);
  const int P = 16;

  svc::OpenParams open;
  open.scheduler = "lpa";
  open.P = P;
  open.mu = 0.25;
  svc::Session session("t", open);
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    const svc::ReleaseReply r = session.release(release_of(g, v));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.task, v);
    EXPECT_GE(r.alloc, 1);
    EXPECT_LE(r.alloc, P);
    EXPECT_LE(r.ready, r.start);
    EXPECT_LT(r.start, r.end);
    EXPECT_LE(r.end, r.projected_makespan);
  }
  const svc::CloseReply closed = session.close();
  ASSERT_TRUE(closed.ok);

  sched::SchedulerSpec spec = sched::spec_by_name("lpa", 0.25);
  const core::ScheduleResult reference = spec.run(g, P);
  EXPECT_EQ(closed.makespan, reference.makespan);
  EXPECT_EQ(closed.allocation, reference.allocation);
  EXPECT_EQ(closed.num_events, reference.num_events);
  ASSERT_EQ(closed.records.size(), reference.trace.records().size());
  for (std::size_t i = 0; i < closed.records.size(); ++i) {
    EXPECT_EQ(closed.records[i].task, reference.trace.records()[i].task);
    EXPECT_EQ(closed.records[i].start, reference.trace.records()[i].start);
    EXPECT_EQ(closed.records[i].end, reference.trace.records()[i].end);
    EXPECT_EQ(closed.records[i].procs, reference.trace.records()[i].procs);
  }
  EXPECT_EQ(closed.stats.releases,
            static_cast<std::uint64_t>(g.num_tasks()));
  // close reuses the last prefix run: exactly one simulation per release.
  EXPECT_EQ(closed.stats.reschedules,
            static_cast<std::uint64_t>(g.num_tasks()));
}

TEST(Session, AdversaryInstanceMatchesAndRatioIsConsistent) {
  const auto inst = graph::roofline_adversary(32, 0.25);
  svc::OpenParams open;
  open.P = inst.P;
  open.mu = inst.mu;
  svc::Session session("adv", open);
  for (graph::TaskId v = 0; v < inst.graph.num_tasks(); ++v)
    ASSERT_TRUE(session.release(release_of(inst.graph, v)).ok);
  const svc::CloseReply closed = session.close();
  ASSERT_TRUE(closed.ok);
  sched::SchedulerSpec spec = sched::spec_by_name("lpa", inst.mu);
  EXPECT_EQ(closed.makespan, spec.run(inst.graph, inst.P).makespan);
  ASSERT_GT(closed.lower_bound, 0.0);
  EXPECT_EQ(closed.ratio, closed.makespan / closed.lower_bound);
}

TEST(Session, ZeroTaskSessionClosesCleanly) {
  svc::OpenParams open;
  open.P = 8;
  svc::Session session("empty", open);
  const svc::CloseReply closed = session.close();
  ASSERT_TRUE(closed.ok);
  EXPECT_EQ(closed.num_tasks, 0);
  EXPECT_EQ(closed.makespan, 0.0);
  EXPECT_EQ(closed.lower_bound, 0.0);
  EXPECT_EQ(closed.ratio, 1.0);
  EXPECT_TRUE(closed.records.empty());
  EXPECT_EQ(closed.stats.releases, 0u);
}

TEST(Session, RejectsUnknownScheduler) {
  svc::OpenParams open;
  open.scheduler = "definitely-not-a-scheduler";
  open.P = 4;
  try {
    svc::Session session("x", open);
    FAIL() << "expected SessionError";
  } catch (const svc::SessionError& e) {
    EXPECT_EQ(e.code(), svc::ErrorCode::kBadRequest);
  }
}

TEST(Session, RejectsDuplicateAndOutOfOrderReleases) {
  svc::OpenParams open;
  open.P = 4;
  svc::Session session("x", open);
  svc::ReleaseParams t0;
  t0.model = std::make_shared<model::AmdahlModel>(4.0, 0.5);
  t0.expected_task = 0;
  ASSERT_TRUE(session.release(t0).ok);

  // Re-sending task 0 is a duplicate: the session expects 1.
  try {
    (void)session.release(t0);
    FAIL() << "expected SessionError";
  } catch (const svc::SessionError& e) {
    EXPECT_EQ(e.code(), svc::ErrorCode::kBadRequest);
  }
  // Skipping ahead to task 5 is out of order.
  svc::ReleaseParams t5 = t0;
  t5.expected_task = 5;
  EXPECT_THROW((void)session.release(t5), svc::SessionError);
  // The failures left the session intact: releasing task 1 still works.
  svc::ReleaseParams t1 = t0;
  t1.expected_task = 1;
  EXPECT_TRUE(session.release(t1).ok);
  EXPECT_EQ(session.num_tasks(), 2);
}

TEST(Session, RejectsUnreleasedAndDuplicatePredecessors) {
  svc::OpenParams open;
  open.P = 4;
  svc::Session session("x", open);
  svc::ReleaseParams t0;
  t0.model = std::make_shared<model::AmdahlModel>(4.0, 0.5);
  ASSERT_TRUE(session.release(t0).ok);

  // A predecessor that was never released (including the task itself).
  svc::ReleaseParams bad = t0;
  bad.preds = {7};
  EXPECT_THROW((void)session.release(bad), svc::SessionError);
  bad.preds = {1};  // would-be self-edge: id 1 is the task being released
  EXPECT_THROW((void)session.release(bad), svc::SessionError);
  bad.preds = {0, 0};  // duplicate edge
  EXPECT_THROW((void)session.release(bad), svc::SessionError);
  // Session still at one task and still usable.
  EXPECT_EQ(session.num_tasks(), 1);
  svc::ReleaseParams good = t0;
  good.preds = {0};
  EXPECT_TRUE(session.release(good).ok);
}

void expect_bad_request(svc::Session& session,
                        const svc::ReleaseParams& params, const char* what) {
  try {
    (void)session.release(params);
    ADD_FAILURE() << what << ": expected SessionError";
  } catch (const svc::SessionError& e) {
    EXPECT_EQ(e.code(), svc::ErrorCode::kBadRequest) << what;
  }
}

TEST(Session, RejectedReleasesLeaveTheLiveEngineUntouched) {
  constexpr int P = 24;
  util::Rng rng(5);
  const model::ModelSampler sampler(model::ModelKind::kGeneral);
  const graph::TaskGraph g = check::relabel_topological(graph::layered_uniform(
      8, 20, 2, 9, graph::sampling_provider(sampler, rng, P)));
  svc::OpenParams open;
  open.P = P;
  open.policy = core::QueuePolicy::kLargestWorkFirst;
  svc::Session session("rejects", open);
  sched::SchedulerSpec spec = sched::spec_by_name("lpa", open.mu);
  spec.policy = open.policy;

  graph::TaskGraph prefix;
  core::ScheduleResult ref;
  int rejected_rounds = 0;
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    const svc::ReleaseParams good = release_of(g, v);
    if (v % 23 == 7) {
      // Every kind of rejection, mid-stream, before the valid release.
      ++rejected_rounds;
      svc::ReleaseParams bad = good;
      bad.expected_task = v - 1;
      expect_bad_request(session, bad, "duplicate");
      bad.expected_task = v + 1;
      expect_bad_request(session, bad, "out of order");
      bad = good;
      bad.preds.push_back(v + 2);
      expect_bad_request(session, bad, "unreleased predecessor");
      bad = good;
      bad.preds.push_back(v - 1);
      bad.preds.push_back(v - 1);
      expect_bad_request(session, bad, "duplicate predecessor");
      bad = good;
      bad.model = nullptr;
      expect_bad_request(session, bad, "missing model");
      ASSERT_EQ(session.num_tasks(), v);
    }
    const svc::ReleaseReply r = session.release(good);
    prefix.add_task(g.model_ptr(v), g.name(v));
    for (const graph::TaskId u : g.predecessors(v)) prefix.add_edge(u, v);
    ref = spec.run(prefix, P);
    const auto t = static_cast<std::size_t>(v);
    const sim::TaskRecord* rec = ref.trace.find(v);
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(r.task, v);
    ASSERT_EQ(r.alloc, ref.allocation[t]) << "task " << v;
    ASSERT_EQ(r.ready, ref.ready_time[t]) << "task " << v;
    ASSERT_EQ(r.start, rec->start) << "task " << v;
    ASSERT_EQ(r.end, rec->end) << "task " << v;
    ASSERT_EQ(r.projected_makespan, ref.makespan) << "task " << v;
  }
  EXPECT_GE(rejected_rounds, 6);
  const svc::CloseReply closed = session.close();
  ASSERT_TRUE(closed.ok);
  EXPECT_EQ(check::canonical_schedule(check::result_from_close(closed)),
            check::canonical_schedule(ref));
  EXPECT_EQ(closed.stats.releases, static_cast<std::uint64_t>(g.num_tasks()));
  EXPECT_EQ(closed.stats.reschedules,
            static_cast<std::uint64_t>(g.num_tasks()));
}

TEST(Session, MissingModelIsRejected) {
  svc::OpenParams open;
  open.P = 2;
  svc::Session session("x", open);
  svc::ReleaseParams params;  // model left null
  EXPECT_THROW((void)session.release(params), svc::SessionError);
}

TEST(Session, TraceRequestShipsChromeJson) {
  svc::OpenParams open;
  open.P = 4;
  open.trace = true;
  svc::Session session("tr", open);
  svc::ReleaseParams t0;
  t0.model = std::make_shared<model::RooflineModel>(8.0, 4);
  ASSERT_TRUE(session.release(t0).ok);
  const svc::CloseReply closed = session.close();
  ASSERT_TRUE(closed.ok);
  EXPECT_NE(closed.trace_json.find("traceEvents"), std::string::npos);
}

TEST(Session, IdleSecondsGrowsAndResetsOnActivity) {
  svc::OpenParams open;
  open.P = 2;
  svc::Session session("idle", open);
  const double before = session.idle_seconds();
  EXPECT_GE(before, 0.0);
  svc::ReleaseParams t0;
  t0.model = std::make_shared<model::AmdahlModel>(1.0, 0.1);
  ASSERT_TRUE(session.release(t0).ok);
  EXPECT_LT(session.idle_seconds(), 10.0);
}

}  // namespace
