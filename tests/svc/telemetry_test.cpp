// End-to-end telemetry: a real client streams a graph through a real
// server over a socket with a trace_id attached, and every sink agrees —
// the Chrome trace validates with per-session lanes and nested phase
// spans, the flight recorder retains the requests with the trace_id and
// internally-consistent phase timings, and the svc.phase.* histograms
// fill in; and the svc.session.* instruments show at /metrics how each
// release was simulated. Uses a private MetricRegistry so
// concurrently-running tests sharing default_registry() cannot perturb
// the counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "moldsched/check/wire_check.hpp"
#include "moldsched/engine/executor.hpp"
#include "moldsched/graph/adversary.hpp"
#include "moldsched/graph/generators.hpp"
#include "moldsched/model/sampler.hpp"
#include "moldsched/obs/metrics.hpp"
#include "moldsched/obs/span.hpp"
#include "moldsched/obs/trace_writer.hpp"
#include "moldsched/svc/admin.hpp"
#include "moldsched/svc/client.hpp"
#include "moldsched/svc/server.hpp"

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

TEST(ServiceTelemetry, EndToEndSessionFeedsEverySink) {
  engine::Executor executor(2);
  obs::MetricRegistry registry;
  obs::TraceWriter writer;
  obs::TraceSpanObserver span_obs(writer, "svc requests");

  svc::ServerTelemetry telemetry;
  telemetry.phases = true;
  telemetry.spans = &span_obs;
  telemetry.flight_capacity = 256;
  svc::Server server({}, telemetry, executor, registry);
  const int port = server.listen();
  ASSERT_GT(port, 0);

  const auto inst = graph::roofline_adversary(12, 0.25);
  svc::OpenParams open;
  open.P = inst.P;
  open.mu = inst.mu;

  svc::Client client;
  client.set_trace_id("e2e-telemetry");
  client.connect("127.0.0.1", port);
  const svc::OpenReply opened = client.open(open);
  ASSERT_TRUE(opened.ok) << opened.error.message;
  for (graph::TaskId v = 0; v < inst.graph.num_tasks(); ++v) {
    const svc::ReleaseReply r =
        client.release(opened.session, release_of(inst.graph, v));
    ASSERT_TRUE(r.ok) << r.error.message;
  }
  const svc::CloseReply closed = client.close_session(opened.session);
  ASSERT_TRUE(closed.ok) << closed.error.message;
  client.disconnect();
  server.stop();
  server.wait();

  const auto expected_requests =
      static_cast<std::uint64_t>(inst.graph.num_tasks()) + 2;  // open+close

  // Sink 1: the Chrome trace validates, with the session as its own lane
  // and nested svc.phase children inside svc.request spans.
  const std::string json = writer.to_json();
  obs::TraceStats stats;
  const auto err = obs::validate_chrome_trace(json, &stats);
  ASSERT_FALSE(err.has_value()) << *err;
  EXPECT_GE(stats.spans, expected_requests);  // request span per request
  EXPECT_NE(json.find("\"cat\":\"svc.request\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"svc.phase\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"e2e-telemetry\""), std::string::npos);
  EXPECT_NE(json.find('"' + opened.session + '"'), std::string::npos)
      << "session lane name missing";

  // Sink 2: the flight recorder retained every request, each carrying
  // the trace id, a known outcome, and phases that sum within the
  // request's end-to-end latency.
  ASSERT_NE(server.flight(), nullptr);
  const auto records = server.flight()->snapshot();
  ASSERT_EQ(records.size(), expected_requests);
  EXPECT_EQ(server.flight()->recorded(), expected_requests);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const obs::RequestSpan& r = records[i];
    EXPECT_EQ(r.trace_id, "e2e-telemetry");
    EXPECT_EQ(r.outcome, "ok");
    EXPECT_GT(r.total_us, 0.0);
    const double phase_sum =
        r.queue_us + r.parse_us + r.schedule_us + r.serialize_us + r.write_us;
    EXPECT_LE(phase_sum, r.total_us * 1.0000001) << "request " << r.request_id;
    if (i > 0) {
      EXPECT_LT(records[i - 1].request_id, r.request_id);
    }
  }
  EXPECT_EQ(records.front().op, "session.open");
  EXPECT_EQ(records.back().op, "session.close");
  EXPECT_EQ(records.back().session, opened.session);

  // The same records rendered as JSONL — one line per request.
  const std::string jsonl = server.flight_jsonl();
  std::size_t lines = 0;
  for (const char c : jsonl) lines += (c == '\n');
  EXPECT_EQ(lines, expected_requests);
  EXPECT_NE(jsonl.find("\"trace_id\":\"e2e-telemetry\""), std::string::npos);

  // Sink 3: the svc.phase.* histograms observed every request, and the
  // latency histogram still matches (same request count).
  for (const char* name :
       {"svc.phase.queue_ms", "svc.phase.parse_ms", "svc.phase.schedule_ms",
        "svc.phase.serialize_ms", "svc.phase.write_ms",
        "svc.request.latency_ms"}) {
    EXPECT_EQ(registry.histogram(name).count(), expected_requests) << name;
  }
  // Phase means decompose the end-to-end mean: each phase is a disjoint
  // sub-interval, so the means sum to at most the latency mean.
  const double mean_phases_ms = registry.histogram("svc.phase.queue_ms").mean() +
                                registry.histogram("svc.phase.parse_ms").mean() +
                                registry.histogram("svc.phase.schedule_ms").mean() +
                                registry.histogram("svc.phase.serialize_ms").mean() +
                                registry.histogram("svc.phase.write_ms").mean();
  EXPECT_LE(mean_phases_ms,
            registry.histogram("svc.request.latency_ms").mean() * 1.0000001);
}

TEST(ServiceTelemetry, LayeredStreamMostlyResumesAndShowsAtMetrics) {
  constexpr int kP = 48;
  constexpr int kWidth = 20;
  constexpr int kLayers = 30;
  util::Rng rng(7);
  const model::ModelSampler sampler(model::ModelKind::kGeneral);
  const graph::TaskGraph g = check::relabel_topological(graph::layered_uniform(
      kLayers, kWidth, 2, 11, graph::sampling_provider(sampler, rng, kP)));
  const auto n = static_cast<std::uint64_t>(g.num_tasks());

  engine::Executor executor(2);
  obs::MetricRegistry registry;
  svc::Server server({}, executor, registry);  // unarmed
  const int port = server.listen();
  svc::OpenParams open;
  open.P = kP;
  svc::Client client;
  client.connect("127.0.0.1", port);
  const svc::OpenReply opened = client.open(open);
  ASSERT_TRUE(opened.ok) << opened.error.message;
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v)
    ASSERT_TRUE(client.release(opened.session, release_of(g, v)).ok);
  ASSERT_TRUE(client.close_session(opened.session).ok);
  client.disconnect();
  server.stop();
  server.wait();

  // One simulation per release: the first layer's sources replay from
  // the start, and most later releases resume from a checkpoint.
  const std::uint64_t resumed = registry.counter("svc.session.resumed").value();
  const std::uint64_t full = registry.counter("svc.session.full_reruns").value();
  EXPECT_EQ(resumed + full, n);
  EXPECT_GE(full, static_cast<std::uint64_t>(kWidth));
  EXPECT_GT(resumed, 3 * full) << "resumed " << resumed << ", full " << full;
  // A resume replays a suffix: far fewer events than re-running every
  // prefix, which simulates n (n + 1) / 2 completions.
  const std::uint64_t replayed =
      registry.counter("svc.session.replayed_events").value();
  EXPECT_GE(replayed, n);
  EXPECT_LT(replayed, n * (n + 1) / 2 / 4) << "replayed " << replayed;
  // Each release lands in the bucket of its session size.
  EXPECT_EQ(registry.histogram("svc.session.release_ms.le100").count(), 100u);
  EXPECT_EQ(registry.histogram("svc.session.release_ms.le1000").count(),
            n - 100);
  EXPECT_EQ(registry.histogram("svc.session.release_ms.le4000").count(), 0u);

  svc::AdminServer admin(registry);
  std::string text, content_type;
  ASSERT_TRUE(admin.route("/metrics", text, content_type));
  for (const char* name :
       {"svc_session_resumed_total ", "svc_session_full_reruns_total ",
        "svc_session_replayed_events_total ",
        "svc_session_release_ms_le100_count ",
        "svc_session_release_ms_le1000_count ",
        "svc_session_release_ms_le4000_count ",
        "svc_session_release_ms_gt4000_count "})
    EXPECT_NE(text.find(name), std::string::npos) << name;
  EXPECT_NE(text.find("svc_session_resumed_total " + std::to_string(resumed)),
            std::string::npos);
}

TEST(ServiceTelemetry, UnarmedServerProducesNoSpansOrPhaseCounts) {
  engine::Executor executor(2);
  obs::MetricRegistry registry;
  svc::Server server({}, executor, registry);  // legacy ctor: telemetry off
  const int port = server.listen();

  svc::OpenParams open;
  open.P = 4;
  svc::Client client;
  client.connect("127.0.0.1", port);
  const svc::OpenReply opened = client.open(open);
  ASSERT_TRUE(opened.ok) << opened.error.message;
  ASSERT_TRUE(client.close_session(opened.session).ok);
  client.disconnect();
  server.stop();
  server.wait();

  EXPECT_EQ(server.flight(), nullptr);
  EXPECT_EQ(server.flight_jsonl(), "");
  // The always-on latency histogram observed both requests; the phase
  // histograms exist (registered up front) but never fired.
  EXPECT_EQ(registry.histogram("svc.request.latency_ms").count(), 2u);
  EXPECT_EQ(registry.histogram("svc.phase.schedule_ms").count(), 0u);
  EXPECT_EQ(registry.histogram("svc.phase.queue_ms").count(), 0u);
}

TEST(ServiceTelemetry, TraceIdRidesTheWireIntoErrorOutcomesToo) {
  engine::Executor executor(2);
  obs::MetricRegistry registry;
  svc::ServerTelemetry telemetry;
  telemetry.flight_capacity = 16;
  svc::Server server({}, telemetry, executor, registry);
  const int port = server.listen();

  svc::Client client;
  client.set_trace_id("bad-session-probe");
  client.connect("127.0.0.1", port);
  const svc::CloseReply closed = client.close_session("s999");
  EXPECT_FALSE(closed.ok);
  EXPECT_EQ(closed.error.code, svc::ErrorCode::kUnknownSession);
  client.disconnect();
  server.stop();
  server.wait();

  const auto records = server.flight()->snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, "unknown_session");
  EXPECT_EQ(records[0].trace_id, "bad-session-probe");
  EXPECT_EQ(records[0].op, "session.close");
  EXPECT_EQ(records[0].session, "s999");
}

}  // namespace
