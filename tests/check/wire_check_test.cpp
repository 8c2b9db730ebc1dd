// The wire differential: streamed sessions must be byte-identical to
// in-process runs across the shared corpus, and the topological relabel
// that makes non-streamable families streamable must be exact.
#include "moldsched/check/wire_check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "moldsched/check/corpus.hpp"
#include "moldsched/check/differential.hpp"
#include "moldsched/graph/adversary.hpp"
#include "moldsched/graph/algorithms.hpp"
#include "moldsched/graph/generators.hpp"
#include "moldsched/graph/workflows.hpp"
#include "moldsched/model/special_models.hpp"
#include "moldsched/sched/registry.hpp"
#include "moldsched/util/rng.hpp"

namespace {

using namespace moldsched;

// relabel_topological renumbers along graph::topological_order, the
// stable minimum-id order; these pin the properties it relies on.
TEST(MinIdTopologicalOrder, IdentityWhenIdOrderIsTopological) {
  graph::TaskGraph g;
  for (int i = 0; i < 6; ++i)
    g.add_task(std::make_shared<model::AmdahlModel>(2.0, 0.5));
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 5);
  g.add_edge(3, 4);
  const auto order = graph::topological_order(g);
  std::vector<graph::TaskId> identity(6);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(order, identity);
}

TEST(MinIdTopologicalOrder, PicksSmallestReadyIdFirst) {
  // Edges 3->0 and 2->1: ids are not topological. The stable order
  // schedules the smallest ready id at every step: 2, 1, 3, 0.
  graph::TaskGraph g;
  for (int i = 0; i < 4; ++i)
    g.add_task(std::make_shared<model::AmdahlModel>(1.0, 0.1));
  g.add_edge(3, 0);
  g.add_edge(2, 1);
  const auto order = graph::topological_order(g);
  EXPECT_EQ(order, (std::vector<graph::TaskId>{2, 1, 3, 0}));
}

TEST(MinIdTopologicalOrder, ThrowsOnCycle) {
  graph::TaskGraph g;
  for (int i = 0; i < 2; ++i)
    g.add_task(std::make_shared<model::AmdahlModel>(1.0, 0.1));
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_THROW((void)graph::topological_order(g), std::logic_error);
}

TEST(RelabelTopological, EveryEdgePointsForwardAfterRelabel) {
  util::Rng rng(11);
  // The provider keeps a reference to the sampler: it must outlive it.
  const model::ModelSampler sampler(model::ModelKind::kGeneral);
  const auto provider = graph::sampling_provider(sampler, rng, 32);
  const graph::TaskGraph g = graph::random_in_tree(40, 3, rng, provider);
  const graph::TaskGraph relabeled = check::relabel_topological(g);
  ASSERT_EQ(relabeled.num_tasks(), g.num_tasks());
  EXPECT_EQ(relabeled.num_edges(), g.num_edges());
  for (graph::TaskId v = 0; v < relabeled.num_tasks(); ++v)
    for (const graph::TaskId u : relabeled.predecessors(v)) EXPECT_LT(u, v);
  // Relabeling permutes ids, it does not change the schedule's makespan:
  // the instance is the same multiset of (model, precedence) pairs.
  sched::SchedulerSpec spec = sched::spec_by_name("lpa", 0.25);
  EXPECT_EQ(spec.run(g, 32).makespan, spec.run(relabeled, 32).makespan);
}

TEST(RelabelTopological, ThrowsOnCycle) {
  graph::TaskGraph g;
  for (int i = 0; i < 2; ++i)
    g.add_task(std::make_shared<model::AmdahlModel>(1.0, 0.1));
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_THROW((void)check::relabel_topological(g), std::invalid_argument);
}

TEST(WireRoundtripCheck, PassesAcrossTheCorpus) {
  util::Rng rng(2024);
  bool saw_relabeled = false;
  for (int i = 0; i < 30; ++i) {
    const auto inst = check::corpus_instance(rng);
    const auto report = check::wire_roundtrip_check(inst.graph, inst.P,
                                                    inst.mu, inst.policy);
    EXPECT_TRUE(report.ok())
        << "seed-indexed instance " << i << ": " << report.to_string();
    EXPECT_EQ(report.num_tasks, inst.graph.num_tasks());
    saw_relabeled = saw_relabeled || report.relabeled;
  }
  // The sweep must have exercised the relabel path (the in-tree family
  // points edges from larger to smaller ids).
  EXPECT_TRUE(saw_relabeled);
}

TEST(WireRoundtripCheck, PassesOnAdversariesForEveryWireScheduler) {
  const auto inst = graph::communication_adversary(8, 0.25);
  for (const std::string scheduler : {"lpa", "improved-lpa"}) {
    const auto report = check::wire_roundtrip_check(
        inst.graph, inst.P, scheduler, inst.mu, core::QueuePolicy::kFifo);
    EXPECT_TRUE(report.ok()) << scheduler << ": " << report.to_string();
    EXPECT_FALSE(report.relabeled);
    EXPECT_GT(report.makespan, 0.0);
  }
}

TEST(WireRoundtripCheck, ReportFormatsMismatches) {
  check::WireCheckReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_NE(report.to_string().find("ok"), std::string::npos);
  report.mismatches.push_back("graph re-encode diverged");
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("graph re-encode diverged"),
            std::string::npos);
}

}  // namespace
