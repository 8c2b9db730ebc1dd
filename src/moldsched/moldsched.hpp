// Umbrella header: the complete public API of moldsched.
//
// Include this for quick experiments; production users should prefer the
// per-module headers to keep compile times down.
#pragma once

// Speedup models (Section 3.1)
#include "moldsched/model/arbitrary_model.hpp"
#include "moldsched/model/fit.hpp"
#include "moldsched/model/general_model.hpp"
#include "moldsched/model/sampler.hpp"
#include "moldsched/model/special_models.hpp"
#include "moldsched/model/speedup_model.hpp"

// Task graphs, generators and the paper's lower-bound instances
#include "moldsched/graph/adversary.hpp"
#include "moldsched/graph/algorithms.hpp"
#include "moldsched/graph/chains.hpp"
#include "moldsched/graph/generators.hpp"
#include "moldsched/graph/stats.hpp"
#include "moldsched/graph/task_graph.hpp"
#include "moldsched/graph/workflows.hpp"

// Discrete-event simulation substrate
#include "moldsched/sim/event_queue.hpp"
#include "moldsched/sim/gantt.hpp"
#include "moldsched/sim/platform.hpp"
#include "moldsched/sim/trace.hpp"
#include "moldsched/sim/validator.hpp"

// The paper's algorithm (Algorithms 1 and 2) and its analysis artifacts
#include "moldsched/core/allocator.hpp"
#include "moldsched/core/intervals.hpp"
#include "moldsched/core/online_scheduler.hpp"
#include "moldsched/core/queue_policy.hpp"

// Baselines, offline/exact schedulers, extension settings
#include "moldsched/sched/backfill_scheduler.hpp"
#include "moldsched/sched/baselines.hpp"
#include "moldsched/sched/chain_scheduler.hpp"
#include "moldsched/sched/contiguous_scheduler.hpp"
#include "moldsched/sched/exact.hpp"
#include "moldsched/sched/level_scheduler.hpp"
#include "moldsched/sched/malleable_scheduler.hpp"
#include "moldsched/sched/offline.hpp"
#include "moldsched/sched/registry.hpp"
#include "moldsched/sched/release_scheduler.hpp"

// Resilience extension (re-execution under failures)
#include "moldsched/resilience/failure_model.hpp"
#include "moldsched/resilience/resilient_scheduler.hpp"

// Competitive-ratio analysis, bounds and experiment harness
#include "moldsched/analysis/adversary_study.hpp"
#include "moldsched/analysis/blame.hpp"
#include "moldsched/analysis/bounds.hpp"
#include "moldsched/analysis/curves.hpp"
#include "moldsched/analysis/experiment.hpp"
#include "moldsched/analysis/lemma_check.hpp"
#include "moldsched/analysis/markdown_report.hpp"
#include "moldsched/analysis/optimize.hpp"
#include "moldsched/analysis/ratios.hpp"
#include "moldsched/analysis/report.hpp"

// Differential self-checking: hot-path equivalence, instance shrinking,
// the shared fuzz corpus, and the service wire-path differential
#include "moldsched/check/corpus.hpp"
#include "moldsched/check/differential.hpp"
#include "moldsched/check/shrink.hpp"
#include "moldsched/check/wire_check.hpp"

// Adversarial search: perturbation grammar, annealing driver, pairwise
// tournament, replayable repro archive
#include "moldsched/adv/anneal.hpp"
#include "moldsched/adv/archive.hpp"
#include "moldsched/adv/perturb.hpp"
#include "moldsched/adv/tournament.hpp"

// Observability: metrics registry, Chrome traces, scheduler observers
#include "moldsched/obs/obs.hpp"

// Parallel experiment engine (job grids, executor, JSONL results, suites)
#include "moldsched/engine/engine.hpp"

// Scheduling service: streaming online RPC (framing, protocol, session
// state machine, TCP server and client)
#include "moldsched/svc/client.hpp"
#include "moldsched/svc/protocol.hpp"
#include "moldsched/svc/server.hpp"
#include "moldsched/svc/session.hpp"
#include "moldsched/svc/wire.hpp"

// Import/export
#include "moldsched/io/dot.hpp"
#include "moldsched/io/json.hpp"
#include "moldsched/io/svg.hpp"
#include "moldsched/io/text_format.hpp"

// Utilities
#include "moldsched/util/flags.hpp"
#include "moldsched/util/parallel.hpp"
#include "moldsched/util/rng.hpp"
#include "moldsched/util/stats.hpp"
#include "moldsched/util/table.hpp"
