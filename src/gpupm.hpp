/**
 * @file
 * Umbrella header: the public gpupm API in one include.
 *
 * Link against the `gpupm` CMake interface target and write
 *
 *     #include "gpupm.hpp"
 *
 * to get everything an embedding application needs: workloads,
 * governors, predictors, the simulator, the sweep/fleet execution
 * engines, telemetry and tracing. Subsystem headers remain directly
 * includable for programs that want to shrink their view (for
 * instance, only "sim/simulator.hpp" and "policy/turbo_core.hpp");
 * headers NOT listed here (tree builders, hill-climb internals, ring
 * buffers, ...) are internal and may change without notice - see
 * CONTRIBUTING.md.
 */

#pragma once

// Basics: units, flags, tables, deterministic RNG streams.
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

// The modeled platform: configuration space, DVFS, power, thermals.
#include "hw/config.hpp"
#include "hw/params.hpp"

// Kernel ground-truth models and the APU execution model.
#include "kernel/counters.hpp"
#include "kernel/kernel.hpp"
#include "kernel/perf_model.hpp"

// Workloads: the paper's benchmarks, traces, training corpora.
#include "workload/benchmarks.hpp"
#include "workload/trace.hpp"
#include "workload/training.hpp"

// Predictors: the Random Forest, the governors' kernel memo and its
// hot-swap handle, error models, serialization.
#include "ml/error_model.hpp"
#include "ml/forest_handle.hpp"
#include "ml/kernel_memo.hpp"
#include "ml/predictor.hpp"
#include "ml/serialize.hpp"
#include "ml/trainer.hpp"

// Governors: baselines, PPK, the oracle, and the paper's MPC.
#include "mpc/governor.hpp"
#include "mpc/options.hpp"
#include "policy/oracle.hpp"
#include "policy/ppk.hpp"
#include "policy/static_governor.hpp"
#include "policy/turbo_core.hpp"

// Closed-loop simulation and derived metrics.
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

// Deterministic parallel execution: sweeps and the fleet server.
#include "exec/sweep.hpp"
#include "exec/sweep_jobs.hpp"
#include "serve/server.hpp"

// Fleet power capping: budget arbitration and the reactive thermal
// cap governor.
#include "powercap/arbiter.hpp"
#include "powercap/thermal_governor.hpp"

// Closed-loop online learning: drift detection and background
// retrains published through ml::ForestHandle.
#include "online/drift.hpp"
#include "online/learner.hpp"

// Observability: counters/histograms/power traces, span timelines
// and decision provenance.
#include "telemetry/telemetry.hpp"
#include "trace/chrome_export.hpp"
#include "trace/decision.hpp"
#include "trace/jsonl_export.hpp"
#include "trace/trace.hpp"
