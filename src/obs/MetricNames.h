#pragma once
/// \file MetricNames.h
/// Registry of every metric and gauge name the tree may publish.
///
/// A typo'd metric name ("comm.hiden_seconds") would silently start a new
/// series: dashboards keep reading the old name, gates keep passing, and
/// the signal is simply gone. `walb_lint` (rule `metric-name`) therefore
/// requires every string literal passed to `counter(...)`, `gauge(...)` or
/// `histogram(...)` in src/, bench/ and tools/ to be declared here, turning
/// the typo into a build-gate failure.
///
/// GENERATED FILE (by hand edit or tooling): regenerate the list with
///     walb_lint --dump-metrics src bench tools
/// and paste the output between the markers. The markers are machine
/// parsed by walb_lint — do not remove them.
///
/// Declaring a name ahead of first use is fine (the registry may lead the
/// code); using a name that is not declared is the build failure.

#include <string_view>

// walb-lint: metric-names-begin
#define WALB_METRIC_NAMES(X)            \
    X("ckpt.bytes")                     \
    X("ckpt.seconds")                   \
    X("comm.begin_seconds")             \
    X("comm.bytesReceived")             \
    X("comm.bytesSent")                 \
    X("comm.deadline_misses")           \
    X("comm.exposed_seconds")           \
    X("comm.faults_injected")           \
    X("comm.finish_seconds")            \
    X("comm.hidden_fraction")           \
    X("comm.hidden_seconds")            \
    X("comm.local_copy_bytes")          \
    X("comm.messagesReceived")          \
    X("comm.messagesSent")              \
    X("health.mass_drift")              \
    X("health.nan_cells")               \
    X("health.violations")              \
    X("lint.violations")                \
    X("mem.pdf_bytes")                  \
    X("perf.aa_parity")                 \
    X("perf.efficiency")                \
    X("perf.fleet_median_step_seconds") \
    X("perf.imbalance")                 \
    X("perf.predicted_mlups")           \
    X("perf.step_seconds_ewma")         \
    X("perf.straggler_ranks")           \
    X("rebalance.blocks_moved")         \
    X("rebalance.bytes_moved")          \
    X("rebalance.imbalance")            \
    X("rebalance.seconds")              \
    X("rebalance.shell_fraction")       \
    X("recover.attempts")               \
    X("recover.backoff_seconds")        \
    X("recover.dead_ranks")             \
    X("recover.epoch")                  \
    X("recover.lost_blocks")            \
    X("recover.resends")                \
    X("recover.retries")                \
    X("recover.seconds")                \
    X("serve.cell_seconds")             \
    X("serve.gangs")                    \
    X("serve.jobs_completed")           \
    X("serve.jobs_failed")              \
    X("serve.jobs_preempted")           \
    X("serve.jobs_queued")              \
    X("serve.jobs_requeued")            \
    X("serve.jobs_running")             \
    X("serve.pool_ranks_lost")          \
    X("serve.turnaround_seconds")       \
    X("serve.wait_seconds")             \
    X("sim.fluidCells")                 \
    X("sim.mlups")                      \
    X("sim.step_seconds")               \
    X("sim.steps")
// walb-lint: metric-names-end

namespace walb::obs {

/// True when `name` is a declared metric name. Runtime mirror of the
/// walb_lint compile-gate, for tools that accept metric names from the
/// command line (walb_perfdiag check) and want to warn on unknown series.
inline bool isRegisteredMetricName(std::string_view name) {
#define WALB_METRIC_NAME_MATCH(s) \
    if (name == s) return true;
    WALB_METRIC_NAMES(WALB_METRIC_NAME_MATCH)
#undef WALB_METRIC_NAME_MATCH
    return false;
}

} // namespace walb::obs
