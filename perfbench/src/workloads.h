#pragma once
/// \file workloads.h
/// The ledger's workloads. Each drives walb only through its public API:
/// geometry, blockforest/partition, sim::DistributedSimulation, the
/// checkpoint calls, sim::PdfCommScheme and the perf probes.

#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;        ///< initial-flow perturbation on every workload
    std::uint64_t treeSeed = 2013; ///< vascular tree shape
    double seconds = 10;           ///< timed stepping window
    bool trace = false;            ///< per-layer run instead of end-to-end
    std::string scratchDir = ".";  ///< where checkpoint files go
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;   ///< what the run reports (end-to-end or per-layer)
    std::vector<Metric> context;   ///< host fingerprint and workload facts, every run
    std::vector<std::string> errors;

    /// Counts one checked operation; a false `ok` is a failure with `what`.
    void check(bool ok, const std::string& what);
};

/// Runs one workload end to end (or traced) and returns what it measured.
/// Throws std::invalid_argument for an unknown workload name.
Result runWorkload(const Options& opt);

} // namespace ledger
