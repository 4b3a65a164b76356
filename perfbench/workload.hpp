// Shared state of one benchmark run: its options, its correctness
// tally, and the two phases every workload runs (many-source traversal
// by the measured engines, then serving through ScaleoutService).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/bfs_engine.hpp"
#include "graph/csr_graph.hpp"
#include "reference.hpp"
#include "scaleout/scaleout_service.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  int threads = 1;                   ///< engine threads = nproc
  std::vector<std::string> engines;  ///< traversal engines measured
};

/// Operations attempted and failed, and whether every checked output
/// was correct. A fault message is printed to stderr once per kind.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void fault(const std::string& what) {
    if (correct) std::fprintf(stderr, "perfbench: incorrect output: %s\n", what.c_str());
    correct = false;
  }
};

/// The traversal graph as the program sees it (mmap-loaded CSR) and as
/// the checker sees it (the benchmark's own adjacency).
struct TraversalSetup {
  RefGraph ref;
  std::vector<vid_t> sources;
  std::vector<std::vector<level_t>> ref_levels;  ///< per source
  std::vector<std::uint64_t> ref_edges;          ///< per source (TEPS)
  std::unique_ptr<optibfs::CsrGraph> graph;      ///< mmap-backed
  std::vector<std::unique_ptr<optibfs::ParallelBFS>> engines;
};

/// One tenant of the serving phase: its base edges (a simple digraph),
/// the in-memory CSR the service serves, and its id once registered.
struct TenantSetup {
  std::string name;
  double mix = 1.0;  ///< share of the queries, relative to the others
  vid_t n = 0;
  Edges edges;
  std::shared_ptr<const optibfs::CsrGraph> graph;
  optibfs::scaleout::TenantId id = 0;
};

struct ServeSetup {
  std::vector<TenantSetup> tenants;
  std::unique_ptr<optibfs::scaleout::ScaleoutService> service;
};

/// Runs rounds of (every source x every engine) for about `budget_s`
/// seconds, checks every traversal, and fills mteps.<E> (end to end)
/// and the core/runtime/storage per-layer metrics.
void run_traversal(const RunOptions& opt, TraversalSetup& setup,
                   double budget_s, Tracer& tracer, Metrics& e2e,
                   Metrics& layer, Tally& tally);

/// Closed-loop then open-loop serving with updates and watches for
/// about `budget_s` seconds; checks a sample of answers against the
/// benchmark's own model of each tenant; fills the serve, front, cache,
/// dispatch, replica, kernel, dynamic, watch and epoch per-layer metrics
/// (serving figures spread too widely between runs to gate a change).
void run_serve(const RunOptions& opt, ServeSetup& setup, double budget_s,
               Tracer& tracer, Metrics& layer, Tally& tally);

}  // namespace perfbench
