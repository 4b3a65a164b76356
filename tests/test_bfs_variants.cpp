// Option-space coverage: every paper extension and ablation switch must
// stay exactly correct (levels identical to serial) under all settings.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/registry.hpp"
#include "harness/source_sampler.hpp"
#include "harness/verifier.hpp"
#include "test_util.hpp"

namespace optibfs {
namespace {

void expect_correct(const std::string& algorithm, const CsrGraph& graph,
                    const BFSOptions& options, const std::string& what) {
  auto engine = make_bfs(algorithm, graph, options);
  for (const vid_t source : sample_sources(graph, 2, 7)) {
    BFSResult result;
    engine->run(source, result);
    const auto report = verify_against_serial(graph, source, result);
    ASSERT_TRUE(report.ok) << algorithm << " [" << what << "] from " << source
                           << ": " << report.error;
  }
}

CsrGraph hotspot_graph() {
  return CsrGraph::from_edges(gen::power_law(3000, 20000, 2.1, 41));
}

// ---- BFS_DL pool-count sweep (j = 1 .. p) ----

class DlPoolSweep : public ::testing::TestWithParam<int> {};

TEST_P(DlPoolSweep, CorrectForEveryPoolCount) {
  const CsrGraph graph = hotspot_graph();
  BFSOptions options;
  options.num_threads = 8;
  options.dl_pools = GetParam();
  expect_correct("BFS_DL", graph, options,
                 "j=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllPoolCounts, DlPoolSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

// ---- fixed segment sizes (s sweep, paper's adaptive default is 0) ----

class SegmentSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SegmentSizeSweep, CentralizedVariantsCorrect) {
  const CsrGraph graph = hotspot_graph();
  BFSOptions options;
  options.num_threads = 4;
  options.segment_size = GetParam();
  for (const char* algorithm : {"BFS_C", "BFS_CL", "BFS_DL"}) {
    expect_correct(algorithm, graph, options,
                   "s=" + std::to_string(GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(SegmentSizes, SegmentSizeSweep,
                         ::testing::Values(1, 2, 7, 64, 1 << 20));

// ---- §IV-D parent-claim duplicate suppression ----

TEST(ParentClaim, CorrectAndSuppressesDuplicates) {
  // Dense, low-diameter graph: the duplicate-heavy regime the paper
  // says claim checking targets.
  const CsrGraph graph = CsrGraph::from_edges(gen::rmat(11, 64, 9));
  for (const char* algorithm : {"BFS_CL", "BFS_DL", "BFS_WL", "BFS_WSL"}) {
    BFSOptions options;
    options.num_threads = 8;
    options.parent_claim_dedup = true;
    expect_correct(algorithm, graph, options, "parent_claim");
  }
}

TEST(ParentClaim, SkipCounterOnlyMovesWhenEnabled) {
  const CsrGraph graph = CsrGraph::from_edges(gen::rmat(10, 32, 9));
  BFSOptions off;
  off.num_threads = 4;
  auto plain = make_bfs("BFS_CL", graph, off);
  BFSResult r1;
  plain->run(0, r1);
  EXPECT_EQ(r1.claim_skips, 0u);

  BFSOptions on = off;
  on.parent_claim_dedup = true;
  auto claimed = make_bfs("BFS_CL", graph, on);
  BFSResult r2;
  claimed->run(0, r2);
  // Every visited vertex is explored at least once even with claims on
  // (the claimed copy always passes its own check).
  EXPECT_GE(r2.vertices_explored, r2.vertices_visited);
  const auto report = verify_against_serial(graph, 0, r2);
  EXPECT_TRUE(report.ok) << report.error;
}

// ---- §IV-D atomic-bitmap dedup (Baseline2's trick on our engines) ----

TEST(VisitedBitmap, CorrectAndEliminatesDuplicates) {
  const CsrGraph graph = CsrGraph::from_edges(gen::rmat(11, 64, 9));
  for (const char* algorithm :
       {"BFS_C", "BFS_CL", "BFS_DL", "BFS_WL", "BFS_WSL"}) {
    BFSOptions options;
    options.num_threads = 8;
    options.visited_bitmap_dedup = true;
    options.record_level_sizes = true;
    auto engine = make_bfs(algorithm, graph, options);
    for (const vid_t source : sample_sources(graph, 2, 7)) {
      BFSResult result;
      engine->run(source, result);
      const auto report = verify_against_serial(graph, source, result);
      ASSERT_TRUE(report.ok) << algorithm << ": " << report.error;
      // The fetch_or claim admits each vertex into exactly one queue
      // (and the seed adds the source once), so every level's queue
      // entries are exactly that level's vertices: no duplicate
      // *entries*. Duplicate *explorations* remain possible for the
      // lock-free engines — the read-then-clear race on a slot and the
      // WL owner walking into a thief's range both pop one entry twice
      // (FrontierQueues::consume_in, §IV-B2).
      std::vector<std::uint64_t> per_level;
      for (const level_t l : result.level) {
        if (l == kUnvisited) continue;
        if (static_cast<std::size_t>(l) >= per_level.size()) {
          per_level.resize(static_cast<std::size_t>(l) + 1, 0);
        }
        ++per_level[static_cast<std::size_t>(l)];
      }
      EXPECT_EQ(result.level_sizes, per_level) << algorithm;
      // BFS_C's segments are disjoint under the global lock, so with
      // single entries nothing is popped twice.
      if (std::string_view(algorithm) == "BFS_C") {
        EXPECT_EQ(result.duplicate_explorations(), 0u) << algorithm;
      }
    }
  }
}

TEST(VisitedBitmap, ComposesWithOtherOptions) {
  const CsrGraph graph = hotspot_graph();
  BFSOptions options;
  options.num_threads = 8;
  options.visited_bitmap_dedup = true;
  options.serial_frontier_cutoff = 8;
  options.numa_aware = true;
  options.num_sockets = 2;
  expect_correct("BFS_WSL", graph, options, "bitmap+hybrid+numa");
}

// ---- clearing-trick ablation ----

TEST(ClearingAblation, StillCorrectWithoutClearing) {
  const CsrGraph graph = hotspot_graph();
  for (const char* algorithm : {"BFS_CL", "BFS_DL", "BFS_WL", "BFS_WSL"}) {
    BFSOptions options;
    options.num_threads = 8;
    options.clear_slots = false;
    expect_correct(algorithm, graph, options, "no_clearing");
  }
}

// ---- scale-free phase-2 modes and thresholds ----

TEST(ScaleFree, StealingPhase2Correct) {
  const CsrGraph graph = hotspot_graph();
  for (const char* algorithm : {"BFS_WS", "BFS_WSL"}) {
    BFSOptions options;
    options.num_threads = 8;
    options.phase2 = Phase2Mode::kStealing;
    expect_correct(algorithm, graph, options, "phase2=stealing");
  }
}

class ThresholdSweep : public ::testing::TestWithParam<vid_t> {};

TEST_P(ThresholdSweep, AnyThresholdCorrect) {
  const CsrGraph graph = hotspot_graph();
  BFSOptions options;
  options.num_threads = 4;
  options.degree_threshold = GetParam();
  for (const char* algorithm : {"BFS_WS", "BFS_WSL"}) {
    expect_correct(algorithm, graph, options,
                   "threshold=" + std::to_string(GetParam()));
  }
}

// threshold 1: nearly everything defers to phase 2; huge: never defers.
INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(1u, 4u, 32u, 1000000u));

// ---- §IV-C NUMA-aware policies ----

TEST(NumaPolicy, SocketLocalPoliciesCorrect) {
  const CsrGraph graph = hotspot_graph();
  for (int sockets : {2, 4}) {
    for (const char* algorithm : {"BFS_DL", "BFS_WL", "BFS_WSL", "BFS_W"}) {
      BFSOptions options;
      options.num_threads = 8;
      options.numa_aware = true;
      options.num_sockets = sockets;
      options.dl_pools = 4;
      expect_correct(algorithm, graph, options,
                     "sockets=" + std::to_string(sockets));
    }
  }
}

// ---- steal budget extremes ----

TEST(StealBudget, TinyAndHugeBudgetsCorrect) {
  const CsrGraph graph = hotspot_graph();
  for (int factor : {1, 64}) {
    for (const char* algorithm : {"BFS_W", "BFS_WL", "BFS_DL"}) {
      BFSOptions options;
      options.num_threads = 8;
      options.steal_attempt_factor = factor;
      expect_correct(algorithm, graph, options,
                     "c=" + std::to_string(factor));
    }
  }
}

// ---- hybrid direction optimization (`*_H` variants) ----

TEST(HybridDirection, EveryVariantMatchesSerialOnHybridZoo) {
  for (const test::NamedGraph& entry : test::hybrid_direction_zoo()) {
    for (const auto& algorithm : hybrid_algorithms()) {
      BFSOptions options;
      options.num_threads = 8;
      expect_correct(algorithm, entry.graph, options,
                     "hybrid_zoo:" + entry.name);
    }
  }
}

TEST(HybridDirection, ActuallySwitchesBottomUpOnDenseGraphs) {
  // Dense RMAT: the alpha rule must fire. The top-down twin must
  // report zero bottom-up levels on the very same graph.
  const CsrGraph graph = CsrGraph::from_edges(gen::rmat(11, 32, 5));
  BFSOptions options;
  options.num_threads = 8;
  auto hybrid = make_bfs("BFS_CL_H", graph, options);
  BFSResult result;
  hybrid->run(0, result);
  EXPECT_GE(result.bottom_up_levels, 1u);
  EXPECT_TRUE(verify_against_serial(graph, 0, result).ok);

  auto top_down = make_bfs("BFS_CL", graph, options);
  top_down->run(0, result);
  EXPECT_EQ(result.bottom_up_levels, 0u);
}

TEST(HybridDirection, DisconnectedGraphTerminatesAndSwitches) {
  // Force the switch with an aggressive alpha: bottom-up levels scan
  // the unreachable half every time and must leave it unvisited.
  EdgeList edges = gen::complete(60);
  edges.ensure_vertices(120);
  const EdgeList other = gen::complete(60);
  for (const Edge& e : other.edges()) {
    edges.add_unchecked(e.src + 60, e.dst + 60);
  }
  const CsrGraph graph = CsrGraph::from_edges(edges);
  BFSOptions options;
  options.num_threads = 8;
  options.alpha = 1000000;  // switch as soon as the frontier grows
  auto engine = make_bfs("BFS_WSL_H", graph, options);
  BFSResult result;
  engine->run(3, result);
  EXPECT_GE(result.bottom_up_levels, 1u);
  EXPECT_EQ(result.vertices_visited, 60u);
  const auto report = verify_against_serial(graph, 3, result);
  EXPECT_TRUE(report.ok) << report.error;
}

TEST(HybridDirection, ZeroOutDegreeSourceAndSingleVertex) {
  // Source with no out-edges: one level, one vertex, no switch drama.
  EdgeList edges(257);
  for (vid_t i = 1; i < 257; ++i) edges.add_unchecked(i, 0);
  const CsrGraph reverse_star = CsrGraph::from_edges(edges);
  const CsrGraph single = CsrGraph::from_edges(EdgeList(1));
  for (const auto& algorithm : hybrid_algorithms()) {
    BFSOptions options;
    options.num_threads = 4;
    auto engine = make_bfs(algorithm, reverse_star, options);
    BFSResult result;
    engine->run(0, result);
    EXPECT_EQ(result.vertices_visited, 1u) << algorithm;
    EXPECT_EQ(result.num_levels, 1) << algorithm;

    auto tiny = make_bfs(algorithm, single, options);
    tiny->run(0, result);
    EXPECT_EQ(result.vertices_visited, 1u) << algorithm;
    EXPECT_EQ(result.bottom_up_levels, 0u) << algorithm;
  }
}

TEST(HybridDirection, AlphaBetaEdgeValues) {
  const CsrGraph graph = CsrGraph::from_edges(gen::rmat(10, 16, 5));
  struct Extreme {
    int alpha;
    int beta;
    const char* what;
  };
  const Extreme extremes[] = {
      {0, 18, "alpha=0 disables bottom-up"},
      {1 << 30, 18, "huge alpha switches asap"},
      {15, 0, "beta=0 switches back after one level"},
      {15, 1 << 30, "huge beta stays bottom-up to the end"},
      {1 << 30, 1 << 30, "both huge"},
  };
  for (const Extreme& e : extremes) {
    BFSOptions options;
    options.num_threads = 8;
    options.alpha = e.alpha;
    options.beta = e.beta;
    expect_correct("BFS_CL_H", graph, options, e.what);
    expect_correct("BFS_WSL_H", graph, options, e.what);
  }
  // alpha=0 must behave exactly like top-down.
  BFSOptions off;
  off.num_threads = 8;
  off.alpha = 0;
  auto engine = make_bfs("BFS_CL_H", graph, off);
  BFSResult result;
  engine->run(0, result);
  EXPECT_EQ(result.bottom_up_levels, 0u);
}

TEST(HybridDirection, ComposesWithEveryOtherOption) {
  const CsrGraph graph = hotspot_graph();
  BFSOptions options;
  options.num_threads = 8;
  options.parent_claim_dedup = true;
  options.serial_frontier_cutoff = 8;
  options.numa_aware = true;
  options.num_sockets = 2;
  options.degree_threshold = 16;
  expect_correct("BFS_WSL_H", graph, options, "hybrid+claims+serial+numa");

  BFSOptions bitmap = options;
  bitmap.parent_claim_dedup = false;
  bitmap.visited_bitmap_dedup = true;
  expect_correct("BFS_WSL_H", graph, bitmap, "hybrid+bitmap");

  BFSOptions no_clearing;
  no_clearing.num_threads = 8;
  no_clearing.clear_slots = false;
  for (const char* algorithm : {"BFS_CL_H", "BFS_DL_H", "BFS_WL_H",
                                "BFS_WSL_H"}) {
    expect_correct(algorithm, graph, no_clearing, "hybrid+no_clearing");
  }
}

TEST(HybridDirection, EdgeBalancedSegmentsCorrect) {
  const CsrGraph graph = hotspot_graph();
  for (const char* algorithm : {"BFS_C", "BFS_CL", "BFS_DL", "BFS_CL_H"}) {
    BFSOptions options;
    options.num_threads = 8;
    options.edge_balanced_segments = true;
    expect_correct(algorithm, graph, options, "edge_balanced");
  }
}

// ---- combined extremes ----

TEST(Combinations, EverythingOnAtOnce) {
  const CsrGraph graph = hotspot_graph();
  BFSOptions options;
  options.num_threads = 8;
  options.parent_claim_dedup = true;
  options.numa_aware = true;
  options.num_sockets = 2;
  options.phase2 = Phase2Mode::kStealing;
  options.degree_threshold = 16;
  options.dl_pools = 3;
  for (const auto& algorithm : paper_algorithms()) {
    expect_correct(algorithm, graph, options, "everything_on");
  }
}

}  // namespace
}  // namespace optibfs
