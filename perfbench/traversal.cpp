// Traversal phase: many-source BFS by each measured engine on the
// workload's traversal graph, every run checked against the reference.
#include <algorithm>

#include "core/bfs_result.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr double kWarmupSeconds = 2.0;

/// Sums over every timed traversal of one engine.
struct EngineTotals {
  std::vector<std::vector<double>> mteps;  ///< [source][round]
  double seconds = 0;
  double explored = 0, visited = 0, scanned = 0, useful_edges = 0;
  double levels = 0, bottom_up = 0, barrier_spins = 0;
  double steals_ok = 0, steals_tried = 0, async_wasted = 0;
  double runs = 0;
};

void record(EngineTotals& t, std::size_t source, const optibfs::BFSResult& r,
            double seconds, std::uint64_t useful_edges) {
  using namespace optibfs::telemetry;
  t.mteps.resize(std::max(t.mteps.size(), source + 1));
  t.mteps[source].push_back(static_cast<double>(useful_edges) / seconds / 1e6);
  ++t.runs;
  t.seconds += seconds;
  t.explored += static_cast<double>(r.vertices_explored);
  t.visited += static_cast<double>(r.vertices_visited);
  t.scanned += static_cast<double>(r.edges_scanned);
  t.useful_edges += static_cast<double>(useful_edges);
  t.levels += r.num_levels;
  t.bottom_up += static_cast<double>(r.bottom_up_levels);
  t.barrier_spins += static_cast<double>(r.counters[kBarrierSpins]);
  t.steals_ok += static_cast<double>(r.steal_stats.successful);
  t.steals_tried += static_cast<double>(
      r.steal_stats.successful + r.steal_stats.failed_victim_locked +
      r.steal_stats.failed_victim_idle + r.steal_stats.failed_segment_too_small +
      r.steal_stats.failed_stale_segment + r.steal_stats.failed_invalid_segment);
  t.async_wasted += static_cast<double>(r.counters[kAsyncWastedRelaxations]);
}

}  // namespace

void run_traversal(const RunOptions& opt, TraversalSetup& setup,
                   double budget_s, Tracer& tracer, Metrics& e2e,
                   Metrics& layer, Tally& tally) {
  const std::size_t engines = setup.engines.size();
  std::vector<EngineTotals> totals(engines);
  optibfs::BFSResult out;

  // Minor faults taken inside the engines' run calls only: the check
  // below starts threads and allocates, which must not count.
  std::uint64_t faults = 0;
  auto checked_run = [&](std::size_t e, std::size_t s) {
    const std::uint64_t faults_before = minor_faults();
    const Clock::time_point t0 = Clock::now();
    setup.engines[e]->run(setup.sources[s], out);
    const Clock::time_point t1 = Clock::now();
    faults += minor_faults() - faults_before;
    tracer.span(opt.engines[e].c_str(), t0, t1);
    ++tally.attempted;
    const std::string fault = check_traversal(
        setup.ref, setup.ref_levels[s], setup.sources[s], out, opt.threads);
    if (!fault.empty()) tally.fault(opt.engines[e] + ": " + fault);
    return seconds_between(t0, t1);
  };

  // Untimed warm-up, in round order, until every engine has run once and
  // kWarmupSeconds have passed: maps the CSR pages in, lets each
  // engine's lazily sized buffers reach their steady size, and skips the
  // first second of the phase, in which BFS_WSL and BFS_ASYNC ran 3-4x
  // slower and BFS_CL_H 3x faster than in every later round on `road`.
  const Clock::time_point warm0 = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const std::size_t s = k / engines % setup.sources.size();
    checked_run(k % engines, s);
    if ((k + 1) % engines == 0 &&
        seconds_between(warm0, Clock::now()) >= kWarmupSeconds) {
      break;
    }
  }
  faults = 0;

  // Whole rounds only; another round starts only if it should end
  // within the budget (always at least one).
  const Clock::time_point start = Clock::now();
  for (int rounds = 1;; ++rounds) {
    for (std::size_t s = 0; s < setup.sources.size(); ++s) {
      for (std::size_t e = 0; e < engines; ++e) {
        const double seconds = checked_run(e, s);
        record(totals[e], s, out, seconds, setup.ref_edges[s]);
      }
    }
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed * (rounds + 1) / rounds > budget_s) break;
  }

  double useful_edges = 0;
  for (std::size_t e = 0; e < engines; ++e) {
    const EngineTotals& t = totals[e];
    const std::string& name = opt.engines[e];
    useful_edges += t.useful_edges;
    // Harmonic mean over the sources of each source's median round: a
    // host hiccup during one round does not move the figure.
    std::vector<double> per_source;
    for (const auto& rounds : t.mteps) per_source.push_back(median(rounds));
    e2e.set("mteps." + name, harmonic_mean(per_source), "MTEPS");
    layer.set("core.dup_ratio." + name, ratio(t.explored, t.visited), "ratio");
    layer.set("core.scan_ratio." + name, ratio(t.scanned, t.useful_edges),
              "ratio");
    layer.set("runtime.us_per_level." + name, ratio(t.seconds * 1e6, t.levels),
              "us");
    layer.set("runtime.barrier_spins_per_level." + name,
              ratio(t.barrier_spins, t.levels), "spins/level");
    if (name.ends_with("_H")) {
      layer.set("core.bottom_up_levels." + name, t.bottom_up / t.runs,
                "levels/run");
    }
    if (name == "BFS_WSL") {
      layer.set("core.steal_success." + name,
                ratio(t.steals_ok, t.steals_tried), "ratio");
    }
    if (name == "BFS_ASYNC") {
      layer.set("core.async_wasted_per_visit." + name,
                ratio(t.async_wasted, t.visited), "ratio");
    }
  }
  layer.set("storage.minflt_per_medge",
            ratio(static_cast<double>(faults), useful_edges / 1e6),
            "faults/Medge");
}

}  // namespace perfbench
