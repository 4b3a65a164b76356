// perfbench: the repository benchmark driver.
//
//   perfbench --workload road|scalefree|serve --seed N --seconds S
//             --trace 0|1 [--engines A,B,...]
//   perfbench --selftest
//
// Every workload runs the same pipeline on its own inputs:
//   1. generate inputs from the seed (not timed);
//   2. ingest: build the traversal graph's CSR and write it as a binary
//      CSR v2 file (not timed; a one-off conversion);
//   3. set-up (setup_s): mmap-load that file, construct the engines,
//      build the tenant graphs, start ScaleoutService, register tenants;
//   4. traversal phase: many-source BFS by every measured engine;
//   5. serving phase: closed loop, then open loop, with updates/watches;
//   6. checks against the benchmark's own reference computations.
// The last stdout line is the JSON result. --trace 1 prints per-layer
// metrics instead of end-to-end ones and writes the recorded spans to
// .bench_out/trace-<workload>.json.
#include <filesystem>
#include <thread>

#include "core/registry.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using optibfs::CsrGraph;
using optibfs::EdgeList;

/// Generated graph files and traces (in .gitignore).
const std::string kOutDir = ".bench_out";

/// Graph500 R-MAT (a=.45, b=.15, c=.15), 2^scale vertices and
/// edge_factor * 2^scale directed edges, multi-edges and self-loops
/// kept. Each edge draws from its own counter-seeded stream, so the
/// list does not depend on the thread count.
EdgeList rmat(int scale, int edge_factor, std::uint64_t seed, int threads) {
  const vid_t n = vid_t{1} << scale;
  const std::uint64_t m = static_cast<std::uint64_t>(edge_factor) * n;
  EdgeList out(n);
  out.edges().resize(m);
  // Quadrant thresholds on 16-bit draws; four levels per 64-bit word.
  constexpr double kScale = 65536.0;
  const auto ta = static_cast<std::uint32_t>(0.45 * kScale);
  const auto tb = static_cast<std::uint32_t>(0.60 * kScale);
  const auto tc = static_cast<std::uint32_t>(0.75 * kScale);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const std::uint64_t end = m * static_cast<std::uint64_t>(t + 1) / threads;
      for (std::uint64_t e = m * static_cast<std::uint64_t>(t) / threads; e < end;
           ++e) {
        Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ (e * 0xd1b54a32d192ed03ULL));
        vid_t u = 0, v = 0;
        std::uint64_t bits = 0;
        for (int level = 0; level < scale; ++level) {
          if (level % 4 == 0) bits = rng.next();
          const auto r = static_cast<std::uint32_t>((bits >> (16 * (level % 4))) & 0xffff);
          const vid_t bit = vid_t{1} << level;
          // a: neither bit; b: v's bit; c: u's bit; d: both (branch-free).
          u |= bit * (r >= tb);
          v |= bit * (((r >= ta) & (r < tb)) | (r >= tc));
        }
        out.edges()[e] = {u, v};
      }
    });
  }
  for (auto& th : pool) th.join();
  return out;
}

/// Simple digraph: self-loops and repeated edges removed.
Edges simple(const EdgeList& raw) {
  Edges edges;
  edges.reserve(raw.num_edges());
  for (const optibfs::Edge& e : raw.edges())
    if (e.src != e.dst) edges.push_back(e);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

EdgeList as_edge_list(vid_t n, const Edges& edges) {
  EdgeList out(n);
  out.edges() = edges;
  return out;
}

struct TenantInput {
  std::string name;
  EdgeList raw;
  double mix = 1.0;  ///< share of queries, relative to the other tenants
};

/// The inputs of one workload, all derived from the seed.
struct Inputs {
  EdgeList traversal;
  int sources = 16;
  std::vector<TenantInput> tenants;
};

EdgeList road_graph(std::uint64_t seed) {
  return optibfs::gen::path_with_chords(50000, 5000, 64, seed);
}
EdgeList scalefree_tenant(std::uint64_t seed, int threads) {
  return rmat(14, 16, seed, threads);
}

Inputs make_inputs(const std::string& workload, std::uint64_t seed, int threads) {
  Inputs in;
  if (workload == "road") {
    in.traversal = road_graph(seed);
    in.sources = 8;
    in.tenants.push_back({"road", road_graph(seed)});
  } else if (workload == "scalefree") {
    in.traversal = rmat(22, 20, seed, threads);
    in.sources = 4;
    in.tenants.push_back({"scalefree", scalefree_tenant(seed + 1, threads)});
  } else if (workload == "serve") {
    // bench_scaleout's 50/30/20 mix over social R-MAT / web ER / mesh;
    // the road-like tenant takes the low-degree mesh's share.
    in.tenants.push_back({"scalefree", scalefree_tenant(seed + 1, threads), 0.5});
    in.tenants.push_back({"road", road_graph(seed + 2), 0.2});
    in.tenants.push_back(
        {"random", optibfs::gen::erdos_renyi(32768, 262144, seed + 3), 0.3});
    in.traversal = as_edge_list(32768, simple(in.tenants.back().raw));
    in.sources = 16;
  } else {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (road, scalefree, serve)");
  }
  return in;
}

/// Stratified, seeded sources: one per equal slice of the vertex range,
/// each reaching at least a quarter of the graph. Fills the reference
/// levels and reached-edge counts alongside.
void choose_sources(TraversalSetup& t, int count, std::uint64_t seed,
                    int threads) {
  const vid_t n = t.ref.n;
  Rng rng(seed ^ 0x5eedULL);
  std::vector<vid_t> candidates(static_cast<std::size_t>(count));
  std::vector<bool> done(candidates.size(), false);
  t.sources.assign(candidates.size(), 0);
  t.ref_levels.assign(candidates.size(), {});
  for (int attempt = 0; attempt < 64; ++attempt) {
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      if (done[k]) continue;
      const vid_t lo = static_cast<vid_t>(k * n / candidates.size());
      const vid_t hi = static_cast<vid_t>((k + 1) * n / candidates.size());
      vid_t v = lo + static_cast<vid_t>(rng.below(hi - lo));
      while (t.ref.degree(v) == 0 && v + 1 < hi) ++v;
      candidates[k] = v;
    }
    std::vector<std::thread> pool;
    for (int w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        for (std::size_t k = static_cast<std::size_t>(w); k < candidates.size();
             k += static_cast<std::size_t>(threads)) {
          if (done[k]) continue;
          std::vector<level_t> lv = ref_bfs(t.ref, candidates[k]);
          const auto reached = static_cast<std::uint64_t>(
              std::count_if(lv.begin(), lv.end(),
                            [](level_t l) { return l != kUnreached; }));
          if (reached * 4 >= n || attempt == 63) {
            t.sources[k] = candidates[k];
            t.ref_levels[k] = std::move(lv);
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    bool all = true;
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      done[k] = done[k] || !t.ref_levels[k].empty();
      all = all && done[k];
    }
    if (all) break;
  }
  t.ref_edges.clear();
  for (const auto& lv : t.ref_levels) t.ref_edges.push_back(reached_edges(t.ref, lv));
}

/// Removes the files a run wrote, however the run ends.
struct ScratchFile {
  std::string path;
  ~ScratchFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

int run(const RunOptions& opt) {
  Tally tally;
  Tracer tracer(opt.trace);
  Metrics e2e, layer;
  std::filesystem::create_directories(kOutDir);
  const Clock::time_point started = Clock::now();
  auto progress = [&](const char* what) {
    std::fprintf(stderr, "perfbench: %7.2f s  %s\n",
                 seconds_between(started, Clock::now()), what);
  };

  // 1. Inputs.
  Inputs in = make_inputs(opt.workload, opt.seed, opt.threads);
  progress("generated");
  TraversalSetup trav;
  trav.ref = RefGraph::build(in.traversal.num_vertices(), in.traversal.edges(),
                             opt.threads);
  progress("ref built");
  choose_sources(trav, in.sources, opt.seed, opt.threads);
  ServeSetup serve;
  std::vector<EdgeList> tenant_lists;
  for (TenantInput& t : in.tenants) {
    TenantSetup ts;
    ts.name = t.name;
    ts.mix = t.mix;
    ts.n = t.raw.num_vertices();
    ts.edges = simple(t.raw);
    tenant_lists.push_back(as_edge_list(ts.n, ts.edges));
    serve.tenants.push_back(std::move(ts));
  }
  in.tenants.clear();

  progress("inputs and reference ready");

  // 2. Ingest.
  ScratchFile file{kOutDir + "/" + opt.workload + "-" +
                   std::to_string(opt.seed) + ".csr"};
  {
    const CsrGraph built = CsrGraph::from_edges(in.traversal);
    in.traversal = EdgeList();
    const Clock::time_point t0 = Clock::now();
    optibfs::io::write_binary_csr(file.path, built);
    tracer.span("storage.write_binary_csr", t0, Clock::now());
  }

  progress("ingest done");

  // 3. Set-up: what a user pays before the first answer.
  const Clock::time_point setup0 = Clock::now();
  optibfs::io::CsrLoadOptions load;
  load.storage = optibfs::storage::StorageKind::kMmap;
  trav.graph = std::make_unique<CsrGraph>(optibfs::io::read_binary_csr(file.path, load));
  const Clock::time_point loaded = Clock::now();
  const int setup_span = tracer.span("setup", setup0, setup0);
  tracer.span("storage.mmap_load", setup0, loaded, setup_span);
  optibfs::BFSOptions bfs;
  bfs.num_threads = opt.threads;
  double make_bfs_s = 0;
  for (const std::string& name : opt.engines) {
    const Clock::time_point t0 = Clock::now();
    trav.engines.push_back(optibfs::make_bfs(name, *trav.graph, bfs));
    const Clock::time_point t1 = Clock::now();
    tracer.span("core.make_bfs", t0, t1, setup_span);
    make_bfs_s += seconds_between(t0, t1);
  }
  double build_s = 0;
  for (std::size_t i = 0; i < serve.tenants.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    serve.tenants[i].graph =
        std::make_shared<const CsrGraph>(CsrGraph::from_edges(tenant_lists[i]));
    const Clock::time_point t1 = Clock::now();
    tracer.span("graph.from_edges", t0, t1, setup_span);
    build_s += seconds_between(t0, t1);
  }
  optibfs::scaleout::ScaleoutConfig config;
  config.replicas = std::max(1, opt.threads / 4);
  config.threads_per_replica = 1;
  {
    const Clock::time_point t0 = Clock::now();
    serve.service = std::make_unique<optibfs::scaleout::ScaleoutService>(config);
    for (TenantSetup& t : serve.tenants) {
      t.id = serve.service->register_tenant(t.name, t.graph);
    }
    tracer.span("scaleout.register", t0, Clock::now(), setup_span);
  }
  const Clock::time_point setup1 = Clock::now();
  tracer.close(setup_span, setup1);
  e2e.set("setup_s", seconds_between(setup0, setup1), "s");
  layer.set("graph.build_s", build_s, "s");
  layer.set("storage.load_s", seconds_between(setup0, loaded), "s");
  layer.set("core.make_bfs_s", make_bfs_s, "s");
  tenant_lists.clear();

  progress("set-up done");

  // 4-6. Measured phases, each checked as it goes or at its end.
  run_traversal(opt, trav, 0.7 * opt.seconds, tracer, e2e, layer, tally);
  progress("traversal phase done");
  run_serve(opt, serve, 0.3 * opt.seconds, tracer, layer, tally);
  progress("serving phase done");
  serve.service.reset();

  if (opt.trace) {
    const std::string path = kOutDir + "/trace-" + opt.workload + ".json";
    if (!tracer.write_chrome_trace(path)) {
      std::fprintf(stderr, "perfbench: failed to write %s\n", path.c_str());
    }
    std::printf("traced end-to-end: %s\n", e2e.json().c_str());
    std::printf("spans: %zu (%s)\n", tracer.size(), path.c_str());
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::fprintf(stderr, "perfbench: %s seed %llu, peak RSS %ld MiB\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               usage.ru_maxrss / 1024);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              tally.correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              (opt.trace ? layer : e2e).json().c_str());
  return 0;
}

/// Shows that the checker rejects a corrupted level and a wrong
/// component, and accepts the engines' real output.
int selftest() {
  const EdgeList raw = rmat(10, 8, 7, 2);
  const Edges edges = simple(raw);
  const vid_t n = raw.num_vertices();
  const RefGraph ref = RefGraph::build(n, raw.edges(), 2);
  const CsrGraph graph = CsrGraph::from_edges(raw);
  optibfs::BFSOptions bfs;
  bfs.num_threads = 2;
  auto engine = optibfs::make_bfs("BFS_CL", graph, bfs);
  vid_t source = 0;
  while (ref.degree(source) == 0) ++source;
  const std::vector<level_t> levels = ref_bfs(ref, source);
  optibfs::BFSResult out = engine->run(source);

  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%-48s %s\n", what, ok ? "ok" : "FAILED");
    failures += ok ? 0 : 1;
  };
  expect(check_traversal(ref, levels, source, out, 2).empty(),
         "accepts the engine's traversal");
  vid_t far = 0;
  for (vid_t v = 0; v < n; ++v)
    if (levels[v] > levels[far]) far = v;
  out.level[far] += 1;
  expect(!check_traversal(ref, levels, source, out, 2).empty(),
         "rejects one corrupted level");
  out.level[far] -= 1;
  out.parent[far] = far;
  expect(!check_traversal(ref, levels, source, out, 2).empty(),
         "rejects a parent that is not an in-neighbour");

  Components cc(n, edges);
  vid_t isolated = 0;
  while (isolated < n && cc.size_of(isolated) != 1) ++isolated;
  expect(check_component(cc, source, source, cc.size_of(source)).empty(),
         "accepts the right component");
  expect(!check_component(cc, source, source, cc.size_of(source) + 1).empty(),
         "rejects a wrong component size");
  expect(isolated < n && !check_component(cc, source, isolated,
                                          cc.size_of(source)).empty(),
         "rejects a label from another component");
  return failures == 0 ? 0 : 1;
}

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  opt.threads = perfbench::nproc();
  opt.engines = {"BFS_CL", "BFS_WSL", "BFS_CL_H", "BFS_ASYNC"};
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : "";
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (arg == "--trace") {
      opt.trace = std::atoi(value) != 0;
    } else if (arg == "--engines") {
      opt.engines = perfbench::split(value);
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
    ++i;
  }
  try {
    if (selftest) return perfbench::selftest();
    if (opt.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
