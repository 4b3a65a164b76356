#include "reference.hpp"

#include <algorithm>
#include <thread>

namespace perfbench {

namespace {

/// Runs body(begin, end) over [0, n) split into `threads` chunks.
template <typename Body>
void parallel_chunks(std::uint64_t n, int threads, Body body) {
  threads = std::max(1, threads);
  std::vector<std::thread> pool;
  const std::uint64_t chunk = (n + threads - 1) / threads;
  for (int t = 0; t < threads; ++t) {
    const std::uint64_t begin = std::min(n, chunk * t);
    const std::uint64_t end = std::min(n, begin + chunk);
    pool.emplace_back([=] { body(t, begin, end); });
  }
  for (auto& th : pool) th.join();
}

}  // namespace

RefGraph RefGraph::build(vid_t n, const Edges& edges, int threads) {
  RefGraph g;
  g.n = n;
  g.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) ++g.offsets[u + 1];
  for (vid_t v = 0; v < n; ++v) g.offsets[v + 1] += g.offsets[v];
  g.targets.resize(edges.size());
  std::vector<std::uint64_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (const auto& [u, v] : edges) g.targets[cursor[u]++] = v;
  parallel_chunks(n, threads, [&](int, std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t v = begin; v < end; ++v) {
      std::sort(g.targets.begin() + static_cast<std::ptrdiff_t>(g.offsets[v]),
                g.targets.begin() + static_cast<std::ptrdiff_t>(g.offsets[v + 1]));
    }
  });
  return g;
}

bool RefGraph::has_edge(vid_t u, vid_t v) const {
  const auto first = targets.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
  const auto last = targets.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
  return std::binary_search(first, last, v);
}

std::vector<level_t> ref_bfs(const RefGraph& g, vid_t source) {
  std::vector<level_t> level(g.n, kUnreached);
  std::vector<vid_t> queue;
  queue.reserve(1024);
  level[source] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const vid_t u = queue[head];
    for (std::uint64_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
      const vid_t v = g.targets[e];
      if (level[v] == kUnreached) {
        level[v] = level[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return level;
}

std::uint64_t reached_edges(const RefGraph& g,
                            const std::vector<level_t>& levels) {
  std::uint64_t edges = 0;
  for (vid_t v = 0; v < g.n; ++v) {
    if (levels[v] != kUnreached) edges += g.degree(v);
  }
  return edges;
}

std::string check_traversal(const RefGraph& g, const std::vector<level_t>& ref,
                            vid_t source, const optibfs::BFSResult& result,
                            int threads) {
  if (result.level.size() != g.n || result.parent.size() != g.n) {
    return "result arrays have the wrong size";
  }
  if (result.parent[source] != source) return "parent[source] != source";
  std::vector<std::string> faults(static_cast<std::size_t>(std::max(1, threads)));
  parallel_chunks(g.n, threads, [&](int t, std::uint64_t begin,
                                    std::uint64_t end) {
    for (std::uint64_t i = begin; i < end; ++i) {
      const auto v = static_cast<vid_t>(i);
      const level_t want = ref[v] == kUnreached ? optibfs::kUnvisited : ref[v];
      if (result.level[v] != want) {
        faults[t] = "level of vertex " + std::to_string(v) + " is " +
                    std::to_string(result.level[v]) + ", expected " +
                    std::to_string(want);
        return;
      }
      if (ref[v] == kUnreached || v == source) continue;
      const vid_t u = result.parent[v];
      if (u >= g.n || ref[u] != ref[v] - 1 || !g.has_edge(u, v)) {
        faults[t] = "parent of vertex " + std::to_string(v) +
                    " is not an in-neighbour one level up";
        return;
      }
    }
  });
  for (const auto& f : faults)
    if (!f.empty()) return f;
  return {};
}

Components::Components(vid_t n, const Edges& edges)
    : parent_(n), size_(n, 1) {
  for (vid_t v = 0; v < n; ++v) parent_[v] = v;
  for (const auto& [u, v] : edges) {
    vid_t a = find(u), b = find(v);
    if (a == b) continue;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }
}

vid_t Components::find(vid_t v) {
  while (parent_[v] != v) {
    parent_[v] = parent_[parent_[v]];
    v = parent_[v];
  }
  return v;
}

std::string check_component(Components& cc, vid_t v, vid_t label,
                            std::uint64_t size) {
  if (label >= cc.n() || cc.find(label) != cc.find(v)) {
    return "component label of vertex " + std::to_string(v) +
           " lies outside its component";
  }
  if (cc.size_of(v) != size) {
    return "component of vertex " + std::to_string(v) + " has size " +
           std::to_string(cc.size_of(v)) + ", answer said " +
           std::to_string(size);
  }
  return {};
}

std::vector<std::uint32_t> ref_core_numbers(vid_t n, const Edges& edges) {
  // Undirected multigraph adjacency: each directed edge counts at both ends.
  std::vector<std::uint64_t> off(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    ++off[u + 1];
    ++off[v + 1];
  }
  for (vid_t v = 0; v < n; ++v) off[v + 1] += off[v];
  std::vector<vid_t> adj(off[n]);
  std::vector<std::uint64_t> cur(off.begin(), off.end() - 1);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    adj[cur[u]++] = v;
    adj[cur[v]++] = u;
  }
  // Batagelj-Zaversnik: vertices bucketed by current degree.
  std::vector<std::uint32_t> deg(n);
  std::uint32_t max_deg = 0;
  for (vid_t v = 0; v < n; ++v) {
    deg[v] = static_cast<std::uint32_t>(off[v + 1] - off[v]);
    max_deg = std::max(max_deg, deg[v]);
  }
  std::vector<std::uint64_t> bin(static_cast<std::size_t>(max_deg) + 1, 0);
  for (vid_t v = 0; v < n; ++v) ++bin[deg[v]];
  std::uint64_t start = 0;
  for (auto& b : bin) {
    const std::uint64_t count = b;
    b = start;
    start += count;
  }
  std::vector<vid_t> order(n);
  std::vector<std::uint64_t> pos(n);
  for (vid_t v = 0; v < n; ++v) {
    pos[v] = bin[deg[v]]++;
    order[pos[v]] = v;
  }
  for (std::uint32_t d = max_deg; d > 0; --d) bin[d] = bin[d - 1];
  if (!bin.empty()) bin[0] = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const vid_t v = order[i];
    for (std::uint64_t e = off[v]; e < off[v + 1]; ++e) {
      const vid_t u = adj[e];
      if (deg[u] > deg[v]) {
        const std::uint32_t du = deg[u];
        const std::uint64_t pu = pos[u];
        const std::uint64_t pw = bin[du];
        const vid_t w = order[pw];
        if (u != w) {
          order[pu] = w;
          pos[w] = pu;
          order[pw] = u;
          pos[u] = pw;
        }
        ++bin[du];
        --deg[u];
      }
    }
  }
  return deg;
}

EdgeModel::EdgeModel(vid_t n, const Edges& edges) : n_(n), out_(n) {
  for (const auto& [u, v] : edges) insert(u, v);
}

bool EdgeModel::insert(vid_t u, vid_t v) {
  const std::uint64_t k = key(u, v);
  if (!index_.emplace(k, edges_.size()).second) return false;
  edges_.push_back(k);
  out_[u].push_back(v);
  return true;
}

bool EdgeModel::erase(vid_t u, vid_t v) {
  const auto it = index_.find(key(u, v));
  if (it == index_.end()) return false;
  const std::size_t i = it->second;
  index_.erase(it);
  if (i + 1 != edges_.size()) {
    edges_[i] = edges_.back();
    index_[edges_[i]] = i;
  }
  edges_.pop_back();
  auto& list = out_[u];
  list.erase(std::find(list.begin(), list.end(), v));
  return true;
}

Edges EdgeModel::edge_list() const {
  Edges out;
  out.reserve(edges_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) out.push_back(edge_at(i));
  return out;
}

std::vector<level_t> EdgeModel::bfs(vid_t source) const {
  std::vector<level_t> level(n_, kUnreached);
  std::vector<vid_t> queue{source};
  level[source] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const vid_t u = queue[head];
    for (const vid_t v : out_[u]) {
      if (level[v] == kUnreached) {
        level[v] = level[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return level;
}

}  // namespace perfbench
