// The benchmark's own reference computations. None of this calls the
// library's traversal, CSR or kernel code: answers from the program are
// checked against a plain queue BFS, a union-find and a bucket peeling
// written here, over adjacency the benchmark builds itself from the
// generated edge lists.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/bfs_result.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"

namespace perfbench {

using optibfs::level_t;
using optibfs::vid_t;
using Edges = std::vector<optibfs::Edge>;

inline constexpr level_t kUnreached = -1;

/// Out-adjacency with each list sorted, built by counting sort.
struct RefGraph {
  vid_t n = 0;
  std::vector<std::uint64_t> offsets;  // n + 1
  std::vector<vid_t> targets;

  static RefGraph build(vid_t n, const Edges& edges, int threads);
  std::uint64_t degree(vid_t v) const { return offsets[v + 1] - offsets[v]; }
  bool has_edge(vid_t u, vid_t v) const;
};

/// Plain FIFO-queue BFS levels from `source`.
std::vector<level_t> ref_bfs(const RefGraph& g, vid_t source);

/// Out-edges of every vertex reached in `levels` (the TEPS numerator).
std::uint64_t reached_edges(const RefGraph& g, const std::vector<level_t>& levels);

/// Checks one traversal: level[v] must equal the reference level for
/// every v, and every reached v other than the source must have a
/// parent that is an in-neighbour of v at level[v] - 1. Returns an empty
/// string when the result is correct, else a description of the first
/// fault found.
std::string check_traversal(const RefGraph& g, const std::vector<level_t>& ref,
                            vid_t source, const optibfs::BFSResult& result,
                            int threads);

/// Union-find component sizes; check_component() tests the service's
/// (label, size) answer for `v`: the label must lie in v's component and
/// the size must match.
class Components {
 public:
  Components(vid_t n, const Edges& edges);
  vid_t n() const { return static_cast<vid_t>(parent_.size()); }
  vid_t find(vid_t v);
  std::uint64_t size_of(vid_t v) { return size_[find(v)]; }

 private:
  std::vector<vid_t> parent_;
  std::vector<std::uint64_t> size_;
};
std::string check_component(Components& cc, vid_t v, vid_t label,
                            std::uint64_t size);

/// Core numbers of the multigraph in which every directed edge u -> v
/// (u != v) adds v to u's neighbours and u to v's (bucket peeling).
std::vector<std::uint32_t> ref_core_numbers(vid_t n, const Edges& edges);

/// A directed simple graph under inserts and deletes: the serve
/// workload's model of one tenant, advanced from its own update log.
class EdgeModel {
 public:
  EdgeModel(vid_t n, const Edges& edges);
  vid_t n() const { return n_; }
  bool contains(vid_t u, vid_t v) const { return index_.count(key(u, v)) != 0; }
  /// Returns true when the edge set changed.
  bool insert(vid_t u, vid_t v);
  bool erase(vid_t u, vid_t v);
  std::size_t size() const { return edges_.size(); }
  optibfs::Edge edge_at(std::size_t i) const {
    return {static_cast<vid_t>(edges_[i] >> 32),
            static_cast<vid_t>(edges_[i] & 0xffffffffu)};
  }
  Edges edge_list() const;
  std::vector<level_t> bfs(vid_t source) const;

 private:
  static std::uint64_t key(vid_t u, vid_t v) {
    return (std::uint64_t{u} << 32) | v;
  }
  vid_t n_;
  std::vector<std::uint64_t> edges_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::vector<std::vector<vid_t>> out_;
};

}  // namespace perfbench
