// Serving phase: one ScaleoutService, load from this thread alone.
//
//   warm-up (closed loop) -> closed loop, one query outstanding per
//   replica -> open loop, Poisson arrivals at half the closed-loop rate
//
// The traffic follows bench_scaleout (EXPERIMENTS.md, open-loop
// scale-out sweep) wherever that bench fixes a parameter: Zipf(0.9)
// sources, the 50/30/20 tenant mix, one outstanding query per replica
// when calibrating capacity, an open-loop rate of 0.5x that capacity,
// eight watches, and an updater that sends its next small batch 10 ms
// after the previous one was applied, every other batch of a tenant
// shortcutting one watched pair that the batch after it restores.
// Batches are half deletes, as bench_dynamic's mixed column. Every
// answer of a deterministic sample is checked afterwards against the
// benchmark's own model of the tenant at the answer's graph version.
#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_bfs.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using optibfs::UpdateBatch;
using optibfs::Query;
using optibfs::QueryKind;
using optibfs::QueryResult;
using optibfs::scaleout::WatchEvent;

/// Query sources per tenant: 8x the level rows the default 64 MiB
/// cache holds for the largest-row-count tenant (16,384 vertices, 64 KiB
/// a row), so popular sources hit and the tail misses.
constexpr std::size_t kPoolSize = 8192;
constexpr double kZipfExponent = 0.9;
constexpr int kWindowPerReplica = 1;  ///< closed-loop outstanding queries
constexpr double kOpenLoad = 0.5;     ///< open-loop rate / closed-loop qps
constexpr auto kUpdateGap = std::chrono::milliseconds(10);
constexpr int kUpdateEdges = 3;       ///< inserts, and as many deletes
constexpr int kWatches = 8;           ///< over the tenants, round robin
constexpr auto kPoll = std::chrono::milliseconds(1);  ///< open-loop idle poll
constexpr std::uint64_t kCheckEvery = 4;   ///< distance/path answers checked
constexpr std::uint64_t kRowEvery = 64;    ///< ... with their whole level row
constexpr int kRecomputeSources = 32;      ///< replica.recompute_ms samples

bool is_kernel(QueryKind kind) {
  return kind == QueryKind::kComponents || kind == QueryKind::kCoreNumber;
}

/// Generator-side state of one tenant.
struct TenantLoad {
  std::vector<vid_t> pool;
  EdgeModel live;  ///< the edge set after every batch submitted so far
  std::vector<std::pair<vid_t, vid_t>> watch_pairs;
  std::vector<optibfs::scaleout::WatchTicket> tickets;
  std::vector<UpdateBatch> log;  ///< batches in submission order
  std::uint64_t inserted = 0, deleted = 0;
  std::size_t next_shortcut = 0;  ///< watch pair the next shortcut uses
  std::uint64_t base_version = 0;

  bool is_watch_pair(vid_t u, vid_t v) const {
    for (const auto& [s, t] : watch_pairs)
      if (s == u && t == v) return true;
    return false;
  }
};

struct Sample {
  std::size_t tenant;
  Query query;
  QueryResult result;
};

struct InFlight {
  std::size_t tenant;
  Query query;
  std::future<QueryResult> future;
  Clock::time_point due, submitted;
  std::uint64_t index;
  bool open_loop;
};

/// Waits on update futures in submission order (the mutator applies
/// them in that order) and stamps when each resolved.
class UpdateWaiter {
 public:
  struct Resolved {
    Clock::time_point submitted, resolved;
    std::uint64_t version = 0;
    bool ok = false;
  };

  UpdateWaiter() : thread_([this] { loop(); }) {}
  ~UpdateWaiter() { finish(); }
  UpdateWaiter(const UpdateWaiter&) = delete;
  UpdateWaiter& operator=(const UpdateWaiter&) = delete;

  void add(std::future<std::uint64_t> f, Clock::time_point submitted) {
    {
      std::lock_guard lock(mutex_);
      pending_.push_back({std::move(f), submitted});
    }
    ++added_;
    cv_.notify_one();
  }

  /// True once every added update has resolved, the last at least
  /// `gap` before `now`. Called by the generator thread only.
  bool idle_for(Clock::duration gap, Clock::time_point now) const {
    return resolved_count_.load(std::memory_order_acquire) == added_ &&
           now - Clock::time_point(Clock::duration(
                     last_resolved_.load(std::memory_order_relaxed))) >= gap;
  }

  /// Waits for every added update; returns them in submission order.
  std::vector<Resolved> finish() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    return resolved_;
  }

 private:
  void loop() {
    for (;;) {
      std::pair<std::future<std::uint64_t>, Clock::time_point> next;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return done_ || !pending_.empty(); });
        if (pending_.empty()) return;
        next = std::move(pending_.front());
        pending_.pop_front();
      }
      Resolved r;
      r.submitted = next.second;
      try {
        r.version = next.first.get();
        r.ok = true;
      } catch (...) {
        r.ok = false;
      }
      r.resolved = Clock::now();
      resolved_.push_back(r);  // only this thread touches it until join
      last_resolved_.store(r.resolved.time_since_epoch().count(),
                           std::memory_order_relaxed);
      resolved_count_.fetch_add(1, std::memory_order_release);
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<std::future<std::uint64_t>, Clock::time_point>> pending_;
  bool done_ = false;
  std::vector<Resolved> resolved_;
  std::size_t added_ = 0;  ///< generator thread only
  std::atomic<std::size_t> resolved_count_{0};
  std::atomic<Clock::rep> last_resolved_{0};
  std::thread thread_;  ///< last: starts after the members it uses
};

class ServeDriver {
 public:
  ServeDriver(const RunOptions& opt, ServeSetup& setup, Tracer& tracer,
              Tally& tally)
      : opt_(opt),
        setup_(setup),
        svc_(*setup.service),
        tracer_(tracer),
        tally_(tally),
        rng_(opt.seed * 0x2545f4914f6cdd1dULL + 17) {
    for (std::size_t r = 0; r < kPoolSize; ++r) {
      zipf_cdf_.push_back((r ? zipf_cdf_.back() : 0.0) +
                          1.0 / std::pow(static_cast<double>(r + 1),
                                         kZipfExponent));
    }
    for (double& c : zipf_cdf_) c /= zipf_cdf_.back();
    for (const TenantSetup& t : setup.tenants) {
      mix_cdf_.push_back((mix_cdf_.empty() ? 0.0 : mix_cdf_.back()) + t.mix);
    }
    for (double& c : mix_cdf_) c /= mix_cdf_.back();
    for (TenantSetup& t : setup.tenants) {
      loads_.push_back(TenantLoad{{}, EdgeModel(t.n, t.edges), {}, {}, {}, 0, 0,
                                  0, svc_.graph_version(t.id)});
      TenantLoad& load = loads_.back();
      for (std::size_t i = 0; i < kPoolSize; ++i) {
        load.pool.push_back(static_cast<vid_t>(rng_.below(t.n)));
      }
    }
  }

  ~ServeDriver() {
    for (std::size_t ti = 0; ti < loads_.size(); ++ti) {
      for (const auto& ticket : loads_[ti].tickets) {
        svc_.unwatch(setup_.tenants[ti].id, ticket.id);
      }
    }
  }
  ServeDriver(const ServeDriver&) = delete;
  ServeDriver& operator=(const ServeDriver&) = delete;

  void register_watches() {
    for (int w = 0; w < kWatches; ++w) {
      const std::size_t ti = static_cast<std::size_t>(w) % loads_.size();
      TenantLoad& load = loads_[ti];
      const vid_t n = setup_.tenants[ti].n;
      // A pair at distance 3-12 whose shortcut edge does not exist, so
      // that the shortcut changes the distance.
      vid_t s = 0, t = 0;
      for (int attempt = 0; attempt < 64; ++attempt) {
        s = static_cast<vid_t>(rng_.below(n));
        const std::vector<level_t> lv = load.live.bfs(s);
        std::vector<vid_t> far;
        for (vid_t v = 0; v < n; ++v)
          if (lv[v] >= 3 && lv[v] <= 12) far.push_back(v);
        if (!far.empty()) {
          t = far[rng_.below(far.size())];
          break;
        }
      }
      if (s == t || load.is_watch_pair(s, t) || load.live.contains(s, t)) {
        continue;
      }
      load.watch_pairs.emplace_back(s, t);
      const Clock::time_point t0 = Clock::now();
      load.tickets.push_back(svc_.watch_distance(
          setup_.tenants[ti].id, s, t, [this](const WatchEvent& ev) {
            std::lock_guard lock(events_mutex_);
            events_.push_back(ev);
          }));
      tracer_.span("scaleout.watch_distance", t0, Clock::now());
    }
  }

  /// Closed loop, kWindowPerReplica queries outstanding per replica,
  /// for `seconds`.
  /// Returns completions per second while the loop ran.
  double closed_loop(double seconds, bool measured) {
    const std::size_t window =
        static_cast<std::size_t>(kWindowPerReplica * svc_.replicas());
    std::deque<InFlight> inflight;
    const Clock::time_point start = Clock::now();
    std::uint64_t completed = 0;
    Clock::time_point now = start;
    while (seconds_between(start, now) < seconds) {
      if (measured) maybe_submit_update(now);
      while (inflight.size() < window) {
        inflight.push_back(submit_next(Clock::now(), false));
      }
      finish(inflight.front());
      inflight.pop_front();
      ++completed;
      now = Clock::now();
    }
    const double elapsed = seconds_between(start, now);
    for (InFlight& f : inflight) finish(f);
    return static_cast<double>(completed) / elapsed;
  }

  /// Open loop: Poisson arrivals at `rate` queries/s for `seconds`.
  void open_loop(double rate, double seconds) {
    std::deque<InFlight> inflight;
    const Clock::time_point start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    Clock::time_point due = start;
    for (;;) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(-std::log(1.0 - rng_.uniform()) / rate));
      if (due >= end) break;
      Clock::time_point now = Clock::now();
      for (; now < due; now = Clock::now()) {
        maybe_submit_update(now);
        std::this_thread::sleep_until(std::min(due, now + kPoll));
      }
      lateness_ms_.push_back(ms_between(due, now));
      inflight.push_back(submit_next(due, true));
      while (!inflight.empty() &&
             inflight.front().future.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        finish(inflight.front());
        inflight.pop_front();
      }
    }
    for (InFlight& f : inflight) finish(f);
  }

  /// Waits for all updates, then checks totals and the sampled answers.
  void drain_and_check(Metrics& layer) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<UpdateWaiter::Resolved> updates = waiter_.finish();
    std::vector<double> update_ms;
    for (const auto& u : updates) {
      ++tally_.attempted;
      if (!u.ok) {
        ++tally_.failed;
        continue;
      }
      update_ms.push_back(ms_between(u.submitted, u.resolved));
    }
    const auto stats = svc_.stats();
    tracer_.span("scaleout.stats", t0, Clock::now());

    // Totals reached by two independent paths must agree.
    std::uint64_t inserted = 0, deleted = 0;
    for (const TenantLoad& load : loads_) {
      inserted += load.inserted;
      deleted += load.deleted;
    }
    if (stats.submitted != submitted_ || stats.completed != completed_ok_) {
      tally_.fault("service counted " + std::to_string(stats.submitted) +
                   " submitted / " + std::to_string(stats.completed) +
                   " completed, generator " + std::to_string(submitted_) +
                   " / " + std::to_string(completed_ok_));
    }
    if (stats.edges_inserted != inserted || stats.edges_deleted != deleted) {
      tally_.fault("service applied " + std::to_string(stats.edges_inserted) +
                   " inserts / " + std::to_string(stats.edges_deleted) +
                   " deletes, model " + std::to_string(inserted) + " / " +
                   std::to_string(deleted));
    }
    check_versions(updates);
    std::size_t tenant_events = 0;
    for (std::size_t ti = 0; ti < loads_.size(); ++ti) {
      tenant_events += replay_and_check(ti);
    }
    if (tenant_events != events_.size()) {
      tally_.fault("watch event for a tenant the benchmark did not register");
    }

    layer.set("serve.p50_ms", median(open_ms_), "ms");
    layer.set("serve.p99_ms", quantile(open_ms_, 0.99), "ms");
    layer.set("serve.update_ms", median(update_ms), "ms");

    const double levels_answers = static_cast<double>(hits_ + misses_);
    layer.set("front.submit_us", median(submit_us_), "us");
    layer.set("cache.hit_ratio", ratio(static_cast<double>(hits_), levels_answers),
              "ratio");
    const double miss_ms = median(miss_ms_);
    layer.set("serve.hit_ms", median(hit_ms_), "ms");
    layer.set("serve.miss_ms", miss_ms, "ms");
    layer.set("dispatch.queries_per_claim",
              ratio(static_cast<double>(stats.completed - front_hits_),
                    static_cast<double>(stats.replica_dispatches)),
              "queries/claim");
    const double recompute_ms = opt_.trace ? time_recompute() : 0.0;
    layer.set("replica.recompute_ms", recompute_ms, "ms");
    layer.set("dispatch.queue_wait_ms", miss_ms - recompute_ms, "ms");
    layer.set("kernels.ms", median(kernel_ms_), "ms");
    layer.set("kernels.recompute_ratio",
              ratio(static_cast<double>(stats.kernel_recomputes),
                    static_cast<double>(stats.kernel_queries)),
              "ratio");
    const double batches = static_cast<double>(stats.update_batches);
    layer.set("dynamic.repaired_per_batch",
              ratio(static_cast<double>(stats.results_repaired), batches),
              "rows/batch");
    layer.set("dynamic.revalidated_per_batch",
              ratio(static_cast<double>(stats.results_revalidated), batches),
              "rows/batch");
    layer.set("dynamic.compactions", static_cast<double>(stats.compactions),
              "count");
    layer.set("watch.recompute_ratio",
              ratio(static_cast<double>(stats.watch_recomputes),
                    static_cast<double>(stats.watch_repairs +
                                        stats.watch_recomputes)),
              "ratio");
    layer.set("epoch.overlap_ratio",
              ratio(static_cast<double>(stats.updates_overlapped_reads), batches),
              "ratio");
    layer.set("gen.lateness_p99_ms", quantile(lateness_ms_, 0.99), "ms");
  }

 private:
  Query next_query(std::size_t& tenant) {
    tenant = static_cast<std::size_t>(
        std::lower_bound(mix_cdf_.begin(), mix_cdf_.end() - 1, rng_.uniform()) -
        mix_cdf_.begin());
    const TenantLoad& load = loads_[tenant];
    const vid_t n = setup_.tenants[tenant].n;
    Query q;
    const double u = rng_.uniform();
    q.kind = u < 0.70   ? QueryKind::kDistance
             : u < 0.95 ? QueryKind::kPath
             : u < 0.975 ? QueryKind::kComponents
                         : QueryKind::kCoreNumber;
    if (is_kernel(q.kind)) {
      q.source = static_cast<vid_t>(rng_.below(n));
    } else {
      const double x = rng_.uniform();
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), x) -
          zipf_cdf_.begin());
      q.source = load.pool[std::min(rank, kPoolSize - 1)];
      q.target = static_cast<vid_t>(rng_.below(n));
    }
    return q;
  }

  InFlight submit_next(Clock::time_point due, bool open_loop) {
    InFlight f;
    f.query = next_query(f.tenant);
    f.due = due;
    f.index = submitted_++;
    f.open_loop = open_loop;
    ++tally_.attempted;
    f.submitted = Clock::now();
    f.future = svc_.submit(setup_.tenants[f.tenant].id, f.query);
    const Clock::time_point t1 = Clock::now();
    tracer_.span("scaleout.submit", f.submitted, t1);
    submit_us_.push_back(ms_between(f.submitted, t1) * 1e3);
    // The front door completes cache hits before submit() returns.
    if (f.future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      ++front_hits_;
    }
    return f;
  }

  void finish(InFlight& f) {
    QueryResult r = f.future.get();
    if (!r.ok()) {
      ++tally_.failed;
      return;
    }
    ++completed_ok_;
    const bool kernel = is_kernel(f.query.kind);
    if (kernel) {
      kernel_ms_.push_back(r.latency_ms);
    } else {
      ++(r.cache_hit ? hits_ : misses_);
    }
    if (f.open_loop) {
      // From when the query was due: generator lateness counts.
      const double ms = ms_between(f.due, f.submitted) + r.latency_ms;
      open_ms_.push_back(ms);
      if (!kernel) (r.cache_hit ? hit_ms_ : miss_ms_).push_back(ms);
    }
    if (kernel || f.index % kCheckEvery == 0) {
      if (!kernel && f.index % kRowEvery != 0) r.levels.reset();
      samples_.push_back({f.tenant, f.query, std::move(r)});
    }
  }

  /// Sends the next batch (tenants round robin) once the previous one
  /// has been applied for kUpdateGap.
  void maybe_submit_update(Clock::time_point now) {
    if (!waiter_.idle_for(kUpdateGap, now)) return;
    const std::size_t ti = update_tenant_.size() % loads_.size();
    UpdateBatch batch = make_batch(ti);
    const Clock::time_point t0 = Clock::now();
    waiter_.add(svc_.submit_updates(setup_.tenants[ti].id, batch), t0);
    tracer_.span("scaleout.submit_updates", t0, Clock::now());
    update_tenant_.push_back(ti);
  }

  UpdateBatch make_batch(std::size_t ti) {
    TenantLoad& load = loads_[ti];
    const vid_t n = setup_.tenants[ti].n;
    UpdateBatch batch;
    for (int k = 0; k < kUpdateEdges && load.live.size() > 0; ++k) {
      const optibfs::Edge e = load.live.edge_at(rng_.below(load.live.size()));
      if (load.is_watch_pair(e.src, e.dst)) continue;
      load.live.erase(e.src, e.dst);
      batch.erase(e.src, e.dst);
      ++load.deleted;
    }
    for (int k = 0; k < kUpdateEdges; ++k) {
      const auto u = static_cast<vid_t>(rng_.below(n));
      const auto v = static_cast<vid_t>(rng_.below(n));
      if (u == v || load.is_watch_pair(u, v) || !load.live.insert(u, v)) continue;
      batch.insert(u, v);
      ++load.inserted;
    }
    // Shortcut one watched pair on one batch, restore it on the next.
    if (!load.watch_pairs.empty()) {
      const auto [s, t] = load.watch_pairs[load.next_shortcut];
      if (load.live.erase(s, t)) {
        batch.erase(s, t);
        ++load.deleted;
        load.next_shortcut = (load.next_shortcut + 1) % load.watch_pairs.size();
      } else {
        load.live.insert(s, t);
        batch.insert(s, t);
        ++load.inserted;
      }
    }
    load.log.push_back(batch);
    return batch;
  }

  /// Batch j of a tenant must resolve to that tenant's version base + j + 1.
  void check_versions(const std::vector<UpdateWaiter::Resolved>& updates) {
    std::vector<std::uint64_t> next(loads_.size());
    for (std::size_t ti = 0; ti < loads_.size(); ++ti)
      next[ti] = loads_[ti].base_version + 1;
    for (std::size_t i = 0; i < updates.size(); ++i) {
      const std::size_t ti = update_tenant_[i];
      if (updates[i].ok && updates[i].version != next[ti]) {
        tally_.fault("update batch resolved to version " +
                     std::to_string(updates[i].version) + ", expected " +
                     std::to_string(next[ti]));
      }
      ++next[ti];
    }
  }

  /// Replays tenant `ti`'s update log on a fresh model and checks, at
  /// each version, the sampled answers and the watch notifications.
  /// Returns how many watch events the tenant received.
  std::size_t replay_and_check(std::size_t ti) {
    const TenantLoad& load = loads_[ti];
    const TenantSetup& tenant = setup_.tenants[ti];
    std::map<std::uint64_t, std::vector<const Sample*>> by_version;
    for (const Sample& s : samples_) {
      if (s.tenant == ti) by_version[s.result.graph_version].push_back(&s);
    }
    // Every raw event of the tenant must belong to one of its watches
    // and be the only one for its (watch, version).
    std::map<std::pair<std::size_t, std::uint64_t>, WatchEvent> events;
    std::size_t raw_events = 0;
    {
      std::lock_guard lock(events_mutex_);
      for (const WatchEvent& ev : events_) {
        if (ev.tenant != tenant.id) continue;
        ++raw_events;
        std::size_t w = 0;
        while (w < load.tickets.size() && load.tickets[w].id != ev.watch) ++w;
        if (w == load.tickets.size()) {
          tally_.fault("watch event for a watch the tenant does not have");
        } else if (!events.emplace(std::pair{w, ev.version}, ev).second) {
          tally_.fault("watch notified twice at version " +
                       std::to_string(ev.version));
        }
      }
    }
    EdgeModel model(tenant.n, tenant.edges);
    std::vector<level_t> last(load.watch_pairs.size());
    std::size_t matched_events = 0;
    for (std::size_t j = 0; j <= load.log.size(); ++j) {
      const std::uint64_t version = load.base_version + j;
      std::unordered_map<vid_t, std::vector<level_t>> bfs;
      auto levels_from = [&](vid_t s) -> const std::vector<level_t>& {
        auto it = bfs.find(s);
        if (it == bfs.end()) it = bfs.emplace(s, model.bfs(s)).first;
        return it->second;
      };
      for (std::size_t w = 0; w < load.watch_pairs.size(); ++w) {
        const auto [s, t] = load.watch_pairs[w];
        const level_t d = levels_from(s)[t];
        if (j == 0) {
          if (load.tickets[w].initial_distance != d) {
            tally_.fault("watch registered with a wrong initial distance");
          }
        } else if (d != last[w]) {
          const auto it = events.find({w, version});
          if (it == events.end() || it->second.old_distance != last[w] ||
              it->second.new_distance != d) {
            tally_.fault("watch notification missing or wrong at version " +
                         std::to_string(version));
          } else {
            ++matched_events;
          }
        }
        last[w] = d;
      }
      const auto it = by_version.find(version);
      if (it != by_version.end()) check_answers(model, it->second, levels_from);
      if (j < load.log.size()) {
        for (const auto& u : load.log[j].updates) {
          if (u.insert) {
            model.insert(u.src, u.dst);
          } else {
            model.erase(u.src, u.dst);
          }
        }
      }
    }
    if (events.size() != matched_events) {
      tally_.fault("watch notified a change the model does not show");
    }
    for (const auto& [version, list] : by_version) {
      if (version < load.base_version ||
          version > load.base_version + load.log.size()) {
        tally_.fault("answer carries an unknown graph version");
      }
    }
    return raw_events;
  }

  template <typename LevelsFrom>
  void check_answers(const EdgeModel& model,
                     const std::vector<const Sample*>& samples,
                     LevelsFrom& levels_from) {
    std::unique_ptr<Components> cc;
    std::vector<std::uint32_t> cores;
    for (const Sample* s : samples) {
      const Query& q = s->query;
      const QueryResult& r = s->result;
      if (q.kind == QueryKind::kComponents) {
        if (!cc) cc = std::make_unique<Components>(model.n(), model.edge_list());
        const std::string fault =
            check_component(*cc, q.source, r.component, r.component_size);
        if (!fault.empty()) tally_.fault(fault);
        continue;
      }
      if (q.kind == QueryKind::kCoreNumber) {
        if (cores.empty()) cores = ref_core_numbers(model.n(), model.edge_list());
        if (cores[q.source] != r.core) {
          tally_.fault("core number of vertex " + std::to_string(q.source) +
                       " is " + std::to_string(cores[q.source]) +
                       ", answer said " + std::to_string(r.core));
        }
        continue;
      }
      const std::vector<level_t>& lv = levels_from(q.source);
      if (r.distance != lv[q.target]) {
        tally_.fault("distance " + std::to_string(q.source) + " -> " +
                     std::to_string(q.target) + " is " +
                     std::to_string(lv[q.target]) + ", answer said " +
                     std::to_string(r.distance));
        continue;
      }
      if (r.levels && *r.levels != lv) tally_.fault("cached level row is wrong");
      if (q.kind != QueryKind::kPath) continue;
      const std::vector<vid_t>& p = r.path;
      bool ok = r.distance == kUnreached
                    ? p.empty()
                    : p.size() == static_cast<std::size_t>(r.distance) + 1 &&
                          p.front() == q.source && p.back() == q.target;
      for (std::size_t i = 1; ok && i < p.size(); ++i) {
        ok = model.contains(p[i - 1], p[i]);
      }
      if (!ok) tally_.fault("path answer is not a shortest path");
    }
  }

  /// IncrementalBfsEngine::recompute at one thread, timed directly on
  /// each tenant's base graph: the replica's cost of one cache miss.
  double time_recompute() {
    double total = 0;
    for (std::size_t ti = 0; ti < loads_.size(); ++ti) {
      optibfs::IncrementalBfsEngine::Config config;
      config.bfs.num_threads = 1;
      optibfs::IncrementalBfsEngine engine(config);
      optibfs::DynamicGraph graph(setup_.tenants[ti].graph);
      const optibfs::GraphSnapshot snap = graph.snapshot();
      std::vector<level_t> levels;
      std::vector<double> ms;
      for (int i = 0; i < kRecomputeSources; ++i) {
        const Clock::time_point t0 = Clock::now();
        engine.recompute(snap, loads_[ti].pool[static_cast<std::size_t>(i)],
                         levels);
        const Clock::time_point t1 = Clock::now();
        tracer_.span("dynamic.recompute", t0, t1);
        ms.push_back(ms_between(t0, t1));
      }
      total += median(ms);
    }
    return total / static_cast<double>(loads_.size());
  }

  const RunOptions& opt_;
  ServeSetup& setup_;
  optibfs::scaleout::ScaleoutService& svc_;
  Tracer& tracer_;
  Tally& tally_;
  Rng rng_;
  std::vector<double> zipf_cdf_;
  std::vector<double> mix_cdf_;  ///< tenant choice
  std::vector<TenantLoad> loads_;

  std::uint64_t submitted_ = 0, completed_ok_ = 0, front_hits_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0;
  std::vector<double> submit_us_, open_ms_, hit_ms_, miss_ms_, kernel_ms_;
  std::vector<double> lateness_ms_;
  std::vector<Sample> samples_;

  std::vector<std::size_t> update_tenant_;  ///< tenant of each batch, in order

  std::mutex events_mutex_;
  std::vector<WatchEvent> events_;
  UpdateWaiter waiter_;  ///< last: joined before the state it reads dies
};

}  // namespace

void run_serve(const RunOptions& opt, ServeSetup& setup, double budget_s,
               Tracer& tracer, Metrics& layer, Tally& tally) {
  ServeDriver driver(opt, setup, tracer, tally);
  driver.register_watches();
  driver.closed_loop(0.1 * budget_s, /*measured=*/false);
  const double qps = driver.closed_loop(0.4 * budget_s, true);
  layer.set("serve.qps", qps, "queries/s");
  driver.open_loop(kOpenLoad * qps, 0.5 * budget_s);
  driver.drain_and_check(layer);
}

}  // namespace perfbench
