#include "serve.h"

#include <sys/prctl.h>

#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <random>
#include <thread>

namespace pb {

namespace server = wg::server;
using wg::PageId;

class TimedRepr::Cursor : public wg::AdjacencyCursor {
 public:
  Cursor(TimedRepr* owner, std::unique_ptr<wg::AdjacencyCursor> base)
      : owner_(owner), base_(std::move(base)) {
    record_.dir = owner->dir_;
    record_.tid = ThreadIndex();
    record_.begin_s = NowSeconds();
  }
  ~Cursor() override {
    record_.end_s = NowSeconds();
    owner_->AddRecord(record_);
  }

  wg::Status Links(PageId p, wg::LinkView* view) override {
    if (record_.calls == 0) record_.first_page = p;
    Clock::time_point t0 = Clock::now();
    wg::Status status = base_->Links(p, view);
    record_.links_s += SecondsBetween(t0, Clock::now());
    ++record_.calls;
    return status;
  }

 private:
  TimedRepr* owner_;
  std::unique_ptr<wg::AdjacencyCursor> base_;
  CursorRecord record_;
};

std::unique_ptr<wg::AdjacencyCursor> TimedRepr::NewCursor() {
  return std::make_unique<Cursor>(this, base_->NewCursor());
}

void TimedRepr::AddRecord(const CursorRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(record);
}

std::vector<CursorRecord> TimedRepr::TakeRecords() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(records_);
}

namespace {

// Reference answer for one request, computed from the generator's graph
// alone: adjacency for out/in, breadth-first search for k-hop.
uint64_t ReferenceHash(const ServeTarget& target, const server::Request& r) {
  if (r.type == server::RequestType::kOutNeighbors) {
    auto links = target.graph->OutLinks(r.page);
    return HashPages(links.data(), links.size());
  }
  if (r.type == server::RequestType::kInNeighbors) {
    auto links = target.transpose->OutLinks(r.page);
    return HashPages(links.data(), links.size());
  }
  std::vector<PageId> reached;
  std::vector<PageId> frontier = {r.page};
  std::vector<PageId> next;
  std::unordered_map<PageId, bool> seen = {{r.page, true}};
  for (int hop = 0; hop < r.k && !frontier.empty(); ++hop) {
    next.clear();
    for (PageId p : frontier) {
      for (PageId q : target.graph->OutLinks(p)) {
        if (seen.emplace(q, true).second) {
          next.push_back(q);
          reached.push_back(q);
        }
      }
    }
    frontier.swap(next);
  }
  std::sort(reached.begin(), reached.end());
  return HashPages(reached);
}

struct StoreCounters {
  uint64_t hits = 0, misses = 0, loaded = 0, assembles = 0, reads = 0,
           bytes = 0;
  static StoreCounters Of(wg::SNodeRepr* r) {
    StoreCounters c;
    const wg::ReprStats& s = r->stats();
    c.hits = s.cache_hits;
    c.misses = s.cache_misses;
    c.loaded = s.graphs_loaded;
    c.assembles = r->cold_stats().assembles;
    c.reads = s.disk_reads + r->store().mapped_reads();
    c.bytes = s.bytes_read;
    return c;
  }
  StoreCounters operator+(const StoreCounters& o) const {
    return {hits + o.hits,         misses + o.misses, loaded + o.loaded,
            assembles + o.assembles, reads + o.reads,   bytes + o.bytes};
  }
  StoreCounters operator-(const StoreCounters& o) const {
    return {hits - o.hits,         misses - o.misses, loaded - o.loaded,
            assembles - o.assembles, reads - o.reads,   bytes - o.bytes};
  }
};

StoreCounters BothStores(const ServeTarget& t) {
  return StoreCounters::Of(t.forward) + StoreCounters::Of(t.backward);
}

struct Sent {
  std::future<server::Response> future;
  double due_s = 0;       // relative to the schedule start
  double submit_s = 0;    // absolute (NowSeconds)
  double lateness_s = 0;  // submit - due
};

struct Done {
  server::ResponseCode code = server::ResponseCode::kOk;
  double service_s = 0;  // Response::latency_seconds
  uint64_t hash = 0;
};

// Attributes cursor records to the requests that created them: same
// direction, same first page, lifetime inside the request's
// enqueue-to-completion window. Returns the matched record per request
// (-1 when none matched).
std::vector<int64_t> MatchCursors(const std::vector<server::Request>& reqs,
                                  const std::vector<Sent>& sent,
                                  const std::vector<Done>& done,
                                  const std::vector<CursorRecord>& records) {
  std::unordered_map<uint64_t, std::deque<size_t>> by_key;
  std::vector<size_t> order(records.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return records[a].begin_s < records[b].begin_s;
  });
  for (size_t i : order) {
    uint64_t key = (uint64_t(records[i].dir) << 32) | records[i].first_page;
    by_key[key].push_back(i);
  }
  std::vector<int64_t> match(reqs.size(), -1);
  for (size_t i = 0; i < reqs.size(); ++i) {
    int dir = reqs[i].type == server::RequestType::kInNeighbors ? 1 : 0;
    auto it = by_key.find((uint64_t(dir) << 32) | reqs[i].page);
    if (it == by_key.end()) continue;
    double lo = sent[i].submit_s - 1e-4;
    double hi = sent[i].submit_s + done[i].service_s + 1e-4;
    std::deque<size_t>& q = it->second;
    while (!q.empty() && records[q.front()].begin_s < lo) q.pop_front();
    for (auto j = q.begin(); j != q.end(); ++j) {
      if (records[*j].begin_s > hi) break;
      if (records[*j].end_s <= hi) {
        match[i] = static_cast<int64_t>(*j);
        q.erase(j);
        break;
      }
    }
  }
  return match;
}

}  // namespace

LoadResult RunOpenLoop(const ServeTarget& target, double rate, double seconds,
                       uint64_t seed, Outcome* outcome) {
  const size_t n = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  server::WorkloadOptions wopts;
  wopts.num_requests = n;
  wopts.seed = seed;
  wopts.num_pages = target.forward->num_pages();
  wopts.zipf_theta = target.zipf_theta;
  std::vector<server::Request> reqs = server::SyntheticWorkload(wopts);

  // Poisson arrivals: exponential gaps from the same seed.
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> due(n);
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += gap(rng);
    due[i] = t;
  }

  std::unique_ptr<TimedRepr> tf, tb;
  wg::QueryContext ctx;
  ctx.forward = target.forward;
  ctx.backward = target.backward;
  if (target.traced) {
    tf = std::make_unique<TimedRepr>(target.forward, 0);
    tb = std::make_unique<TimedRepr>(target.backward, 1);
    ctx.forward = tf.get();
    ctx.backward = tb.get();
  }
  server::QueryServiceOptions sopts;
  sopts.num_workers = target.workers;
  sopts.queue_capacity = n;

  std::vector<Sent> sent(n);
  std::vector<Done> done(n);
  StoreCounters before = BothStores(target);
  {
    server::QueryService service(ctx, sopts);
    std::mutex mu;
    std::condition_variable cv;
    size_t published = 0;
    std::thread collector([&] {
      for (size_t i = 0; i < n; ++i) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return published > i; });
        }
        server::Response r = sent[i].future.get();
        done[i].code = r.code;
        done[i].service_s = r.latency_seconds;
        done[i].hash = HashPages(r.pages);
      }
    });
    // Sleep, do not spin, until each due time; a tight timer slack keeps
    // the wake-ups close to the schedule.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    double start_abs = ToSeconds(start);
    for (size_t i = 0; i < n; ++i) {
      Clock::time_point when =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due[i]));
      if (Clock::now() < when) std::this_thread::sleep_until(when);
      double now = NowSeconds();
      sent[i].due_s = due[i];
      sent[i].submit_s = now;
      sent[i].lateness_s = std::max(0.0, now - (start_abs + due[i]));
      sent[i].future = service.Submit(reqs[i]);
      {
        std::lock_guard<std::mutex> lock(mu);
        published = i + 1;
      }
      cv.notify_one();
    }
    collector.join();
    service.Shutdown();
  }
  StoreCounters delta = BothStores(target) - before;

  LoadResult res;
  res.sent = n;
  std::vector<double> lat_ms, late_ms, service_ms;
  std::vector<double> lat_of(n, -1);
  lat_ms.reserve(n);
  std::unordered_map<uint64_t, uint64_t> reference;
  for (size_t i = 0; i < n; ++i) {
    late_ms.push_back(sent[i].lateness_s * 1e3);
    ++outcome->attempted;
    if (done[i].code != server::ResponseCode::kOk) {
      outcome->Fail(std::string("request ") +
                    server::ResponseCodeName(done[i].code));
      continue;
    }
    uint64_t key = (uint64_t(reqs[i].type) << 40) |
                   (uint64_t(reqs[i].k) << 32) | reqs[i].page;
    auto it = reference.find(key);
    if (it == reference.end()) {
      it = reference.emplace(key, ReferenceHash(target, reqs[i])).first;
    }
    if (it->second != done[i].hash) {
      outcome->Wrong(std::string("served answer differs from graph for ") +
                     server::RequestTypeName(reqs[i].type) + " " +
                     std::to_string(reqs[i].page));
    }
    ++res.ok;
    double latency_s = sent[i].lateness_s + done[i].service_s;
    lat_ms.push_back(latency_s * 1e3);
    lat_of[i] = latency_s * 1e3;
    service_ms.push_back(done[i].service_s * 1e3);
  }
  // The run is cut into consecutive windows of at least 1000 requests
  // (0.1 s at the least). The host preempts its virtual CPUs for
  // milliseconds at a time and slows for seconds; a window it disturbs
  // reads the host, not the store. So p50 and p99 are the medians of the
  // windows' p50s and p99s; the run's own p50 is kept beside them.
  if (!lat_ms.empty()) {
    res.p50_ms = Quantile(lat_ms, 0.5);
    res.server_latency_p99_ms = Quantile(service_ms, 0.99);
    const double window_s = std::max(0.1, 1000.0 / rate);
    const size_t windows = std::max<size_t>(
        1, static_cast<size_t>(std::floor(seconds / window_s)));
    std::vector<std::vector<double>> by_window(windows);
    for (size_t i = 0; i < n; ++i) {
      if (lat_of[i] >= 0) by_window[i * windows / n].push_back(lat_of[i]);
    }
    std::vector<double> p99s;
    for (const auto& w : by_window) {
      if (!w.empty()) p99s.push_back(Quantile(w, 0.99));
    }
    res.p99_ms = Median(p99s);
    std::vector<double> p50s;
    for (const auto& w : by_window) {
      if (!w.empty()) p50s.push_back(Quantile(w, 0.5));
    }
    res.p50_window_median_ms = Median(p50s);
  }
  res.lateness_p99_ms = Quantile(late_ms, 0.99);
  double reqs_n = static_cast<double>(n);
  uint64_t lookups = delta.hits + delta.misses;
  res.cache_hit_rate = lookups == 0 ? 1.0 : double(delta.hits) / lookups;
  res.cache_misses_per_req = delta.misses / reqs_n;
  res.graphs_loaded_per_req = delta.loaded / reqs_n;
  res.assembles_per_req = delta.assembles / reqs_n;
  res.reads_per_req = delta.reads / reqs_n;
  res.bytes_read_per_req = delta.bytes / reqs_n;

  if (target.traced) {
    std::vector<CursorRecord> records = tf->TakeRecords();
    for (CursorRecord& r : tb->TakeRecords()) records.push_back(r);
    std::vector<int64_t> match = MatchCursors(reqs, sent, done, records);
    double wait_s = 0, cursor_s = 0, links_s = 0;
    uint64_t calls = 0, matched = 0;
    SpanLog& log = SpanLog::Get();
    for (size_t i = 0; i < n; ++i) {
      uint64_t req = (seed << 24) + i + 1;
      log.Add({std::string("server.") + server::RequestTypeName(reqs[i].type),
               "server", req, 0, sent[i].submit_s, done[i].service_s});
      if (match[i] < 0) continue;
      const CursorRecord& c = records[match[i]];
      log.Add({"repr.cursor", "repr", req, c.tid, c.begin_s,
               c.end_s - c.begin_s});
      ++matched;
      double span = c.end_s - c.begin_s;
      cursor_s += span;
      wait_s += std::max(0.0, done[i].service_s - span);
      links_s += c.links_s;
      calls += c.calls;
    }
    if (matched > 0) {
      res.queue_wait_us = wait_s / matched * 1e6;
      res.cursor_us_per_req = cursor_s / matched * 1e6;
      res.links_calls_per_req = double(calls) / matched;
    }
    if (calls > 0) res.links_ns_per_call = links_s / calls * 1e9;
  }
  return res;
}

}  // namespace pb
