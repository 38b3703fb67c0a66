// wgserve — drive the concurrent query service over an S-Node store.
//
//   wgserve --pages N [--seed S] [options]
//       Generate a synthetic crawl, build forward/backward S-Node
//       representations, then serve a workload against them.
//   wgserve --crawl crawl.wg [options]
//       Same, starting from a saved crawl.
//   wgserve --snapshot DIR [options]
//       Serve the live generation of a versioned snapshot store (made by
//       `wgtool snapshot-init`). A poller watches the store's CURRENT
//       pointer; when another process publishes a new generation (`wgtool
//       compact`), the service flips to it between requests -- in-flight
//       requests drain on the generation they pinned. Forward-only: the
//       synthetic mix drops in-neighbor requests, and request files must
//       avoid `in`/`query` lines.
//       Every candidate generation is scrubbed (pread + CRC of all blobs)
//       before install; a corrupt generation fails the flip and the
//       process keeps serving the last good one in degraded mode: the
//       wg_degraded gauge goes to 1 and the --health-file (if given)
//       leads with "degraded" until a later flip succeeds. Run `wgtool
//       scrub` and re-compact to repair.
//
// options:
//   --auto-compact-backlog N  (snapshot mode) compact in-process when the
//                     delta-log backlog (records appended but not folded
//                     into the live generation, i.e. pending_records)
//                     reaches N. The poller runs the compaction between
//                     ticks and flips to the new generation through the
//                     same swap path as an external `wgtool compact`; a
//                     failed compaction backs off ~5 s before retrying.
//                     0 (default) disables.
//   --workers W       worker threads (default 4)
//   --queue C         admission queue capacity (default 256)
//   --requests R      synthetic workload size (default 20000)
//   --theta T         Zipf skew of the synthetic workload (default 0.8)
//   --khop K          hop count for k-hop requests (default 2)
//   --file PATH       replay a request file instead of the synthetic mix
//                     (lines: "out <page>", "in <page>", "khop <page> <k>",
//                      "query <1..6>"; '#' comments)
//   --deadline-ms D   attach a deadline of now+D ms to every request
//   --buffer BYTES    decoded-graph cache budget per representation
//   --shards N        cache shards per representation (default 8)
//   --mmap            serve store reads through a read-only mmap of the
//                     pack files (zero-copy decode + madvise readahead)
//                     instead of buffered pread
//   --admin-port P    serve the live introspection plane on
//                     127.0.0.1:P (0 = kernel-assigned; the bound port is
//                     printed): /metrics, /metrics.json, /healthz,
//                     /statusz, /tracez, /pprof/profile?seconds=N.
//                     Enables the tracez ring, and (unless --profile-hz 0)
//                     the always-on sampling profiler.
//   --profile-hz H    SIGPROF sampling rate for /pprof/profile (default
//                     97 when --admin-port is set; 0 disables)
//   --slow-us T       tracez slow threshold in microseconds: every
//                     request at or above it is pinned into /tracez's
//                     slow list and becomes the latency histogram's
//                     exemplar (default 10000)
//   --linger S        keep serving the admin plane S seconds after the
//                     workload drains (scrape window for probes/tests)
//   --health-file F   rewrite F (atomically, via temp + rename) after
//                     open and every flip attempt with
//                     "ok|degraded generation=<id> [reason=<text>]" -- a
//                     file-based health endpoint for probes ("cat F")
//                     that agrees with /healthz
//   --metrics-out F   write the metric registry to F; ".json" suffix
//                     selects the JSON form, anything else the Prometheus
//                     text form. Rewritten atomically (temp + rename)
//                     every --metrics-interval seconds and at exit, so a
//                     killed process still leaves fresh metrics on disk
//   --metrics-interval S  seconds between periodic --metrics-out rewrites
//                     (default 10; 0 = write only at exit)
//   --trace-out F     write sampled request traces to F as Chrome
//                     trace-event JSONL (open in Perfetto or
//                     chrome://tracing)
//   --trace-sample N  trace every Nth request (default 16; 1 = all;
//                     must be >= 1)
//
// Prints a per-outcome tally, service metrics (queue depth, p50/p99,
// cache hit rate), and end-to-end throughput.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/generator.h"
#include "graph/graph_io.h"
#include "obs/admin_http.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "server/query_service.h"
#include "server/workload.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "storage/integrity.h"
#include "text/corpus.h"
#include "text/inverted_index.h"
#include "text/pagerank.h"
#include "version/snapshot.h"

namespace wg {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wgserve (--pages N [--seed S] | --crawl crawl.wg |\n"
               "                --snapshot DIR)\n"
               "               [--auto-compact-backlog N]\n"
               "               [--workers W] [--queue C] [--requests R]\n"
               "               [--theta T] [--khop K] [--file PATH]\n"
               "               [--deadline-ms D] [--buffer BYTES]\n"
               "               [--shards N] [--mmap]\n"
               "               [--admin-port P] [--profile-hz H]\n"
               "               [--slow-us T] [--linger S]\n"
               "               [--health-file FILE] [--metrics-out FILE]\n"
               "               [--metrics-interval S]\n"
               "               [--trace-out FILE] [--trace-sample N]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// Write-temp-then-rename: probes and scrapers reading `path` see either
// the previous complete dump or the new complete dump, never a torn one,
// and a crash mid-write leaves the previous dump intact. RenameFile goes
// through the Env seam, so fault-injection tests see these writes too.
Status WriteFileAtomic(const std::string& path, const std::string& content) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return Status::IOError("open " + tmp + " failed");
  bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    RemoveFileIfExists(tmp);
    return Status::IOError("write " + tmp + " failed");
  }
  return RenameFile(tmp, path);
}

// The process health surface, shared by the snapshot poller (writer), the
// --health-file, and the /healthz endpoint -- one source of truth so
// external probes and the admin plane always agree.
struct HealthState {
  std::mutex mu;
  bool degraded = false;
  std::string reason;      // last refused-flip error; empty when healthy
  uint64_t generation = 0;  // live generation (0 outside snapshot mode)

  // First line of both the health file and /healthz:
  //   ok generation=7
  //   degraded generation=7 reason=<text>
  std::string Line() {
    std::lock_guard<std::mutex> lock(mu);
    std::string line = degraded ? "degraded" : "ok";
    line += " generation=" + std::to_string(generation);
    if (degraded && !reason.empty()) line += " reason=" + reason;
    return line;
  }
};

int Main(int argc, char** argv) {
  const char* pages = FlagValue(argc, argv, "--pages");
  const char* crawl = FlagValue(argc, argv, "--crawl");
  const char* snapshot = FlagValue(argc, argv, "--snapshot");
  if (snapshot != nullptr) {
    if (pages != nullptr || crawl != nullptr) return Usage();
  } else if ((pages == nullptr) == (crawl == nullptr)) {
    return Usage();
  }

  // Validate before the expensive store build so a bad flag fails fast.
  uint64_t trace_interval = 16;
  if (const char* s = FlagValue(argc, argv, "--trace-sample")) {
    char* end = nullptr;
    trace_interval = std::strtoull(s, &end, 10);
    // 0 would disable sampling entirely, silently producing an empty
    // trace despite --trace-out; reject it along with garbage input.
    if (end == s || *end != '\0' || trace_interval == 0) {
      std::fprintf(stderr,
                   "error: --trace-sample wants a positive integer, "
                   "got \"%s\"\n",
                   s);
      return Usage();
    }
  }
  const bool admin_enabled = HasFlag(argc, argv, "--admin-port");
  long admin_port = 0;
  if (const char* p = FlagValue(argc, argv, "--admin-port")) {
    char* end = nullptr;
    admin_port = std::strtol(p, &end, 10);
    if (end == p || *end != '\0' || admin_port < 0 || admin_port > 65535) {
      std::fprintf(stderr, "error: --admin-port wants 0..65535, got \"%s\"\n",
                   p);
      return Usage();
    }
  }
  long profile_hz = admin_enabled ? 97 : 0;
  if (const char* hz = FlagValue(argc, argv, "--profile-hz")) {
    char* end = nullptr;
    profile_hz = std::strtol(hz, &end, 10);
    if (end == hz || *end != '\0' || profile_hz < 0 || profile_hz > 1000) {
      std::fprintf(stderr, "error: --profile-hz wants 0..1000, got \"%s\"\n",
                   hz);
      return Usage();
    }
  }
  double slow_us = 10000;
  if (const char* s = FlagValue(argc, argv, "--slow-us")) {
    slow_us = std::strtod(s, nullptr);
  }
  long linger_seconds = 0;
  if (const char* s = FlagValue(argc, argv, "--linger")) {
    linger_seconds = std::strtol(s, nullptr, 10);
  }
  long metrics_interval = 10;
  if (const char* s = FlagValue(argc, argv, "--metrics-interval")) {
    metrics_interval = std::strtol(s, nullptr, 10);
  }

  SNodeBuildOptions bopts;
  if (const char* buffer = FlagValue(argc, argv, "--buffer")) {
    bopts.buffer_bytes = std::strtoull(buffer, nullptr, 10);
  }
  if (const char* shards = FlagValue(argc, argv, "--shards")) {
    bopts.cache_shards = std::strtoul(shards, nullptr, 10);
  }
  const bool use_mmap = HasFlag(argc, argv, "--mmap");

  WebGraph graph;
  WebGraph transpose;
  Corpus corpus;
  InvertedIndex index;
  std::vector<double> pagerank;
  std::shared_ptr<SNodeRepr> forward;
  std::shared_ptr<SNodeRepr> backward;
  std::unique_ptr<version::SnapshotManager> manager;
  size_t num_pages = 0;
  auto start_time = std::chrono::steady_clock::now();

  // Degraded-mode surface: wg_degraded is 1 while CURRENT names a
  // generation this process refused to install (its pre-install scrub
  // failed) and the last good one keeps serving. Bound in every mode so
  // a scraper can always tell "healthy" from "series not wired"; outside
  // snapshot mode it simply never leaves 0. The health file and /healthz
  // read the same HealthState, so all three surfaces agree.
  const char* health_file = FlagValue(argc, argv, "--health-file");
  obs::Gauge degraded_gauge;
  degraded_gauge.Bind(obs::MetricRegistry::Default(), "wg_degraded", {},
                      "1 while serving a stale generation because the "
                      "newest failed verification");
  HealthState health;
  auto write_health = [&](bool degraded, const std::string& reason) {
    degraded_gauge.Set(degraded ? 1 : 0);
    {
      std::lock_guard<std::mutex> lock(health.mu);
      health.degraded = degraded;
      health.reason = degraded ? reason : "";
    }
    if (health_file == nullptr) return;
    Status written = WriteFileAtomic(health_file, health.Line() + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "warning: health file: %s\n",
                   written.ToString().c_str());
    }
  };

  // Materialize the wg_integrity_* series at zero: a dashboard must be
  // able to tell "no corruption seen" from "counters not wired".
  IntegrityCounters::Get();

  QueryContext ctx;
  if (snapshot != nullptr) {
    version::SnapshotOptions vopts;
    vopts.build = bopts;
    vopts.store.mmap = use_mmap;
    // Serving tier: never install a generation whose pack bytes don't
    // match their manifest CRCs; keep serving the last good one instead.
    vopts.verify_before_install = true;
    auto opened = version::SnapshotManager::Open(snapshot, vopts);
    if (!opened.ok()) return Fail(opened.status());
    manager = std::move(opened).value();
    version::GenerationPtr generation = manager->current();
    {
      std::lock_guard<std::mutex> lock(health.mu);
      health.generation = generation->manifest.generation;
    }
    write_health(false, "");
    num_pages = generation->repr->num_pages();
    std::printf("snapshot %s: generation %llu, %zu pages, %llu links, "
                "%llu pending deltas\n",
                snapshot,
                static_cast<unsigned long long>(
                    generation->manifest.generation),
                num_pages,
                static_cast<unsigned long long>(generation->repr->num_edges()),
                static_cast<unsigned long long>(manager->pending_records()));
  } else {
    if (crawl != nullptr) {
      auto loaded = LoadWebGraph(crawl);
      if (!loaded.ok()) return Fail(loaded.status());
      graph = std::move(loaded).value();
    } else {
      GeneratorOptions gopts;
      gopts.num_pages = std::strtoul(pages, nullptr, 10);
      if (const char* seed = FlagValue(argc, argv, "--seed")) {
        gopts.seed = std::strtoull(seed, nullptr, 10);
      }
      graph = GenerateWebGraph(gopts);
    }
    num_pages = graph.num_pages();
    std::printf("graph: %zu pages, %llu links\n", graph.num_pages(),
                static_cast<unsigned long long>(graph.num_edges()));

    transpose = graph.Transpose();
    corpus = Corpus::Generate(graph, CorpusOptions());
    index = InvertedIndex::Build(corpus);
    pagerank = ComputePageRank(graph);

    std::string dir = "/tmp/wgserve_" + std::to_string(getpid());
    Status mk = EnsureDirectory(dir);
    if (!mk.ok()) return Fail(mk);
    auto fwd = SNodeRepr::Build(graph, dir + "/fwd", bopts);
    if (!fwd.ok()) return Fail(fwd.status());
    forward = std::move(fwd).value();
    auto bwd = SNodeRepr::Build(transpose, dir + "/bwd", bopts);
    if (!bwd.ok()) return Fail(bwd.status());
    backward = std::move(bwd).value();
    if (use_mmap) {
      Status mapped = forward->MapStoreForRead();
      if (mapped.ok()) mapped = backward->MapStoreForRead();
      if (!mapped.ok()) return Fail(mapped);
    }
    if (health_file != nullptr) write_health(false, "");
    std::printf("s-node: %u supernodes, cache budget %zu bytes x%zu shards\n",
                forward->supernode_graph().num_supernodes(),
                bopts.buffer_bytes, bopts.cache_shards);

    ctx.forward = forward.get();
    ctx.backward = backward.get();
    ctx.graph = &graph;
    ctx.corpus = &corpus;
    ctx.index = &index;
    ctx.pagerank = &pagerank;
  }

  server::QueryServiceOptions sopts;
  if (const char* workers = FlagValue(argc, argv, "--workers")) {
    sopts.num_workers = std::strtoul(workers, nullptr, 10);
  }
  if (const char* queue = FlagValue(argc, argv, "--queue")) {
    sopts.queue_capacity = std::strtoul(queue, nullptr, 10);
  }

  std::vector<server::Request> requests;
  if (const char* file = FlagValue(argc, argv, "--file")) {
    auto parsed = server::ParseRequestFile(file, num_pages);
    if (!parsed.ok()) return Fail(parsed.status());
    requests = std::move(parsed).value();
  } else {
    server::WorkloadOptions wopts;
    wopts.num_pages = num_pages;
    // A snapshot store is forward-only (no transpose generation yet).
    if (snapshot != nullptr) wopts.in_weight = 0;
    if (const char* n = FlagValue(argc, argv, "--requests")) {
      wopts.num_requests = std::strtoul(n, nullptr, 10);
    }
    if (const char* theta = FlagValue(argc, argv, "--theta")) {
      wopts.zipf_theta = std::strtod(theta, nullptr);
    }
    if (const char* k = FlagValue(argc, argv, "--khop")) {
      wopts.khop_k = std::atoi(k);
    }
    requests = server::SyntheticWorkload(wopts);
  }
  long deadline_ms = 0;
  if (const char* d = FlagValue(argc, argv, "--deadline-ms")) {
    deadline_ms = std::strtol(d, nullptr, 10);
  }

  obs::Tracer& tracer = obs::Tracer::Global();
  const char* trace_out = FlagValue(argc, argv, "--trace-out");
  if (trace_out != nullptr) {
    tracer.set_sample_interval(trace_interval);
    Status opened = tracer.OpenSink(trace_out);
    if (!opened.ok()) return Fail(opened);
    std::printf("tracing 1-in-%llu requests to %s\n",
                static_cast<unsigned long long>(trace_interval), trace_out);
  }
  if (admin_enabled) {
    // The /tracez ring: every request collects its span tree in memory;
    // the ring keeps the last N plus everything over the slow threshold.
    obs::TraceRingOptions ring_opts;
    ring_opts.slow_threshold_us = slow_us;
    tracer.EnableRing(ring_opts);
  }
  if (profile_hz > 0) {
    Status started =
        obs::Profiler::Global().Start(static_cast<int>(profile_hz));
    if (!started.ok()) return Fail(started);
  }

  long auto_compact_backlog = 0;
  if (const char* n = FlagValue(argc, argv, "--auto-compact-backlog")) {
    auto_compact_backlog = std::strtol(n, nullptr, 10);
    if (auto_compact_backlog <= 0) {
      std::fprintf(stderr, "wgserve: --auto-compact-backlog must be > 0\n");
      return 1;
    }
    if (snapshot == nullptr) {
      std::fprintf(stderr,
                   "wgserve: --auto-compact-backlog requires --snapshot\n");
      return 1;
    }
  }

  server::QueryService service(ctx, sopts);
  // In snapshot mode the forward representation is the live generation,
  // installed via SwapForward so later flips follow the same path; a
  // poller watches CURRENT and flips when another process compacts.
  std::atomic<bool> stop_poller{false};
  std::thread poller;
  if (snapshot != nullptr) {
    service.SwapForward(version::ReprOf(manager->current()));
    poller = std::thread([&] {
      uint64_t live = manager->current()->manifest.generation;
      bool degraded_state = false;
      int compact_backoff = 0;
      while (!stop_poller.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (auto_compact_backlog > 0) {
          // Fold the delta backlog in-process once it crosses the
          // threshold. Compact() installs the new generation in this
          // manager, so the Refresh below sees it and runs the exact
          // same flip path an external `wgtool compact` would take.
          // Tail the on-disk log first: the backlog usually grows in
          // another process (wgtool delta-apply), invisible to this
          // manager's in-memory record count until tailed. A failed
          // tail only leaves the count stale for this tick.
          if (compact_backoff > 0) {
            --compact_backoff;
          } else if (manager->TailLog().ok() &&
                     manager->pending_records() >=
                         static_cast<uint64_t>(auto_compact_backlog)) {
            uint64_t backlog = manager->pending_records();
            auto compacted = manager->Compact();
            if (!compacted.ok()) {
              // Persistent failures (full disk, corrupt log) must not
              // hot-loop a compaction every tick: back off ~5 s.
              compact_backoff = 50;
              std::fprintf(stderr, "auto-compact failed, backing off: %s\n",
                           compacted.status().ToString().c_str());
            } else {
              std::printf(
                  "auto-compact: folded %llu pending records into "
                  "generation %llu\n",
                  static_cast<unsigned long long>(backlog),
                  static_cast<unsigned long long>(
                      compacted.value()->manifest.generation));
            }
          }
        }
        auto refreshed = manager->Refresh();
        if (!refreshed.ok()) {
          // A non-corruption failure is a mid-publish race; retry next
          // tick. Corruption means the new generation failed its
          // pre-install scrub: hold the last good one and flag degraded.
          if (refreshed.status().code() == StatusCode::kCorruption &&
              !degraded_state) {
            degraded_state = true;
            write_health(true, refreshed.status().ToString());
            std::fprintf(stderr,
                         "degraded: keeping generation %llu; refused flip: "
                         "%s\n",
                         static_cast<unsigned long long>(live),
                         refreshed.status().ToString().c_str());
          }
          continue;
        }
        if (degraded_state) {
          degraded_state = false;
          write_health(false, "");
          std::printf("recovered: flip path healthy again\n");
        }
        uint64_t generation = refreshed.value()->manifest.generation;
        if (generation == live) continue;
        live = generation;
        {
          std::lock_guard<std::mutex> lock(health.mu);
          health.generation = generation;
        }
        if (health_file != nullptr || admin_enabled) {
          // Re-publish the health line so probes see the new generation.
          bool dg;
          {
            std::lock_guard<std::mutex> lock(health.mu);
            dg = health.degraded;
          }
          write_health(dg, "");
        }
        service.SwapForward(version::ReprOf(refreshed.value()));
        std::printf("flipped to generation %llu (%zu pages, %llu links)\n",
                    static_cast<unsigned long long>(generation),
                    refreshed.value()->repr->num_pages(),
                    static_cast<unsigned long long>(
                        refreshed.value()->repr->num_edges()));
      }
    });
  }

  // The serving repr the introspection plane reports on: the live
  // generation in snapshot mode (aliasing pointer keeps it pinned for the
  // duration of one handler call), the built store otherwise.
  auto current_snode = [&]() -> std::shared_ptr<SNodeRepr> {
    if (manager != nullptr) {
      version::GenerationPtr generation = manager->current();
      return std::shared_ptr<SNodeRepr>(generation,
                                        generation->repr.get());
    }
    return forward;
  };

  // ---- Live introspection plane (--admin-port) ----
  obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  std::unique_ptr<obs::AdminServer> admin;
  if (admin_enabled) {
    obs::AdminServerOptions aopts;
    aopts.port = static_cast<uint16_t>(admin_port);
    admin = std::make_unique<obs::AdminServer>(aopts);
    obs::RegisterIntrospection(*admin, registry);
    admin->Handle("/healthz", [&](const obs::AdminRequest&) {
      obs::AdminResponse response;
      bool degraded;
      std::string reason;
      uint64_t generation;
      {
        std::lock_guard<std::mutex> lock(health.mu);
        degraded = health.degraded;
        reason = health.reason;
        generation = health.generation;
      }
      IntegrityCounters& integrity = IntegrityCounters::Get();
      std::shared_ptr<SNodeRepr> repr = current_snode();
      char buf[512];
      int n = std::snprintf(
          buf, sizeof(buf),
          "%s generation=%llu%s%s\n"
          "generation: %llu\n"
          "degraded: %d\n"
          "reason: %s\n"
          "quarantined_sections: %zu\n"
          "checksum_failures: %llu\n"
          "sigbus_faults: %llu\n"
          "mmap_fallbacks: %llu\n",
          degraded ? "degraded" : "ok",
          static_cast<unsigned long long>(generation),
          degraded && !reason.empty() ? " reason=" : "",
          degraded ? reason.c_str() : "",
          static_cast<unsigned long long>(generation), degraded ? 1 : 0,
          reason.empty() ? "-" : reason.c_str(),
          repr != nullptr ? repr->QuarantinedSectionCount() : 0,
          static_cast<unsigned long long>(integrity.checksum_failures),
          static_cast<unsigned long long>(integrity.sigbus_faults),
          static_cast<unsigned long long>(integrity.mmap_fallbacks));
      response.body.assign(buf, n);
      if (degraded) response.status = 503;
      return response;
    });
    admin->Handle("/statusz", [&](const obs::AdminRequest&) {
      obs::AdminResponse response;
      double uptime = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_time)
                          .count();
      std::string& body = response.body;
      char buf[256];
      body += "wgserve statusz\n";
      std::snprintf(buf, sizeof(buf), "uptime_s: %.1f\n", uptime);
      body += buf;
      std::snprintf(buf, sizeof(buf), "build: %s, C++ %ld\n", __VERSION__,
                    static_cast<long>(__cplusplus));
      body += buf;
      std::snprintf(buf, sizeof(buf), "mode: %s\n",
                    manager != nullptr ? "snapshot" : "local-build");
      body += buf;
      {
        std::lock_guard<std::mutex> lock(health.mu);
        std::snprintf(buf, sizeof(buf), "generation: %llu\n",
                      static_cast<unsigned long long>(health.generation));
        body += buf;
      }
      std::shared_ptr<SNodeRepr> repr = current_snode();
      if (repr != nullptr) {
        std::snprintf(buf, sizeof(buf), "pages: %zu\nedges: %llu\n",
                      repr->num_pages(),
                      static_cast<unsigned long long>(repr->num_edges()));
        body += buf;
        std::snprintf(
            buf, sizeof(buf),
            "cache_bytes: %zu / %zu (%.1f%%)\npinned_entries: %zu\n",
            repr->buffer_bytes_used(), repr->buffer_budget(),
            repr->buffer_budget() == 0
                ? 0.0
                : 100.0 * static_cast<double>(repr->buffer_bytes_used()) /
                      static_cast<double>(repr->buffer_budget()),
            repr->PinnedCacheEntries());
        body += buf;
      }
      std::snprintf(buf, sizeof(buf), "workers: %zu\nqueue_capacity: %zu\n",
                    service.num_workers(), sopts.queue_capacity);
      body += buf;
      obs::Profiler& profiler = obs::Profiler::Global();
      std::snprintf(buf, sizeof(buf), "profiler: %s, %d hz, %llu samples\n",
                    profiler.running() ? "on" : "off", profiler.hz(),
                    static_cast<unsigned long long>(profiler.samples()));
      body += buf;
      std::snprintf(
          buf, sizeof(buf), "tracez: %s, %llu traces\n",
          tracer.ring_enabled() ? "on" : "off",
          static_cast<unsigned long long>(tracer.ring().traces_seen()));
      body += buf;
      std::snprintf(buf, sizeof(buf), "metric_series: %zu\n",
                    registry.num_series());
      body += buf;
      return response;
    });
    Status started = admin->Start();
    if (!started.ok()) return Fail(started);
    std::printf("admin: listening on 127.0.0.1:%u\n", admin->port());
    std::fflush(stdout);  // piped probes parse this line before scraping
  }

  // ---- Periodic metrics dump (--metrics-out) ----
  const char* metrics_out = FlagValue(argc, argv, "--metrics-out");
  auto dump_metrics = [&]() -> Status {
    if (metrics_out == nullptr) return Status::OK();
    std::string path = metrics_out;
    bool json = path.size() >= 5 &&
                path.compare(path.size() - 5, 5, ".json") == 0;
    return WriteFileAtomic(path,
                           json ? registry.JsonText()
                                : registry.PrometheusText());
  };
  std::atomic<bool> stop_metrics_writer{false};
  std::thread metrics_writer;
  if (metrics_out != nullptr && metrics_interval > 0) {
    metrics_writer = std::thread([&] {
      auto last = std::chrono::steady_clock::now();
      while (!stop_metrics_writer.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        auto now = std::chrono::steady_clock::now();
        if (now - last < std::chrono::seconds(metrics_interval)) continue;
        last = now;
        Status written = dump_metrics();
        if (!written.ok()) {
          std::fprintf(stderr, "warning: metrics dump: %s\n",
                       written.ToString().c_str());
        }
      }
    });
  }

  std::printf("serving %zu requests on %zu workers (queue %zu)...\n",
              requests.size(), sopts.num_workers, sopts.queue_capacity);

  // Closed-loop driver: keep at most one queue's worth of requests
  // outstanding so the admission queue exercises depth, not overflow.
  // (Overflow behaviour is what --deadline-ms and the tests poke at.)
  auto start = std::chrono::steady_clock::now();
  size_t tally[4] = {0, 0, 0, 0};
  uint64_t pages_returned = 0;
  size_t total = requests.size();
  std::deque<std::future<server::Response>> outstanding;
  auto harvest = [&] {
    server::Response response = outstanding.front().get();
    outstanding.pop_front();
    ++tally[static_cast<int>(response.code)];
    pages_returned += response.pages.size();
  };
  for (server::Request request : requests) {
    if (deadline_ms > 0) {
      request.deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(deadline_ms);
    }
    if (outstanding.size() >= sopts.queue_capacity) harvest();
    outstanding.push_back(service.Submit(request));
  }
  while (!outstanding.empty()) harvest();
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (linger_seconds > 0) {
    std::printf("lingering %ld s (admin plane stays up)...\n",
                linger_seconds);
    std::fflush(stdout);
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::seconds(linger_seconds);
    while (std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  if (poller.joinable()) {
    stop_poller.store(true, std::memory_order_relaxed);
    poller.join();
  }
  service.Shutdown();

  std::printf("\noutcome:\n");
  for (int c = 0; c < 4; ++c) {
    std::printf("  %-18s %zu\n",
                server::ResponseCodeName(static_cast<server::ResponseCode>(c)),
                tally[c]);
  }
  std::printf("pages returned:     %llu\n",
              static_cast<unsigned long long>(pages_returned));
  std::printf("wall time:          %.3f s (%.0f req/s)\n", seconds,
              total / seconds);
  // Every request's views were dropped with its response, so no cache
  // entry may still be pinned (and the live-view gauges must be back to
  // zero); nonzero here means a leaked pin.
  if (snapshot != nullptr) {
    std::printf("pinned cache entries after drain: %zu (generation %llu)\n",
                manager->current()->repr->PinnedCacheEntries(),
                static_cast<unsigned long long>(
                    manager->current()->manifest.generation));
  } else {
    std::printf("pinned cache entries after drain: %zu fwd, %zu bwd\n",
                forward->PinnedCacheEntries(),
                backward->PinnedCacheEntries());
  }
  std::printf("\n%s\n", service.Snapshot().ToString().c_str());

  if (admin != nullptr) {
    std::printf("admin: served %llu requests\n",
                static_cast<unsigned long long>(admin->requests_served()));
    admin->Stop();
  }
  if (profile_hz > 0) obs::Profiler::Global().Stop();
  if (metrics_writer.joinable()) {
    stop_metrics_writer.store(true, std::memory_order_relaxed);
    metrics_writer.join();
  }

  if (trace_out != nullptr) {
    uint64_t spans = tracer.spans_written();
    Status closed = tracer.Close();
    if (!closed.ok()) return Fail(closed);
    std::printf("trace: %llu spans -> %s\n",
                static_cast<unsigned long long>(spans), trace_out);
  }
  if (metrics_out != nullptr) {
    Status written = dump_metrics();
    if (!written.ok()) return Fail(written);
    std::printf("metrics: %zu series -> %s (%s)\n", registry.num_series(),
                metrics_out,
                std::string(metrics_out).size() >= 5 &&
                        std::string(metrics_out).compare(
                            std::string(metrics_out).size() - 5, 5,
                            ".json") == 0
                    ? "json"
                    : "prometheus");
  }
  return 0;
}

}  // namespace
}  // namespace wg

int main(int argc, char** argv) { return wg::Main(argc, argv); }
