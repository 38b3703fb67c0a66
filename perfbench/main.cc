// End-to-end and per-layer benchmark of the S-Node store.
//
//   perfbench --workload serve-hot|cold --seed N --seconds S
//             --trace 0|1 [--smoke 0|1] --workdir DIR
//
// Every run sets the store up several times from the seed. For the first
// three quarters of --seconds it then cycles through the timed phases, so
// that each is sampled across the whole span rather than in one burst:
// the in-RAM build, the out-of-core build in a child process, the first
// sweep from cold with its storage/decode replays, and, spread evenly
// over the span, the delta rounds with compaction on a snapshot. The six
// Table-3 queries from cold follow, then open-loop serving at a fixed
// rate for the last quarter. Every answer is checked against a
// computation made apart from the store. The last line of stdout is one
// JSON object: correct, attempted, failed and the metrics (end-to-end
// ones untraced, per-layer ones traced).

#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "common.h"
#include "phases.h"
#include "serve.h"

namespace pb {
namespace {

namespace fs = std::filesystem;

// The workloads. Every workload runs the same measured span; they differ
// in what the queries and the serving phase read. The fixed rates sit far
// below what the service sustains on a 4-core host, so that a stall of
// the host leaves no backlog that outlasts it (perfbench/README.md).
const Config kConfigs[] = {
    // Cache holds the whole decoded store and is primed: serving measures
    // queue, worker pool, cursor and cache locks, not storage or decode.
    {.name = "serve-hot",
     .pages = 40000,
     .mmap = false,
     .cache_fraction = 0,
     .zipf_theta = 0.8,
     .fixed_rate = 20000,
     .rounds = 40},
    // Mapped store, cache a sixteenth of the decoded store, uniform
    // popularity: serving is miss-heavy and storage/decode dominate.
    {.name = "cold",
     .pages = 40000,
     .mmap = true,
     .cache_fraction = 1.0 / 16,
     .zipf_theta = 0.0,
     .fixed_rate = 2000,
     .rounds = 40},
};

constexpr int kSetups = 3;
// Cycles of the measured span, at the least, however short --seconds is.
constexpr int kMinCycles = 5;
constexpr int kQueryReps = 10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  // a tiny crawl, for a quick end-to-end check
  std::string workdir = ".bench_build";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--smoke") {
      a.smoke = value == "1";
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload) Die("--workload is required");
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

void Put(Metrics* m, const std::string& name, double value,
         const std::string& unit) {
  (*m)[name] = {value, unit};
}

int Run(const Args& args) {
  Config smoke_cfg;
  const Config* cfg = nullptr;
  for (const Config& c : kConfigs) {
    if (c.name == args.workload) cfg = &c;
  }
  if (cfg == nullptr) Die("unknown workload " + args.workload);
  if (args.smoke) {
    // Still large enough for the 2 MiB streaming budget to spill.
    smoke_cfg = *cfg;
    smoke_cfg.pages = 20000;
    smoke_cfg.rounds = 2;
    cfg = &smoke_cfg;
  }
  if (args.trace) SpanLog::Get().Enable();
  wg::Env::Install(&GlobalSyncTimer());
  const std::string work =
      args.workdir + "/work-" + std::to_string(getpid());

  // Set-up, several times: setup_s and the set-up's own figures are the
  // median.
  std::vector<double> setup_s, generate_s, refine_s, encode_s, layout_s,
      create_s;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    world = SetUp(*cfg, args.seed, work + "/w");
    setup_s.push_back(world->setup_s);
    generate_s.push_back(world->generate_s);
    refine_s.push_back(world->fwd_stats.refine_seconds);
    encode_s.push_back(world->fwd_stats.encode_seconds);
    layout_s.push_back(world->fwd_stats.layout_seconds);
    create_s.push_back(world->snapshot_create_s);
  }
  LogPhase("setup");
  Outcome outcome;

  // Every phase reads the freshly built stores; a fresh open of one is
  // the cold state of the sweeps, replays and queries.
  const size_t decoded_bytes = world->decoded_bytes;
  auto open_plain = [&](const std::string& base) {
    return [base, budget = CacheBudget(*cfg, decoded_bytes)](bool mmap) {
      wg::SNodeBuildOptions opts;
      opts.store.mmap = mmap;
      opts.buffer_bytes = budget;
      return Unwrap(wg::SNodeRepr::Open(base, opts), "open " + base);
    };
  };
  ReadTarget target;
  target.fwd = world->fwd.get();
  target.bwd = world->bwd.get();
  target.open_fwd = open_plain(world->dir + "/fwd/sn");
  target.open_bwd = open_plain(world->dir + "/bwd/sn");
  target.mmap = cfg->mmap;
  target.graph = &world->graph;
  target.transpose = &world->transpose;
  target.snode_ctx = {target.fwd,         target.bwd,
                      &world->graph,      world->corpus.get(),
                      world->index.get(), &world->pagerank};
  target.baseline_ctx = target.snode_ctx;
  target.baseline_ctx.forward = world->base_fwd.get();
  target.baseline_ctx.backward = world->base_bwd.get();

  // The measured span. The host's speed wanders by a third from one
  // second to the next, and for tens of seconds at a time (README
  // "Steadiness"), so each phase is repeated across the whole span and
  // reported as the median of its repetitions. Round r of the delta
  // rounds runs at the end of the first cycle that ends after r / rounds
  // of the span.
  std::vector<double> build_s, sweep_ns, read_ns, decode_ns;
  std::vector<StreamingResult> streams;
  DeltaRounds rounds_run(world.get(), args.seed, &outcome);
  const double span_s = args.seconds * 3 / 4;
  const double span_start = NowSeconds();
  for (int i = 0;; ++i) {
    const double elapsed = NowSeconds() - span_start;
    if (i >= kMinCycles && elapsed >= span_s) break;
    build_s.push_back(TimeForwardBuild(*world, world->dir + "/fwd/extra"));
    streams.push_back(RunStreamingBuild(*world, i, &outcome));
    PinToCpu(i);
    sweep_ns.push_back(ColdSweep(target, &outcome).ns_per_edge);
    ReplayResult replay = ReplayStoreAndDecode(target, &outcome);
    read_ns.push_back(replay.read_ns_per_edge);
    decode_ns.push_back(replay.decode_ns_per_edge);
    PinToCpu(-1);
    while (rounds_run.done() < cfg->rounds &&
           NowSeconds() - span_start >=
               span_s * rounds_run.done() / cfg->rounds) {
      rounds_run.RunRound();
    }
  }
  const size_t cycles = build_s.size();
  while (rounds_run.done() < cfg->rounds) rounds_run.RunRound();
  RoundsResult rounds = rounds_run.Finish();
  LogPhase("measured span");
  auto stream_median = [&](double StreamingResult::*field) {
    std::vector<double> v;
    for (const StreamingResult& s : streams) v.push_back(s.*field);
    return Median(v);
  };

  PrepareForServing(*cfg, target.fwd, target.bwd, decoded_bytes);
  QueriesResult queries = RunQueries(target, kQueryReps, &outcome);
  LogPhase("queries");

  PrepareForServing(*cfg, target.fwd, target.bwd, decoded_bytes);
  ServeTarget serve;
  serve.forward = target.fwd;
  serve.backward = target.bwd;
  serve.graph = target.graph;
  serve.transpose = target.transpose;
  serve.zipf_theta = cfg->zipf_theta;
  serve.workers = BuildThreads();
  serve.traced = args.trace;
  // Peak RSS of set-up, builds, rounds and reads; the serving phase's
  // own bookkeeping (per-request records) is the benchmark's, not the
  // store's, so it is left out.
  const double peak_rss_mb = PeakRssMb();
  LoadResult fixed = RunOpenLoop(serve, cfg->fixed_rate,
                                 args.seconds - span_s, args.seed, &outcome);
  LogPhase("serve");
  // Serving latency is not an end-to-end metric: on `cold` it was not
  // steady (README "What was left out"). The line gives it for reading.
  std::printf(
      "serve: %zu requests at %.0f req/s, %zu latency samples, p50 %.6f ms "
      "(median window), %.6f ms (run)\n",
      fixed.sent, cfg->fixed_rate, fixed.ok, fixed.p50_window_median_ms,
      fixed.p50_ms);

  Metrics m;
  if (!args.trace) {
    Put(&m, "setup_s", Median(setup_s), "s");
    Put(&m, "peak_rss_mb", peak_rss_mb, "MB");
    Put(&m, "scan_ns_per_edge", Median(sweep_ns), "ns/edge");
    Put(&m, "build_s", Median(build_s), "s");
    Put(&m, "build_streaming_s", stream_median(&StreamingResult::seconds),
        "s");
    Put(&m, "build_streaming_peak_rss_mb",
        stream_median(&StreamingResult::peak_rss_mb), "MB");
    // Rounds differ in the work they do, so the figure is their mean: the
    // compaction time per round.
    Put(&m, "compact_s", Mean(rounds.compact_s), "s");
    Put(&m, "bits_per_edge", world->fwd->BitsPerEdge(), "bits/edge");
  } else {
    Put(&m, "load.lateness_p99_ms", fixed.lateness_p99_ms, "ms");
    Put(&m, "server.latency_p99_ms", fixed.server_latency_p99_ms, "ms");
    Put(&m, "server.queue_wait_us", fixed.queue_wait_us, "us");
    Put(&m, "repr.cursor_us_per_req", fixed.cursor_us_per_req, "us");
    Put(&m, "repr.links_calls_per_req", fixed.links_calls_per_req, "count");
    Put(&m, "repr.links_ns_per_call", fixed.links_ns_per_call, "ns");
    Put(&m, "snode.cache_hit_rate", fixed.cache_hit_rate, "ratio");
    Put(&m, "snode.cache_misses_per_req", fixed.cache_misses_per_req, "count");
    Put(&m, "snode.graphs_loaded_per_req", fixed.graphs_loaded_per_req,
        "count");
    Put(&m, "snode.assembles_per_req", fixed.assembles_per_req, "count");
    Put(&m, "storage.reads_per_req", fixed.reads_per_req, "count");
    Put(&m, "storage.bytes_read_per_req", fixed.bytes_read_per_req, "bytes");
    double read = Median(read_ns), decode = Median(decode_ns);
    Put(&m, "storage.read_ns_per_edge", read, "ns/edge");
    Put(&m, "snode.decode_ns_per_edge", decode, "ns/edge");
    Put(&m, "snode.assemble_ns_per_edge", Median(sweep_ns) - read - decode,
        "ns/edge");
    for (int q = 0; q < wg::kNumQueries; ++q) {
      std::string n = std::to_string(q + 1);
      Put(&m, "query.nav_ms.q" + n, queries.nav_ms[q], "ms");
      Put(&m, "query.graphs_loaded.q" + n, queries.graphs_loaded[q], "count");
    }
    Put(&m, "graph.generate_s", Median(generate_s), "s");
    Put(&m, "snode.refine_s", Median(refine_s), "s");
    Put(&m, "snode.encode_s", Median(encode_s), "s");
    Put(&m, "snode.layout_s", Median(layout_s), "s");
    Put(&m, "snode.store_bytes", double(world->fwd->store().total_bytes()),
        "bytes");
    Put(&m, "streaming.ingest_s", stream_median(&StreamingResult::ingest_s),
        "s");
    Put(&m, "streaming.refine_s", stream_median(&StreamingResult::refine_s),
        "s");
    Put(&m, "streaming.encode_s", stream_median(&StreamingResult::encode_s),
        "s");
    Put(&m, "streaming.sort_runs",
        stream_median(&StreamingResult::sort_runs), "count");
    Put(&m, "streaming.ingest_peak_rss_mb",
        stream_median(&StreamingResult::ingest_rss_mb), "MB");
    Put(&m, "streaming.refine_peak_rss_mb",
        stream_median(&StreamingResult::refine_rss_mb), "MB");
    Put(&m, "streaming.encode_peak_rss_mb",
        stream_median(&StreamingResult::encode_rss_mb), "MB");
    Put(&m, "query.nav_ms.sum", queries.total_nav_ms, "ms");
    Put(&m, "version.create_s", Median(create_s), "s");
    Put(&m, "version.compact_sync_ms", Mean(rounds.compact_sync_s) * 1e3,
        "ms");
    Put(&m, "version.dirty_blob_share", rounds.dirty_blob_share, "ratio");
    Put(&m, "version.bytes_written_per_delta", rounds.bytes_written_per_delta,
        "bytes");
    // The traced run's own end-to-end figures, for the tracing overhead.
    Put(&m, "trace.serve_p50_ms", fixed.p50_window_median_ms, "ms");
    Put(&m, "trace.serve_p50_run_ms", fixed.p50_ms, "ms");
    Put(&m, "trace.serve_p99_ms", fixed.p99_ms, "ms");
    Put(&m, "trace.spans", double(SpanLog::Get().size()), "count");
    std::string trace_dir = args.workdir + "/traces";
    std::error_code ec;
    fs::create_directories(trace_dir, ec);
    std::string path = trace_dir + "/" + cfg->name + "-seed" +
                       std::to_string(args.seed) + ".json";
    DieIf(SpanLog::Get().WriteTraceEvents(path), "write trace");
    std::printf("trace: %zu spans -> %s\n", SpanLog::Get().size(),
                path.c_str());
  }
  std::printf("measured span: %zu cycles\n", cycles);
  std::printf("delta rounds: %zu, %.1f records each, dirty blob share %.4f\n",
              rounds.compact_s.size(), rounds.records_per_round,
              rounds.dirty_blob_share);

  // Drop every store before removing their files.
  target = ReadTarget();
  world.reset();
  std::error_code ec;
  fs::remove_all(work, ec);

  for (const auto& [name, metric] : m) {
    std::printf("%-34s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--stream-child") == 0) {
    return pb::StreamChildMain(argc, argv);
  }
  return pb::Run(pb::ParseArgs(argc, argv));
}
