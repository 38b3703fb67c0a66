#include "phases.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>

#include "graph/edge_source.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
#include "snode/codecs.h"
#include "snode/streaming_build.h"
#include "text/pagerank.h"
#include "util/parallel.h"

extern char** environ;

namespace pb {

namespace fs = std::filesystem;
using wg::PageId;

int BuildThreads() { return wg::ParallelExecutor::HardwareThreads(); }

size_t DecodeAll(wg::SNodeRepr* repr) {
  std::unique_ptr<wg::AdjacencyCursor> cursor = repr->NewCursor();
  wg::LinkView view;
  for (size_t i = 0; i < repr->num_pages(); ++i) {
    DieIf(cursor->Links(repr->PageInNaturalOrder(i), &view), "warm sweep");
  }
  return repr->buffer_bytes_used();
}

namespace {

// Compares every page's links served by `repr` with `want` (page -> list).
template <typename Want>
void CheckAllPages(wg::GraphRepresentation* repr, size_t num_pages,
                   const Want& want, const std::string& what,
                   Outcome* outcome) {
  std::unique_ptr<wg::AdjacencyCursor> cursor = repr->NewCursor();
  wg::LinkView view;
  size_t wrong = 0;
  for (PageId p = 0; p < num_pages; ++p) {
    if (!outcome->Check(cursor->Links(p, &view), what)) continue;
    const auto& expect = want(p);
    if (view.size() != expect.size() ||
        !std::equal(view.begin(), view.end(), expect.begin())) {
      ++wrong;
    }
  }
  if (wrong > 0) {
    outcome->Wrong(what + ": " + std::to_string(wrong) +
                   " pages differ from the delta model");
  }
}

bool SameFileBytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::string ca((std::istreambuf_iterator<char>(fa)), {});
  std::string cb((std::istreambuf_iterator<char>(fb)), {});
  return ca == cb;
}

double SecondsSince(Clock::time_point t0) {
  return SecondsBetween(t0, Clock::now());
}

}  // namespace

void BuildDerived(World* w) {
  std::error_code ec;
  for (const char* sub : {"/fwd", "/bwd", "/base"}) {
    fs::create_directories(w->dir + sub, ec);
    if (ec) Die("cannot create " + w->dir + sub + ": " + ec.message());
  }
  w->transpose = w->graph.Transpose();
  w->corpus = std::make_unique<wg::Corpus>(
      wg::Corpus::Generate(w->graph, wg::CorpusOptions()));
  w->index =
      std::make_unique<wg::InvertedIndex>(wg::InvertedIndex::Build(*w->corpus));
  w->pagerank = wg::ComputePageRank(w->graph);

  wg::SNodeBuildOptions opts;
  opts.threads = BuildThreads();
  opts.buffer_bytes = size_t{1} << 30;
  {
    Span s("snode.build", "snode");
    Clock::time_point t0 = Clock::now();
    w->fwd = Unwrap(wg::SNodeRepr::Build(w->graph, w->dir + "/fwd/sn", opts,
                                         &w->fwd_stats),
                    "forward build");
    w->build_s = SecondsSince(t0);
    DieIf(w->fwd->SaveMeta(), "forward meta");
  }
  w->bwd = Unwrap(wg::SNodeRepr::Build(w->transpose, w->dir + "/bwd/sn", opts),
                  "backward build");
  DieIf(w->bwd->SaveMeta(), "backward meta");

  wg::UncompressedFileRepr::Options base_opts;
  w->base_fwd = Unwrap(
      wg::UncompressedFileRepr::Build(w->graph, w->dir + "/base/f", base_opts),
      "baseline forward");
  w->base_bwd = Unwrap(wg::UncompressedFileRepr::Build(
                           w->transpose, w->dir + "/base/b", base_opts),
                       "baseline backward");
}

double TimeForwardBuild(const World& w, const std::string& base) {
  wg::SNodeBuildOptions opts;
  opts.threads = BuildThreads();
  opts.buffer_bytes = size_t{1} << 30;
  Span s("snode.build", "snode");
  Clock::time_point t0 = Clock::now();
  Unwrap(wg::SNodeRepr::Build(w.graph, base, opts), "forward build");
  return SecondsSince(t0);
}

std::unique_ptr<World> SetUp(const Config& cfg, uint64_t seed,
                             const std::string& dir) {
  Span span("setup", "setup");
  Clock::time_point start = Clock::now();
  std::error_code ec;
  fs::remove_all(dir, ec);
  auto w = std::make_unique<World>();
  w->dir = dir;
  {
    Span s("graph.generate", "graph");
    Clock::time_point t0 = Clock::now();
    wg::GeneratorOptions gopts;
    gopts.num_pages = cfg.pages;
    gopts.seed = seed;
    w->graph = wg::GenerateWebGraph(gopts);
    w->generate_s = SecondsSince(t0);
  }
  BuildDerived(w.get());
  w->decoded_bytes = DecodeAll(w->fwd.get()) + DecodeAll(w->bwd.get());

  // Snapshot and compaction builds keep wgtool's default of one thread.
  wg::version::SnapshotOptions sopts;
  sopts.build.threads = 1;
  {
    Span s("version.create", "version");
    Clock::time_point t0 = Clock::now();
    w->snap = Unwrap(
        wg::version::SnapshotManager::Create(dir + "/snap", w->graph, sopts),
        "snapshot create");
    w->snapshot_create_s = SecondsSince(t0);
  }
  DieIf(wg::SaveWebGraph(w->graph, dir + "/crawl.wgg"), "save crawl");
  w->setup_s = SecondsSince(start);
  return w;
}

size_t CacheBudget(const Config& cfg, size_t decoded_bytes) {
  if (cfg.cache_fraction == 0) return decoded_bytes;
  return std::max<size_t>(
      64 << 10, static_cast<size_t>(decoded_bytes / 2 * cfg.cache_fraction));
}

void PrepareForServing(const Config& cfg, wg::SNodeRepr* fwd,
                       wg::SNodeRepr* bwd, size_t decoded_bytes) {
  for (wg::SNodeRepr* r : {fwd, bwd}) {
    if (cfg.mmap) DieIf(r->MapStoreForRead(), "map store");
    r->set_buffer_budget(CacheBudget(cfg, decoded_bytes));
    r->ClearCache();
    if (cfg.cache_fraction == 0) DecodeAll(r);
  }
}

int StreamChildMain(int argc, char** argv) {
  if (argc != 6) {
    std::fprintf(stderr, "usage: --stream-child CRAWL BASE BUDGET THREADS\n");
    return 2;
  }
  wg::FileEdgeSource source(argv[2]);
  wg::SNodeBuildOptions opts;
  opts.threads = std::atoi(argv[5]);
  opts.buffer_bytes = size_t{1} << 30;
  wg::BuildMemoryBudget budget;
  budget.total_bytes = std::strtoull(argv[4], nullptr, 10);
  wg::StreamingBuildReport report;
  Clock::time_point t0 = Clock::now();
  auto repr = wg::BuildStreaming(&source, argv[3], opts, budget, nullptr,
                                 &report);
  if (!repr.ok()) {
    std::fprintf(stderr, "streaming build: %s\n",
                 repr.status().ToString().c_str());
    return 1;
  }
  wg::Status saved = repr.value()->SaveMeta();
  if (!saved.ok()) {
    std::fprintf(stderr, "streaming meta: %s\n", saved.ToString().c_str());
    return 1;
  }
  double seconds = SecondsSince(t0);
  std::printf("stream %.9f %.6f %zu", seconds,
              wg::CurrentPeakRssBytes() / (1024.0 * 1024.0),
              report.initial_sort_runs);
  for (const wg::StreamingBuildPhase& phase : report.phases) {
    std::printf(" %s %.9f %.6f", phase.name.c_str(), phase.seconds,
                phase.peak_rss_bytes / (1024.0 * 1024.0));
  }
  std::printf("\n");
  return 0;
}

StreamingResult RunStreamingBuild(const World& world, int rep,
                                  Outcome* outcome) {
  // A budget of 2 MiB gives the external sort a 1 MiB run buffer, which
  // the crawl's sort keys overflow, so the sort spills.
  const size_t kBudget = size_t{2} << 20;
  std::string out_dir = world.dir + "/stream" + std::to_string(rep);
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  std::string base = out_dir + "/sn";
  std::string exe = fs::read_symlink("/proc/self/exe", ec).string();
  if (ec) Die("cannot locate the benchmark binary");
  std::string budget = std::to_string(kBudget);
  std::string threads = std::to_string(BuildThreads());
  std::string crawl = world.dir + "/crawl.wgg";
  const char* args[] = {exe.c_str(),    "--stream-child", crawl.c_str(),
                        base.c_str(),   budget.c_str(),   threads.c_str(),
                        nullptr};
  int pipefd[2];
  if (pipe(pipefd) != 0) Die("pipe");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipefd[1], 1);
  posix_spawn_file_actions_addclose(&actions, pipefd[0]);
  pid_t pid = 0;
  double t0 = NowSeconds();
  int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                       const_cast<char* const*>(args), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipefd[1]);
  if (rc != 0) Die("cannot start the streaming build process");
  std::string out;
  char buf[4096];
  ssize_t got;
  while ((got = read(pipefd[0], buf, sizeof(buf))) > 0) out.append(buf, got);
  close(pipefd[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  SpanLog::Get().Add({"streaming.build", "streaming", 0, ThreadIndex(), t0,
                      NowSeconds() - t0});

  StreamingResult res;
  ++outcome->attempted;
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    outcome->Fail("streaming build process failed");
    return res;
  }
  char tag[16];
  char names[3][16];
  double secs[3] = {}, rss[3] = {};
  int n = std::sscanf(out.c_str(),
                      "%15s %lf %lf %lf %15s %lf %lf %15s %lf %lf %15s %lf %lf",
                      tag, &res.seconds, &res.peak_rss_mb, &res.sort_runs,
                      names[0], &secs[0], &rss[0], names[1], &secs[1], &rss[1],
                      names[2], &secs[2], &rss[2]);
  if (n != 13) Die("unexpected streaming build report: " + out);
  for (int i = 0; i < 3; ++i) {
    double* dst_s = nullptr;
    double* dst_rss = nullptr;
    if (std::strcmp(names[i], "ingest") == 0) {
      dst_s = &res.ingest_s, dst_rss = &res.ingest_rss_mb;
    } else if (std::strcmp(names[i], "refine") == 0) {
      dst_s = &res.refine_s, dst_rss = &res.refine_rss_mb;
    } else if (std::strcmp(names[i], "encode") == 0) {
      dst_s = &res.encode_s, dst_rss = &res.encode_rss_mb;
    }
    if (dst_s == nullptr) Die(std::string("unknown phase ") + names[i]);
    *dst_s = secs[i];
    *dst_rss = rss[i];
  }
  if (res.sort_runs == 0) Die("streaming build did not spill its sort");
  double at = t0;
  for (const auto& [name, secs] : {std::pair{"streaming.ingest", res.ingest_s},
                                   {"streaming.refine", res.refine_s},
                                   {"streaming.encode", res.encode_s}}) {
    SpanLog::Get().Add({name, "streaming", 0, ThreadIndex(), at, secs});
    at += secs;
  }

  // The out-of-core store must be byte-identical to the in-RAM one.
  std::string ref = world.dir + "/fwd/sn";
  std::vector<std::string> suffixes = {".meta"};
  for (int i = 0;; ++i) {
    char sfx[16];
    std::snprintf(sfx, sizeof(sfx), ".%03d", i);
    if (!fs::exists(ref + sfx)) {
      if (fs::exists(base + sfx)) suffixes.push_back(sfx);  // extra file
      break;
    }
    suffixes.push_back(sfx);
  }
  for (const std::string& sfx : suffixes) {
    if (!SameFileBytes(ref + sfx, base + sfx)) {
      outcome->Wrong("streaming store differs from in-RAM store at " + sfx);
    }
  }
  fs::remove_all(out_dir, ec);
  return res;
}

// The benchmark's own model of the crawl under deltas: a plain sorted
// out-link list per page plus tombstones, mutated in step with the
// records it emits.
struct DeltaModel {
  std::vector<std::vector<PageId>> out;
  std::vector<uint8_t> dead;
  std::vector<uint32_t> host;
  std::vector<std::vector<PageId>> pages_of_domain;

  explicit DeltaModel(const wg::WebGraph& g)
      : out(g.num_pages()), dead(g.num_pages(), 0), host(g.num_pages()),
        pages_of_domain(g.num_domains()) {
    for (PageId p = 0; p < g.num_pages(); ++p) {
      auto links = g.OutLinks(p);
      out[p].assign(links.begin(), links.end());
      host[p] = g.host_id(p);
      pages_of_domain[g.domain_id(p)].push_back(p);
    }
  }
  bool Has(PageId a, PageId b) const {
    return std::binary_search(out[a].begin(), out[a].end(), b);
  }
  void Add(PageId a, PageId b) {
    out[a].insert(std::lower_bound(out[a].begin(), out[a].end(), b), b);
  }
  void Remove(PageId a, PageId b) {
    out[a].erase(std::lower_bound(out[a].begin(), out[a].end(), b));
  }
  void Tombstone(PageId p) {
    dead[p] = 1;
    out[p].clear();
    for (auto& list : out) {
      auto it = std::lower_bound(list.begin(), list.end(), p);
      if (it != list.end() && *it == p) list.erase(it);
    }
  }
};

namespace {

// One recrawl batch: two domains revisited, each with new pages linked in,
// a few links dropped and added, and one page removed.
std::vector<wg::version::DeltaRecord> MakeBatch(const wg::WebGraph& g,
                                                DeltaModel* m, int round,
                                                uint64_t seed) {
  using wg::version::DeltaRecord;
  std::mt19937_64 rng(seed * 7919 + round);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  std::vector<DeltaRecord> batch;
  std::vector<uint32_t> domains;
  for (uint32_t d = 0; d < m->pages_of_domain.size(); ++d) {
    if (m->pages_of_domain[d].size() >= 40) domains.push_back(d);
  }
  if (domains.empty()) Die("no domain large enough for delta batches");
  auto live_in = [&](uint32_t d) {
    std::vector<PageId> live;
    for (PageId p : m->pages_of_domain[d]) {
      if (!m->dead[p]) live.push_back(p);
    }
    return live;
  };
  auto add_link = [&](PageId a, PageId b) {
    if (a == b || m->dead[a] || m->dead[b] || m->Has(a, b)) return;
    batch.push_back(DeltaRecord::AddLink(a, b));
    m->Add(a, b);
  };
  PageId tombstone = 0;
  for (int k = 0; k < 2; ++k) {
    // Domains are revisited in a fixed rotation (ids follow size rank), so
    // every seed's rounds touch the same mix of domain sizes.
    uint32_t d = domains[(2 * round + k) % domains.size()];
    std::vector<PageId> live = live_in(d);
    for (int i = 0; i < 3; ++i) {
      PageId id = static_cast<PageId>(m->out.size());
      uint32_t host = m->host[live[pick(live.size())]];
      std::string url = "http://" + g.host_name(host) + "/recrawl/r" +
                        std::to_string(round) + "/p" + std::to_string(k) +
                        "_" + std::to_string(i) + ".html";
      batch.push_back(DeltaRecord::AddPage(id, url, g.host_name(host),
                                           g.domain_name(d)));
      m->out.emplace_back();
      m->dead.push_back(0);
      m->host.push_back(host);
      m->pages_of_domain[d].push_back(id);
      for (int j = 0; j < 6; ++j) add_link(id, live[pick(live.size())]);
      add_link(id, static_cast<PageId>(pick(g.num_pages())));
      for (int j = 0; j < 2; ++j) add_link(live[pick(live.size())], id);
    }
    for (int j = 0; j < 4; ++j) {
      PageId a = live[pick(live.size())];
      if (m->out[a].empty()) continue;
      PageId b = m->out[a][pick(m->out[a].size())];
      batch.push_back(DeltaRecord::RemoveLink(a, b));
      m->Remove(a, b);
    }
    for (int j = 0; j < 8; ++j) {
      add_link(live[pick(live.size())], live[pick(live.size())]);
    }
    if (k == 0) tombstone = live[pick(live.size())];
  }
  batch.push_back(DeltaRecord::RemovePage(tombstone));
  m->Tombstone(tombstone);
  return batch;
}

}  // namespace

DeltaRounds::DeltaRounds(World* world, uint64_t seed, Outcome* outcome)
    : world_(world), seed_(seed), outcome_(outcome),
      model_(std::make_unique<DeltaModel>(world->graph)),
      all_(std::make_unique<wg::version::DeltaOverlay>(
          world->graph.num_pages())) {}

DeltaRounds::~DeltaRounds() = default;

void DeltaRounds::RunRound() {
  const int r = round_++;
  DeltaModel& model = *model_;
  auto want = [&](PageId p) -> const std::vector<PageId>& {
    return model.out[p];
  };
  PinToCpu(r);  // compaction runs on this one thread
  std::vector<wg::version::DeltaRecord> batch =
      MakeBatch(world_->graph, &model, r, seed_);
  records_ += batch.size();
  for (const auto& rec : batch) {
    DieIf(all_->Apply(rec), "delta model rejected its own record");
  }
  ++outcome_->attempted;
  {
    Span s("version.append_deltas", "version");
    if (!outcome_->Check(world_->snap->AppendDeltas(batch), "append deltas")) {
      PinToCpu(-1);
      return;
    }
  }
  wg::version::GenerationPtr gen = world_->snap->current();
  {
    wg::version::DeltaOverlay pending(gen->repr->num_pages());
    DieIf(world_->snap->BuildPendingOverlay(&pending), "pending overlay");
    auto overlay = Unwrap(
        wg::version::OverlayRepresentation::Make(gen->repr.get(), &pending),
        "overlay repr");
    CheckAllPages(overlay.get(), model.out.size(), want,
                  "overlay read before compaction", outcome_);
  }
  ++outcome_->attempted;
  double sync0 = GlobalSyncTimer().SyncSeconds();
  Clock::time_point t0 = Clock::now();
  wg::Result<wg::version::GenerationPtr> next = [&] {
    Span s("version.compact", "version");
    return world_->snap->Compact();
  }();
  double secs = SecondsSince(t0);
  res_.compact_sync_s.push_back(GlobalSyncTimer().SyncSeconds() - sync0);
  PinToCpu(-1);

  if (!outcome_->Check(next.status(), "compact")) return;
  res_.compact_s.push_back(secs);
  const wg::version::Manifest& man = next.value()->manifest;
  written_ += man.blobs_written;
  shared_ += man.blobs_shared;
  for (const auto& blob : man.blobs) {
    if (blob.file_index >= gen->manifest.files.size()) {
      bytes_written_ += blob.length;
    }
  }
  if (next.value()->repr->num_pages() != model.out.size()) {
    outcome_->Wrong("generation page count differs from the delta model");
  }
  CheckAllPages(next.value()->repr.get(), model.out.size(), want,
                "generation after compaction", outcome_);
}

RoundsResult DeltaRounds::Finish() {
  const DeltaModel& model = *model_;
  res_.dirty_blob_share = written_ + shared_ == 0
                              ? 0
                              : double(written_) / double(written_ + shared_);
  res_.bytes_written_per_delta =
      records_ == 0 ? 0 : double(bytes_written_) / double(records_);
  res_.records_per_round = round_ == 0 ? 0 : double(records_) / round_;
  const wg::WebGraph folded =
      Unwrap(wg::version::ApplyOverlay(world_->graph, *all_), "apply overlay");
  size_t wrong = 0;
  for (PageId p = 0; p < folded.num_pages(); ++p) {
    auto links = folded.OutLinks(p);
    if (!std::equal(links.begin(), links.end(), model.out[p].begin(),
                    model.out[p].end())) {
      ++wrong;
    }
  }
  if (wrong > 0 || folded.num_pages() != model.out.size()) {
    outcome_->Wrong("folded crawl differs from the delta model");
  }
  return std::move(res_);
}

SweepResult ColdSweep(const ReadTarget& target, Outcome* outcome) {
  std::unique_ptr<wg::SNodeRepr> repr = target.open_fwd(target.mmap);
  const size_t n = repr->num_pages();
  std::vector<uint64_t> got(n);
  Span span("snode.sweep", "snode");
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<wg::AdjacencyCursor> cursor = repr->NewCursor();
  wg::LinkView view;
  size_t failed = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!cursor->Links(repr->PageInNaturalOrder(i), &view).ok()) {
      ++failed;
      continue;
    }
    got[i] = HashPages(view.data(), view.size());
  }
  double secs = SecondsSince(t0);
  cursor.reset();
  outcome->attempted += n;
  for (size_t i = 0; i < failed; ++i) outcome->Fail("sweep read");
  size_t wrong = 0;
  for (size_t i = 0; i < n; ++i) {
    auto links = target.graph->OutLinks(repr->PageInNaturalOrder(i));
    if (HashPages(links.data(), links.size()) != got[i]) ++wrong;
  }
  if (wrong > failed) {
    outcome->Wrong("sweep: " + std::to_string(wrong - failed) +
                   " pages differ from the graph");
  }
  SweepResult res;
  res.ns_per_edge = secs * 1e9 / double(repr->num_edges());
  return res;
}

ReplayResult ReplayStoreAndDecode(const ReadTarget& target, Outcome* outcome) {
  // ReadBlobSpan needs a mapped store, whatever the workload serves from.
  std::unique_ptr<wg::SNodeRepr> repr = target.open_fwd(true);
  const wg::GraphStore& store = repr->store();
  const wg::SupernodeGraph& sg = repr->supernode_graph();
  const size_t nblobs = store.num_blobs();
  std::vector<wg::GraphStore::BlobSpan> spans(nblobs);
  ReplayResult res;
  double edges_total = double(repr->num_edges());
  ++outcome->attempted;
  Clock::time_point t0 = Clock::now();
  {
    Span s("storage.read_blob_span", "storage");
    for (uint32_t id = 0; id < nblobs; ++id) {
      wg::Status st = store.ReadBlobSpan(id, &spans[id]);
      if (!st.ok()) {
        outcome->Fail("blob span: " + st.ToString());
        return res;
      }
    }
  }
  res.read_ns_per_edge = SecondsSince(t0) * 1e9 / edges_total;

  wg::IntranodeGraph intra;
  wg::SuperedgeGraph super;
  uint64_t edges = 0;
  Clock::time_point t1 = Clock::now();
  {
    Span s("snode.decode", "snode");
    for (uint32_t s_id = 0; s_id < sg.num_supernodes(); ++s_id) {
      const wg::GraphStore::BlobSpan& b = spans[sg.intranode_blob[s_id]];
      DieIf(wg::DecodeIntranode(b.data, b.length, &intra), "decode intranode");
      edges += intra.num_edges();
      uint32_t ni = sg.pages_in(s_id);
      for (uint32_t k = sg.offsets[s_id]; k < sg.offsets[s_id + 1]; ++k) {
        const wg::GraphStore::BlobSpan& e = spans[sg.superedge_blob[k]];
        DieIf(wg::DecodeSuperedge(e.data, e.length, ni,
                                  sg.pages_in(sg.targets[k]), &super),
              "decode superedge");
        edges += super.NumPositiveEdges(ni);
      }
    }
  }
  res.decode_ns_per_edge = SecondsSince(t1) * 1e9 / edges_total;
  if (edges != repr->num_edges()) {
    outcome->Wrong("decoded edges " + std::to_string(edges) +
                   " != store edge count");
  }
  return res;
}

QueriesResult RunQueries(const ReadTarget& target, int reps, Outcome* outcome) {
  std::vector<wg::QueryResult> reference(wg::kNumQueries);
  for (int q = 1; q <= wg::kNumQueries; ++q) {
    reference[q - 1] =
        Unwrap(wg::RunQuery(q, target.baseline_ctx), "baseline query");
  }
  std::vector<double> nav[wg::kNumQueries], loaded[wg::kNumQueries];
  std::vector<double> totals;
  for (int rep = 0; rep < reps; ++rep) {
    PinToCpu(rep);
    double total = 0;
    for (int q = 1; q <= wg::kNumQueries; ++q) {
      std::unique_ptr<wg::SNodeRepr> fwd = target.open_fwd(target.mmap);
      std::unique_ptr<wg::SNodeRepr> bwd = target.open_bwd(target.mmap);
      wg::QueryContext ctx = target.snode_ctx;
      ctx.forward = fwd.get();
      ctx.backward = bwd.get();
      ++outcome->attempted;
      wg::Result<wg::QueryResult> r = [&] {
        Span s("query.q" + std::to_string(q), "query");
        return wg::RunQuery(q, ctx);
      }();
      if (!outcome->Check(r.status(), "query")) continue;
      uint64_t loaded_graphs =
          fwd->stats().graphs_loaded + bwd->stats().graphs_loaded;
      double ms = r.value().navigation_seconds * 1e3;
      nav[q - 1].push_back(ms);
      loaded[q - 1].push_back(double(loaded_graphs));
      total += ms;
      const auto& got = r.value().ranked;
      const auto& want = reference[q - 1].ranked;
      bool same = got.size() == want.size();
      for (size_t i = 0; same && i < got.size(); ++i) {
        same = got[i].first == want[i].first &&
               std::abs(got[i].second - want[i].second) <=
                   1e-9 * std::max(1.0, std::abs(want[i].second));
      }
      if (!same) {
        outcome->Wrong("query " + std::to_string(q) +
                       " ranked answer differs from the baseline's");
      }
    }
    totals.push_back(total);
  }
  PinToCpu(-1);
  QueriesResult res;
  for (int q = 0; q < wg::kNumQueries; ++q) {
    if (nav[q].empty()) continue;
    res.nav_ms[q] = Median(nav[q]);
    res.graphs_loaded[q] = Median(loaded[q]);
  }
  res.total_nav_ms = Median(totals);
  return res;
}

}  // namespace pb
