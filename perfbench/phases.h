#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

// The non-serving phases of a run: set-up, the out-of-core build in a
// process of its own, delta rounds with compaction on a snapshot, the
// first sweep from cold with its storage/decode replays, and the six
// Table-3 queries from cold.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "query/queries.h"
#include "repr/uncompressed_repr.h"
#include "snode/snode_repr.h"
#include "text/corpus.h"
#include "text/inverted_index.h"
#include "version/overlay.h"
#include "version/snapshot.h"

namespace pb {

// One workload's fixed parameters (main.cc holds the table).
struct Config {
  std::string name;
  size_t pages = 0;
  // Serve reads through a read-only mmap of the store, as wgserve --mmap.
  bool mmap = false;
  // Cache budget per direction as a share of the decoded store; 0 means
  // twice the decoded store, primed before serving (the hot regime).
  double cache_fraction = 0;
  double zipf_theta = 0.8;
  double fixed_rate = 0;  // req/s offered by the open loop
  int rounds = 0;           // delta rounds (AppendDeltas + Compact)
};

// Everything one set-up makes from the seed.
struct World {
  std::string dir;
  wg::WebGraph graph;
  wg::WebGraph transpose;
  std::unique_ptr<wg::Corpus> corpus;
  std::unique_ptr<wg::InvertedIndex> index;
  std::vector<double> pagerank;
  std::unique_ptr<wg::SNodeRepr> fwd;
  std::unique_ptr<wg::SNodeRepr> bwd;
  std::unique_ptr<wg::UncompressedFileRepr> base_fwd;
  std::unique_ptr<wg::UncompressedFileRepr> base_bwd;
  std::unique_ptr<wg::version::SnapshotManager> snap;
  size_t decoded_bytes = 0;  // both directions, fully decoded
  double generate_s = 0;
  double build_s = 0;
  double snapshot_create_s = 0;  // one-thread build of generation 0
  wg::RefinementStats fwd_stats;
  double setup_s = 0;
};

// Build and worker-pool threads: the hardware thread count, which is what
// wgtool build and wgserve default to.
int BuildThreads();

// Decodes every page of `repr` into its cache (natural order, so each
// supernode is assembled once); returns the cache bytes then in use.
size_t DecodeAll(wg::SNodeRepr* repr);

// Builds what the read phases need from w->graph under w->dir: the
// transpose, the text indexes and PageRank, both S-Node stores and the
// uncompressed baseline.
void BuildDerived(World* w);

// Times one more in-RAM build of w's forward store, written at `base`.
double TimeForwardBuild(const World& w, const std::string& base);

// Generates the crawl, builds both stores, the baseline, the snapshot and
// the saved crawl file under `dir` (emptied first).
std::unique_ptr<World> SetUp(const Config& cfg, uint64_t seed,
                             const std::string& dir);

// Per-direction cache budget: twice a direction's share of the decoded
// store in the hot regime, cfg.cache_fraction of that share otherwise.
size_t CacheBudget(const Config& cfg, size_t decoded_bytes);

// Sets each store's cache budget (priming it in the hot regime) and maps
// the stores when cfg.mmap.
void PrepareForServing(const Config& cfg, wg::SNodeRepr* fwd,
                       wg::SNodeRepr* bwd, size_t decoded_bytes);

struct StreamingResult {
  double seconds = 0;
  double peak_rss_mb = 0;
  double ingest_s = 0, refine_s = 0, encode_s = 0;
  double ingest_rss_mb = 0, refine_rss_mb = 0, encode_rss_mb = 0;
  double sort_runs = 0;
};

// Child-process entry: BuildStreaming from a WGG1 file, then SaveMeta;
// prints one result line. Returns the process exit code.
int StreamChildMain(int argc, char** argv);

// Runs the streaming build in a child process and checks its store is
// byte-identical to the in-RAM build's.
StreamingResult RunStreamingBuild(const World& world, int rep,
                                  Outcome* outcome);

// Results of the delta rounds.
struct RoundsResult {
  std::vector<double> compact_s;
  std::vector<double> compact_sync_s;  // time inside fsync, per round
  double dirty_blob_share = 0;
  double bytes_written_per_delta = 0;
  double records_per_round = 0;
};

struct DeltaModel;

// Delta rounds on w's snapshot, one at a time, so that they can be spread
// over the measured part of a run. A round is one recrawl batch:
// AppendDeltas, a read of every page through the pending overlay, then
// Compact(); the overlay and the generation it publishes are checked
// against the benchmark's own delta model.
class DeltaRounds {
 public:
  DeltaRounds(World* world, uint64_t seed, Outcome* outcome);
  ~DeltaRounds();
  int done() const { return round_; }
  void RunRound();
  // Folds every batch into one crawl, checks it against the model and
  // returns the rounds' figures.
  RoundsResult Finish();

 private:
  World* world_;
  uint64_t seed_;
  Outcome* outcome_;
  std::unique_ptr<DeltaModel> model_;
  std::unique_ptr<wg::version::DeltaOverlay> all_;
  int round_ = 0;
  uint64_t written_ = 0, shared_ = 0, bytes_written_ = 0, records_ = 0;
  RoundsResult res_;
};

// What the read phases run against.
struct ReadTarget {
  // The long-lived stores the serving phase uses.
  wg::SNodeRepr* fwd = nullptr;
  wg::SNodeRepr* bwd = nullptr;
  const wg::WebGraph* graph = nullptr;
  const wg::WebGraph* transpose = nullptr;
  wg::QueryContext snode_ctx;
  wg::QueryContext baseline_ctx;
  // Fresh opens of the same stores (mapped or not): an empty decoded-graph
  // cache and, when mapped, a new mapping whose blobs are CRC-checked on
  // first touch. This is the cold state of the read phases. The page
  // cache is left warm: on a shared virtual disk, device reads measure
  // the host, not the store.
  std::function<std::unique_ptr<wg::SNodeRepr>(bool mmap)> open_fwd;
  std::function<std::unique_ptr<wg::SNodeRepr>(bool mmap)> open_bwd;
  bool mmap = false;  // the workload's store mode
};

struct SweepResult {
  double ns_per_edge = 0;
};

// First sweep in natural order from cold state, every page checked.
SweepResult ColdSweep(const ReadTarget& target, Outcome* outcome);

struct ReplayResult {
  double read_ns_per_edge = 0;
  double decode_ns_per_edge = 0;
};

// Replays ReadBlobSpan over every blob from cold state, then the codec
// decoders over the same bytes; the decoded edges must add up to the
// store's edge count.
ReplayResult ReplayStoreAndDecode(const ReadTarget& target, Outcome* outcome);

struct QueriesResult {
  double nav_ms[wg::kNumQueries] = {};
  double graphs_loaded[wg::kNumQueries] = {};
  double total_nav_ms = 0;
};

// The six queries, each from cold state, `reps` times; medians per query.
// Ranked answers must equal the uncompressed baseline's.
QueriesResult RunQueries(const ReadTarget& target, int reps, Outcome* outcome);

}  // namespace pb

#endif  // PERFBENCH_PHASES_H_
