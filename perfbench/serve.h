#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

// The serving half of the benchmark: an open-loop Poisson load generator
// in front of server::QueryService and a GraphRepresentation decorator
// that times the cursor layer from outside.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "query/queries.h"
#include "server/query_service.h"
#include "server/workload.h"
#include "snode/snode_repr.h"

namespace pb {

// One cursor's life inside the service: created, used for `calls`
// Links() calls that took `links_s` in total, destroyed. The first page
// it was asked for ties it to the request that created it.
struct CursorRecord {
  int dir = 0;  // 0 forward, 1 backward
  uint32_t tid = 0;
  double begin_s = 0;
  double end_s = 0;
  wg::PageId first_page = 0;
  uint64_t calls = 0;
  double links_s = 0;
};

// Decorator over a representation: every call is passed through; the
// cursors it hands out time their Links() calls and their own lifetime.
class TimedRepr : public wg::GraphRepresentation {
 public:
  TimedRepr(wg::GraphRepresentation* base, int dir) : base_(base), dir_(dir) {}

  std::string name() const override { return base_->name(); }
  size_t num_pages() const override { return base_->num_pages(); }
  uint64_t num_edges() const override { return base_->num_edges(); }
  std::unique_ptr<wg::AdjacencyCursor> NewCursor() override;
  wg::Status PagesInDomain(const std::string& domain,
                           std::vector<wg::PageId>* out) override {
    return base_->PagesInDomain(domain, out);
  }
  wg::Status VisitLinksInto(
      const std::vector<wg::PageId>& sources,
      const std::vector<wg::PageId>& targets,
      const std::function<void(wg::PageId, const std::vector<wg::PageId>&)>&
          visit) override {
    return base_->VisitLinksInto(sources, targets, visit);
  }
  uint64_t LocalityKey(wg::PageId p) const override {
    return base_->LocalityKey(p);
  }
  wg::PageId PageInNaturalOrder(size_t i) const override {
    return base_->PageInNaturalOrder(i);
  }
  uint64_t encoded_bits() const override { return base_->encoded_bits(); }
  size_t resident_memory() const override { return base_->resident_memory(); }
  void ClearBuffers() override { base_->ClearBuffers(); }

  std::vector<CursorRecord> TakeRecords();

 private:
  class Cursor;
  void AddRecord(const CursorRecord& record);
  wg::GraphRepresentation* base_;
  int dir_;
  std::mutex mu_;
  std::vector<CursorRecord> records_;
};

// What one serving phase runs against: the two S-Node stores, the
// ground truth their answers are checked against, and the traffic shape.
struct ServeTarget {
  wg::SNodeRepr* forward = nullptr;
  wg::SNodeRepr* backward = nullptr;
  const wg::WebGraph* graph = nullptr;      // forward ground truth
  const wg::WebGraph* transpose = nullptr;  // backward ground truth
  double zipf_theta = 0.8;
  size_t workers = 4;
  bool traced = false;
};

// Exact results of one open-loop run at one offered rate.
struct LoadResult {
  size_t sent = 0;
  size_t ok = 0;
  double p50_ms = 0;
  double p50_window_median_ms = 0;
  double p99_ms = 0;
  double lateness_p99_ms = 0;
  // Per-layer numbers (traced runs only fill the cursor ones).
  double server_latency_p99_ms = 0;
  double queue_wait_us = 0;
  double cursor_us_per_req = 0;
  double links_calls_per_req = 0;
  double links_ns_per_call = 0;
  double cache_hit_rate = 0;
  double cache_misses_per_req = 0;
  double graphs_loaded_per_req = 0;
  double assembles_per_req = 0;
  double reads_per_req = 0;
  double bytes_read_per_req = 0;
};

// Serves `seconds` of Poisson arrivals at `rate` (req/s) with the
// server/workload mix drawn from `seed`. Every answer is checked against
// the ground truth; errors count as failed operations. The queue admits
// the whole run, so nothing is refused.
LoadResult RunOpenLoop(const ServeTarget& target, double rate, double seconds,
                       uint64_t seed, Outcome* outcome);

}  // namespace pb

#endif  // PERFBENCH_SERVE_H_
