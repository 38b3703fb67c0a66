#ifndef WG_VERSION_OVERLAY_H_
#define WG_VERSION_OVERLAY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "repr/representation.h"
#include "version/delta_log.h"

// The read side of the delta log: a materialized batch of crawl mutations
// (DeltaOverlay) and a GraphRepresentation adaptor (OverlayRepresentation)
// that makes base-generation-plus-deltas queryable through the ordinary
// cursor API. Query code (src/query, the server's QueryService) runs
// unchanged on an overlay: pages added since the last published generation
// are visible, removed pages answer with empty adjacency, and link edits
// are merged into the base scheme's views on the fly. The overlay is the
// bridge between generations -- once compaction folds the deltas into the
// next generation's store, queries flip to the new SNodeRepr and the
// overlay is dropped.
//
// Mutation semantics (shared with incremental maintenance, see
// version/incremental.h): a removed page becomes a *tombstone* -- it keeps
// its PageId forever, stays in its partition element and domain, and
// merely loses every in- and out-link. Ids are never reused and never
// shift, which is what keeps the crawl-order <-> S-Node-order permutation
// of old pages stable across generations (actual removal is deferred to a
// periodic full rebuild, like the paper's from-scratch construction).

namespace wg::version {

// A page added by the overlay. Its id is base_pages + index in added().
struct NewPage {
  std::string url;
  std::string host;
  std::string domain;
};

// Accumulated mutations over a base snapshot of `base_pages` pages.
// Apply() validates each record against the state so far; an invalid
// record (out-of-range id, non-dense added-page id, self-loop, link
// touching a tombstone) is rejected and leaves the overlay unchanged.
class DeltaOverlay {
 public:
  explicit DeltaOverlay(size_t base_pages) : base_pages_(base_pages) {}

  Status Apply(const DeltaRecord& record);

  size_t base_pages() const { return base_pages_; }
  size_t num_pages() const { return base_pages_ + added_.size(); }
  bool empty() const {
    return added_.empty() && tombstoned_.empty() && edits_.empty();
  }

  const std::vector<NewPage>& added_pages() const { return added_; }
  bool is_tombstoned(PageId p) const { return tombstoned_.count(p) > 0; }
  bool has_tombstones() const { return !tombstoned_.empty(); }
  const std::unordered_set<PageId>& tombstones() const { return tombstoned_; }

  // True if p's effective out-links can differ from the base scheme's
  // answer for reasons local to p: p is new, tombstoned, or has link
  // edits. (When the overlay holds tombstones, *every* page's links can
  // additionally differ by losing targets; callers check has_tombstones
  // for that global condition.)
  bool links_dirty(PageId p) const {
    return p >= base_pages_ || is_tombstoned(p) || edits_.count(p) > 0;
  }

  // Pages with local out-link dirt (new, tombstoned, or edited) -- the
  // seed set for incremental maintenance's dirty-supernode computation.
  std::vector<PageId> DirtySources() const;

  // Computes p's effective out-links: base minus removed edges plus added
  // edges, minus tombstoned targets; empty if p is tombstoned. `base` is
  // the base scheme's (sorted) answer for p -- pass {} for added pages.
  // *out is replaced, sorted ascending.
  void MergeLinks(PageId p, std::span<const PageId> base,
                  std::vector<PageId>* out) const;

  size_t MemoryUsage() const;

 private:
  struct LinkEdit {
    std::vector<PageId> adds;     // sorted, unique
    std::vector<PageId> removes;  // sorted, unique; disjoint from adds
  };

  size_t base_pages_;
  std::vector<NewPage> added_;
  std::unordered_set<PageId> tombstoned_;
  std::unordered_map<PageId, LinkEdit> edits_;
};

// GraphRepresentation over (base scheme, overlay). Clean base pages pass
// the base cursor's views through untouched -- zero-copy, pins intact --
// so an empty or link-only overlay adds one hash probe per request to the
// base scheme's read path. Dirty pages (and every page once the overlay
// holds tombstones, since any link may now point at a removed page) are
// merged into cursor scratch.
//
// The base representation must outlive this adaptor and any cursor or
// pinned view obtained from it (the snapshot layer guarantees that by
// holding the base generation's shared_ptr inside each served request).
class OverlayRepresentation : public GraphRepresentation {
 public:
  // Computes the exact edge count up front: a link-edit-only overlay costs
  // one base-cursor probe per dirty source; an overlay with tombstones
  // costs a full adjacency scan of the base (every page may have lost
  // links), the price of keeping num_edges() exact for query planning on
  // a serving overlay. Compaction does not pay it: it counts edges from
  // the candidate sections it reads anyway (version/incremental.h).
  static Result<std::unique_ptr<OverlayRepresentation>> Make(
      GraphRepresentation* base, const DeltaOverlay* overlay);

  std::string name() const override { return "overlay+" + base_->name(); }
  size_t num_pages() const override { return overlay_->num_pages(); }
  uint64_t num_edges() const override { return num_edges_; }

  std::unique_ptr<AdjacencyCursor> NewCursor() override;

  // Base domains come from the base scheme's index; pages added by the
  // overlay are appended from its metadata. Tombstoned pages stay listed
  // (they still exist, link-less), mirroring partition maintenance.
  Status PagesInDomain(const std::string& domain,
                       std::vector<PageId>* out) override;

  // Old pages keep the base scheme's locality; added pages sort after
  // every base page in log order (they live in the overlay, not the
  // store, so there is no disk locality to exploit yet).
  uint64_t LocalityKey(PageId p) const override {
    return p < overlay_->base_pages() ? base_->LocalityKey(p)
                                      : kNewPageLocalityBase + p;
  }
  PageId PageInNaturalOrder(size_t i) const override {
    return i < overlay_->base_pages() ? base_->PageInNaturalOrder(i)
                                      : static_cast<PageId>(i);
  }

  uint64_t encoded_bits() const override {
    // The overlay's resident deltas are the "encoding" of the unmerged
    // edits; counting them keeps bits/edge honest between generations.
    return base_->encoded_bits() + overlay_->MemoryUsage() * 8;
  }
  size_t resident_memory() const override {
    return base_->resident_memory() + overlay_->MemoryUsage();
  }
  void ClearBuffers() override { base_->ClearBuffers(); }

 private:
  class Cursor;

  static constexpr uint64_t kNewPageLocalityBase = uint64_t{1} << 40;

  OverlayRepresentation(GraphRepresentation* base, const DeltaOverlay* overlay)
      : base_(base), overlay_(overlay) {}

  GraphRepresentation* base_;
  const DeltaOverlay* overlay_;
  uint64_t num_edges_ = 0;
};

// Folds the overlay into a plain WebGraph: the mutated ground truth a
// from-scratch rebuild would be given. Tombstoned pages are kept (empty
// adjacency, metadata intact) per the tombstone semantics above, so page
// ids in the result line up with overlay ids one-to-one.
Result<WebGraph> ApplyOverlay(const WebGraph& base,
                              const DeltaOverlay& overlay);

}  // namespace wg::version

#endif  // WG_VERSION_OVERLAY_H_
