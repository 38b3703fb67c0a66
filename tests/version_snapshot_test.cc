// The versioned snapshot store's headline contracts:
//
//  * Byte identity: a generation built incrementally from deltas equals a
//    from-scratch BuildFromPartition rebuild of the mutated graph over the
//    maintained partition -- per blob, byte for byte.
//  * Sharing: blobs of clean supernode sections are referenced from the
//    base generation's pack files, not rewritten.
//  * Durability: a store reopened from its directory serves the published
//    generation, and unapplied log records stay pending across reopens.
//  * Live flip: a QueryService keeps answering correctly while another
//    thread compacts and swaps generations (run under TSan via the
//    concurrency ctest label).

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "server/query_service.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "version/incremental.h"
#include "version/overlay.h"
#include "version/snapshot.h"

namespace wg {
namespace {

using version::ApplyOverlay;
using version::DeltaOverlay;
using version::DeltaRecord;
using version::GenerationPtr;
using version::MaintainedPartition;
using version::MaintainPartition;
using version::Manifest;
using version::ManifestBlob;
using version::SnapshotManager;

std::string TempDirFor(const std::string& name) {
  static int counter = 0;
  std::string dir = testing::TempDir() + "wg_snapshot_" +
                    std::to_string(getpid()) + "_" + name +
                    std::to_string(counter++);
  WG_CHECK(EnsureDirectory(dir).ok());
  return dir;
}

WebGraph TestGraph(size_t pages = 1500) {
  GeneratorOptions opts;
  opts.num_pages = pages;
  opts.seed = 13;
  return GenerateWebGraph(opts);
}

std::vector<DeltaRecord> TestDeltas(const WebGraph& base) {
  PageId n = static_cast<PageId>(base.num_pages());
  auto first_link_of = [&base](PageId p) -> PageId {
    auto links = base.OutLinks(p);
    return links.empty() ? 0 : links[0];
  };
  return {
      DeltaRecord::AddPage(n, "http://www.fresh.example.org/index.html",
                           "www.fresh.example.org", "example.org"),
      DeltaRecord::AddPage(n + 1, "http://www.fresh.example.org/a/b.html",
                           "www.fresh.example.org", "example.org"),
      DeltaRecord::AddLink(n, n + 1),
      DeltaRecord::AddLink(n, 3),
      DeltaRecord::AddLink(9, n),
      DeltaRecord::RemoveLink(2, first_link_of(2)),
      DeltaRecord::AddLink(2, n + 1),
      DeltaRecord::RemovePage(57),
  };
}

std::vector<uint8_t> ReadBlobOrDie(const GraphStore& store, uint32_t id) {
  std::vector<uint8_t> bytes;
  WG_CHECK(store.ReadBlob(id, &bytes).ok());
  return bytes;
}

// Cursor sweep: the representation must answer exactly like the ground
// truth graph for every page.
void ExpectMatchesGraph(GraphRepresentation* repr, const WebGraph& truth) {
  ASSERT_EQ(repr->num_pages(), truth.num_pages());
  ASSERT_EQ(repr->num_edges(), truth.num_edges());
  auto cursor = repr->NewCursor();
  LinkView links;
  for (PageId p = 0; p < truth.num_pages(); ++p) {
    ASSERT_TRUE(cursor->Links(p, &links).ok()) << "p=" << p;
    auto expected = truth.OutLinks(p);
    std::vector<PageId> sorted(expected.begin(), expected.end());
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(links.size(), sorted.size()) << "p=" << p;
    EXPECT_TRUE(std::equal(links.begin(), links.end(), sorted.begin()))
        << "p=" << p;
  }
}

TEST(VersionSnapshotTest, IncrementalGenerationIsByteIdenticalToRebuild) {
  WebGraph base = TestGraph();
  std::string dir = TempDirFor("byteid");
  auto manager = SnapshotManager::Create(dir, base, {});
  ASSERT_TRUE(manager.ok());
  GenerationPtr gen0 = manager.value()->current();

  std::vector<DeltaRecord> batch = TestDeltas(base);
  ASSERT_TRUE(manager.value()->AppendDeltas(batch).ok());

  // Reconstruct what compaction will see, for the from-scratch comparator.
  DeltaOverlay overlay(base.num_pages());
  ASSERT_TRUE(manager.value()->BuildPendingOverlay(&overlay).ok());
  auto mutated = ApplyOverlay(base, overlay);
  ASSERT_TRUE(mutated.ok());
  MaintainedPartition maintained =
      MaintainPartition(*gen0->repr, overlay, RefinementOptions());

  auto gen1 = manager.value()->Compact();
  ASSERT_TRUE(gen1.ok());
  const Manifest& m1 = gen1.value()->manifest;
  EXPECT_EQ(m1.generation, 1u);
  EXPECT_EQ(m1.log_applied, batch.size());

  // From-scratch rebuild of the mutated graph over the same partition:
  // the byte-identity comparator.
  auto rebuilt = SNodeRepr::BuildFromPartition(
      mutated.value(), maintained.partition, TempDirFor("rebuild") + "/sn",
      {});
  ASSERT_TRUE(rebuilt.ok());

  ASSERT_EQ(m1.blobs.size(), rebuilt.value()->store().num_blobs());
  for (uint32_t id = 0; id < m1.blobs.size(); ++id) {
    EXPECT_EQ(ReadBlobOrDie(gen1.value()->repr->store(), id),
              ReadBlobOrDie(rebuilt.value()->store(), id))
        << "blob " << id;
  }

  // Resident structures agree too (same numbering rule on both paths).
  const SupernodeGraph& sg1 = gen1.value()->repr->supernode_graph();
  const SupernodeGraph& sgr = rebuilt.value()->supernode_graph();
  EXPECT_EQ(sg1.page_start, sgr.page_start);
  EXPECT_EQ(sg1.offsets, sgr.offsets);
  EXPECT_EQ(sg1.targets, sgr.targets);
  EXPECT_EQ(gen1.value()->repr->num_edges(), rebuilt.value()->num_edges());

  // And the generation serves the mutated graph exactly.
  ExpectMatchesGraph(gen1.value()->repr.get(), mutated.value());
}

TEST(VersionSnapshotTest, CleanSectionsAreSharedNotRewritten) {
  WebGraph base = TestGraph();
  std::string dir = TempDirFor("sharing");
  auto manager = SnapshotManager::Create(dir, base, {});
  ASSERT_TRUE(manager.ok());
  GenerationPtr gen0 = manager.value()->current();

  ASSERT_TRUE(manager.value()->AppendDeltas(TestDeltas(base)).ok());
  DeltaOverlay overlay(base.num_pages());
  ASSERT_TRUE(manager.value()->BuildPendingOverlay(&overlay).ok());
  MaintainedPartition maintained =
      MaintainPartition(*gen0->repr, overlay, RefinementOptions());

  auto gen1 = manager.value()->Compact();
  ASSERT_TRUE(gen1.ok());
  const Manifest& m0 = gen0->manifest;
  const Manifest& m1 = gen1.value()->manifest;

  EXPECT_GT(m1.blobs_shared, 0u);
  EXPECT_GT(m1.blobs_written, 0u);
  EXPECT_EQ(m1.blobs_shared + m1.blobs_written, m1.blobs.size());
  // The overwhelming majority of a small delta's blobs are shared.
  EXPECT_GT(m1.blobs_shared, m1.blobs.size() / 2);
  // The file list grows append-only: the base generation's packs first.
  ASSERT_GE(m1.files.size(), m0.files.size());
  for (size_t f = 0; f < m0.files.size(); ++f) {
    EXPECT_EQ(m1.files[f], m0.files[f]);
  }

  // Every clean old section's blobs point into the base generation's pack
  // files at the base generation's exact locations -- shared, not copied.
  const SupernodeGraph& sg0 = gen0->repr->supernode_graph();
  const SupernodeGraph& sg1 = gen1.value()->repr->supernode_graph();
  size_t clean_checked = 0;
  for (uint32_t s = 0; s < maintained.num_old_elements; ++s) {
    if (maintained.dirty[s] != 0) continue;
    uint32_t n_out = sg0.offsets[s + 1] - sg0.offsets[s];
    ASSERT_EQ(sg1.offsets[s + 1] - sg1.offsets[s], n_out);
    for (uint32_t k = 0; k <= n_out; ++k) {
      const ManifestBlob& b0 = m0.blobs[sg0.intranode_blob[s] + k];
      const ManifestBlob& b1 = m1.blobs[sg1.intranode_blob[s] + k];
      ASSERT_LT(b1.file_index, m0.files.size());
      EXPECT_EQ(b1.file_index, b0.file_index);
      EXPECT_EQ(b1.offset, b0.offset);
      EXPECT_EQ(b1.length, b0.length);
      ++clean_checked;
    }
  }
  EXPECT_GT(clean_checked, 0u);
}

// Base supernode of page p.
uint32_t OwnerOf(const SNodeRepr& repr, PageId p) {
  return repr.supernode_graph().SupernodeOf(
      static_cast<PageId>(repr.LocalityKey(p)));
}

std::vector<PageId> SortedLinks(const WebGraph& g, PageId p) {
  auto links = g.OutLinks(p);
  std::vector<PageId> sorted(links.begin(), links.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

struct CompactionCounts {
  size_t candidates = 0;            // MaintainPartition's dirty marks
  size_t changed = 0;               // sections whose adjacency changed
  size_t unchanged_candidates = 0;  // candidates shared whole
};

// Compacts `batch` onto a fresh store over `base` and checks that the
// compaction's work followed the links that actually changed: the new
// generation is byte-identical to a rebuild, every candidate section with
// unchanged links keeps the base's exact blob locations, exactly the
// changed sections were re-encoded, and the edge count is exact.
CompactionCounts ExpectCompactionFollowsChanges(
    const WebGraph& base, const std::vector<DeltaRecord>& batch,
    const std::string& name) {
  CompactionCounts counts;
  auto manager = SnapshotManager::Create(TempDirFor(name), base, {});
  EXPECT_TRUE(manager.ok());
  if (!manager.ok()) return counts;
  GenerationPtr gen0 = manager.value()->current();
  EXPECT_TRUE(manager.value()->AppendDeltas(batch).ok());
  DeltaOverlay overlay(base.num_pages());
  EXPECT_TRUE(manager.value()->BuildPendingOverlay(&overlay).ok());
  auto mutated = ApplyOverlay(base, overlay);
  EXPECT_TRUE(mutated.ok());
  MaintainedPartition maintained =
      MaintainPartition(*gen0->repr, overlay, RefinementOptions());
  counts.candidates = maintained.dirty_count();

  auto gen1 = manager.value()->Compact();
  EXPECT_TRUE(gen1.ok());
  if (!mutated.ok() || !gen1.ok()) return counts;
  const Manifest& m0 = gen0->manifest;
  const Manifest& m1 = gen1.value()->manifest;
  const SNodeRepr& repr1 = *gen1.value()->repr;

  auto rebuilt = SNodeRepr::BuildFromPartition(
      mutated.value(), maintained.partition, TempDirFor(name + "_rb") + "/sn",
      {});
  EXPECT_TRUE(rebuilt.ok());
  if (!rebuilt.ok()) return counts;
  EXPECT_EQ(m1.blobs.size(), rebuilt.value()->store().num_blobs());
  for (uint32_t id = 0; id < m1.blobs.size(); ++id) {
    EXPECT_EQ(ReadBlobOrDie(repr1.store(), id),
              ReadBlobOrDie(rebuilt.value()->store(), id))
        << "blob " << id;
  }
  EXPECT_EQ(repr1.supernode_graph().offsets,
            rebuilt.value()->supernode_graph().offsets);
  EXPECT_EQ(repr1.supernode_graph().targets,
            rebuilt.value()->supernode_graph().targets);

  const SupernodeGraph& sg0 = gen0->repr->supernode_graph();
  const SupernodeGraph& sg1 = repr1.supernode_graph();
  for (uint32_t s = 0; s < maintained.partition.num_elements(); ++s) {
    bool changed = s >= maintained.num_old_elements;
    for (PageId p : maintained.partition.elements[s]) {
      if (changed) break;
      changed = SortedLinks(base, p) != SortedLinks(mutated.value(), p);
    }
    if (changed) {
      EXPECT_NE(maintained.dirty[s], 0) << "changed section " << s;
      ++counts.changed;
      continue;
    }
    if (maintained.dirty[s] == 0) continue;
    ++counts.unchanged_candidates;
    uint32_t n_out = sg0.offsets[s + 1] - sg0.offsets[s];
    EXPECT_EQ(sg1.offsets[s + 1] - sg1.offsets[s], n_out);
    for (uint32_t k = 0; k <= n_out; ++k) {
      const ManifestBlob& b0 = m0.blobs[sg0.intranode_blob[s] + k];
      const ManifestBlob& b1 = m1.blobs[sg1.intranode_blob[s] + k];
      EXPECT_EQ(b1.file_index, b0.file_index) << "section " << s;
      EXPECT_EQ(b1.offset, b0.offset) << "section " << s;
      EXPECT_EQ(b1.length, b0.length) << "section " << s;
    }
  }
  EXPECT_EQ(m1.sections_encoded, counts.changed);
  EXPECT_EQ(repr1.num_edges(), mutated.value().num_edges());
  return counts;
}

// One tombstone whose in-links come from a few sections, in an element
// that many sections have a superedge into: rule 2 marks all of those,
// but only the few that linked the tombstone are re-encoded.
TEST(VersionSnapshotTest, TombstoneReencodesOnlySectionsThatLinkedIt) {
  WebGraph base = TestGraph();
  std::string dir = TempDirFor("probe");
  auto probe = SnapshotManager::Create(dir, base, {});
  ASSERT_TRUE(probe.ok());
  const SNodeRepr& repr = *probe.value()->current()->repr;
  const SupernodeGraph& sg = repr.supernode_graph();

  std::vector<size_t> into(sg.num_supernodes(), 0);
  for (uint32_t s = 0; s < sg.num_supernodes(); ++s) {
    auto [begin, end] = sg.OutEdges(s);
    for (const uint32_t* j = begin; j != end; ++j) ++into[*j];
  }
  std::vector<std::unordered_set<uint32_t>> linking(base.num_pages());
  for (PageId p = 0; p < base.num_pages(); ++p) {
    for (PageId q : base.OutLinks(p)) linking[q].insert(OwnerOf(repr, p));
  }
  // Widest gap between rule 2's marks and the sections that truly change,
  // among pages linked from at least two other sections.
  PageId tomb = 0;
  long best_gap = -1;
  for (PageId t = 0; t < base.num_pages(); ++t) {
    uint32_t e = OwnerOf(repr, t);
    linking[t].insert(e);
    if (linking[t].size() < 3) continue;
    long gap = static_cast<long>(into[e]) -
               static_cast<long>(linking[t].size());
    if (gap > best_gap) {
      best_gap = gap;
      tomb = t;
    }
  }
  ASSERT_GT(best_gap, 0);

  CompactionCounts counts = ExpectCompactionFollowsChanges(
      base, {DeltaRecord::RemovePage(tomb)}, "tomb");
  EXPECT_EQ(counts.changed, linking[tomb].size());
  EXPECT_GT(counts.unchanged_candidates, counts.changed);
  EXPECT_EQ(counts.candidates, counts.changed + counts.unchanged_candidates);
}

// Link edits only: re-adding an existing link and removing an absent one
// leave their sections candidates with unchanged links; the real edits
// are re-encoded.
TEST(VersionSnapshotTest, LinkEditsReencodeOnlySectionsThatChanged) {
  WebGraph base = TestGraph();
  PageId n = static_cast<PageId>(base.num_pages());
  auto first_link_of = [&base](PageId p) -> PageId {
    auto links = base.OutLinks(p);
    return links.empty() ? 0 : links[0];
  };
  // Pages spread over the crawl, each with at least one out-link.
  std::vector<PageId> pages;
  for (PageId p = 1; p < n && pages.size() < 4; p += n / 5) {
    while (base.OutLinks(p).empty()) ++p;
    pages.push_back(p);
  }
  ASSERT_EQ(pages.size(), 4u);
  PageId absent = 0;
  while (absent == pages[1] || base.HasEdge(pages[1], absent)) ++absent;
  std::vector<DeltaRecord> batch = {
      DeltaRecord::AddLink(pages[0], first_link_of(pages[0])),  // no-op
      DeltaRecord::RemoveLink(pages[1], absent),                // no-op
      DeltaRecord::RemoveLink(pages[2], first_link_of(pages[2])),
      DeltaRecord::AddLink(pages[3], n - 1),
  };
  CompactionCounts counts =
      ExpectCompactionFollowsChanges(base, batch, "edits");
  EXPECT_GE(counts.changed, 1u);
  EXPECT_GE(counts.unchanged_candidates, 1u);
  EXPECT_EQ(counts.candidates, counts.changed + counts.unchanged_candidates);
}

TEST(VersionSnapshotTest, ReopenServesPublishedGenerationAndKeepsPending) {
  WebGraph base = TestGraph(1000);
  std::string dir = TempDirFor("reopen");
  DeltaOverlay overlay(base.num_pages());
  {
    auto manager = SnapshotManager::Create(dir, base, {});
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager.value()->AppendDeltas(TestDeltas(base)).ok());
    ASSERT_TRUE(manager.value()->BuildPendingOverlay(&overlay).ok());
    ASSERT_TRUE(manager.value()->Compact().ok());
    // Two more records land after the compaction and stay pending.
    ASSERT_TRUE(manager.value()
                    ->AppendDeltas({DeltaRecord::AddLink(1, 5),
                                    DeltaRecord::AddLink(5, 9)})
                    .ok());
  }  // manager (and its generations) torn down: reopen from disk alone

  auto reopened = SnapshotManager::Open(dir, {});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->current()->manifest.generation, 1u);
  EXPECT_EQ(reopened.value()->pending_records(), 2u);

  auto mutated = ApplyOverlay(base, overlay);
  ASSERT_TRUE(mutated.ok());
  ExpectMatchesGraph(reopened.value()->current()->repr.get(),
                     mutated.value());

  // Compacting the reopened store folds the pending tail into gen 2.
  auto gen2 = reopened.value()->Compact();
  ASSERT_TRUE(gen2.ok());
  EXPECT_EQ(gen2.value()->manifest.generation, 2u);
  EXPECT_EQ(reopened.value()->pending_records(), 0u);
  EXPECT_EQ(gen2.value()->repr->num_edges(),
            mutated.value().num_edges() + 2);
}

// A long-running server's manager must see backlog grown by another
// process (wgtool delta-apply appends through its own SnapshotManager):
// pending_records() counts only what this manager has seen until
// TailLog() re-scans the on-disk suffix. This is what wgserve's
// --auto-compact-backlog poller relies on.
TEST(VersionSnapshotTest, TailLogSeesRecordsAppendedByAnotherManager) {
  WebGraph base = TestGraph(800);
  std::string dir = TempDirFor("taillog");
  auto server = SnapshotManager::Create(dir, base, {});
  ASSERT_TRUE(server.ok());

  {
    auto writer = SnapshotManager::Open(dir, {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->AppendDeltas({DeltaRecord::AddLink(2, 7),
                                    DeltaRecord::AddLink(7, 2)})
                    .ok());
  }

  // Invisible until tailed; visible (not double-counted) after.
  EXPECT_EQ(server.value()->pending_records(), 0u);
  ASSERT_TRUE(server.value()->TailLog().ok());
  EXPECT_EQ(server.value()->pending_records(), 2u);
  ASSERT_TRUE(server.value()->TailLog().ok());
  EXPECT_EQ(server.value()->pending_records(), 2u);

  auto gen1 = server.value()->Compact();
  ASSERT_TRUE(gen1.ok());
  EXPECT_EQ(gen1.value()->manifest.generation, 1u);
  EXPECT_EQ(server.value()->pending_records(), 0u);
  EXPECT_EQ(gen1.value()->repr->num_edges(), base.num_edges() + 2);
}

TEST(VersionSnapshotTest, CompactWithNothingPendingIsANoOp) {
  WebGraph base = TestGraph(600);
  auto manager = SnapshotManager::Create(TempDirFor("noop"), base, {});
  ASSERT_TRUE(manager.ok());
  GenerationPtr gen0 = manager.value()->current();
  auto same = manager.value()->Compact();
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same.value().get(), gen0.get());
  EXPECT_EQ(manager.value()->current()->manifest.generation, 0u);
}

TEST(VersionSnapshotTest, QueryServiceAnswersAcrossGenerationFlips) {
  WebGraph base = TestGraph(800);
  auto manager = SnapshotManager::Create(TempDirFor("flip"), base, {});
  ASSERT_TRUE(manager.ok());

  QueryContext ctx;  // forward supplied purely via SwapForward
  server::QueryServiceOptions sopts;
  sopts.num_workers = 3;
  sopts.queue_capacity = 64;
  server::QueryService service(ctx, sopts);
  service.SwapForward(version::ReprOf(manager.value()->current()));

  // Flipper: three delta+compact+swap cycles while queries are in flight.
  constexpr int kFlips = 3;
  std::thread flipper([&] {
    for (int i = 0; i < kFlips; ++i) {
      PageId from = static_cast<PageId>(10 + i);
      PageId to = static_cast<PageId>(700 + i);
      ASSERT_TRUE(
          manager.value()->AppendDeltas({DeltaRecord::AddLink(from, to)}).ok());
      auto next = manager.value()->Compact();
      ASSERT_TRUE(next.ok());
      service.SwapForward(version::ReprOf(next.value()));
    }
  });

  // Old pages exist in every generation, so each response must be kOk no
  // matter which side of a flip executed it.
  size_t base_pages = base.num_pages();
  std::vector<std::future<server::Response>> inflight;
  size_t ok = 0;
  auto drain = [&] {
    for (auto& f : inflight) {
      server::Response r = f.get();
      ASSERT_EQ(static_cast<int>(r.code),
                static_cast<int>(server::ResponseCode::kOk));
      ++ok;
    }
    inflight.clear();
  };
  for (int round = 0; round < 400; ++round) {
    server::Request out;
    out.type = server::RequestType::kOutNeighbors;
    out.page = static_cast<PageId>((round * 37) % base_pages);
    inflight.push_back(service.Submit(out));
    server::Request khop;
    khop.type = server::RequestType::kKHop;
    khop.page = static_cast<PageId>((round * 101) % base_pages);
    khop.k = 2;
    inflight.push_back(service.Submit(khop));
    if (inflight.size() >= 32) drain();
  }
  drain();
  flipper.join();
  EXPECT_EQ(ok, 800u);
  EXPECT_EQ(manager.value()->current()->manifest.generation,
            static_cast<uint64_t>(kFlips));

  // After the drain no request holds a pinned view in any generation.
  service.Shutdown();
  EXPECT_EQ(manager.value()->current()->repr->PinnedCacheEntries(), 0u);
  server::ServiceMetrics metrics = service.Snapshot();
  EXPECT_EQ(metrics.errors, 0u);
  EXPECT_EQ(metrics.completed, 800u);
}

}  // namespace
}  // namespace wg
