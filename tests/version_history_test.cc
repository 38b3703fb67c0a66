// A seeded multi-round compaction history: every round appends a batch of
// added pages, link adds and removes, and tombstones, then compacts; the
// SnapshotManager is reopened from its directory every few rounds. After
// each round every page and num_edges() of the published generation must
// match ApplyOverlay's ground truth, and the last generation must be
// byte-identical, blob by blob, to a from-scratch rebuild over its
// partition.

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "version/overlay.h"
#include "version/snapshot.h"

namespace wg {
namespace {

using version::ApplyOverlay;
using version::DeltaOverlay;
using version::DeltaRecord;
using version::GenerationPtr;
using version::SnapshotManager;

constexpr size_t kPages = 2000;
constexpr int kRounds = 12;
constexpr int kReopenEvery = 4;

std::string TempDirFor(const std::string& name) {
  std::string dir = testing::TempDir() + "wg_history_" +
                    std::to_string(getpid()) + "_" + name;
  WG_CHECK(EnsureDirectory(dir).ok());
  return dir;
}

void ExpectMatchesGraph(GraphRepresentation* repr, const WebGraph& truth,
                        int round) {
  ASSERT_EQ(repr->num_pages(), truth.num_pages()) << "round " << round;
  ASSERT_EQ(repr->num_edges(), truth.num_edges()) << "round " << round;
  auto cursor = repr->NewCursor();
  LinkView links;
  for (PageId p = 0; p < truth.num_pages(); ++p) {
    ASSERT_TRUE(cursor->Links(p, &links).ok()) << "p=" << p;
    auto expected = truth.OutLinks(p);
    std::vector<PageId> sorted(expected.begin(), expected.end());
    std::sort(sorted.begin(), sorted.end());
    ASSERT_TRUE(std::equal(links.begin(), links.end(), sorted.begin(),
                           sorted.end()))
        << "round " << round << " p=" << p;
  }
}

// One round's mutations, valid against `truth` (the state before the
// round) and `all` (every record so far): links only touch live pages,
// and tombstones come last so no link in the batch touches one.
std::vector<DeltaRecord> MakeBatch(const WebGraph& base,
                                   const WebGraph& truth,
                                   const DeltaOverlay& all, int round,
                                   std::mt19937_64* rng) {
  auto pick = [rng](size_t n) {
    return static_cast<PageId>(std::uniform_int_distribution<size_t>(
        0, n - 1)(*rng));
  };
  std::vector<PageId> live;
  for (PageId p = 0; p < all.num_pages(); ++p) {
    if (!all.is_tombstoned(p)) live.push_back(p);
  }
  std::vector<DeltaRecord> batch;
  PageId next = static_cast<PageId>(all.num_pages());
  for (int i = 0; i < 5; ++i) {
    std::string host;
    std::string domain;
    if (i == 0) {
      // A domain no earlier generation has seen.
      domain = "fresh" + std::to_string(round) + ".example.org";
      host = "www." + domain;
    } else {
      uint32_t h = base.host_id(pick(base.num_pages()));
      host = base.host_name(h);
      domain = base.domain_name(base.host_domain(h));
    }
    std::string url = "http://" + host + "/history/r" +
                      std::to_string(round) + "/p" + std::to_string(i) +
                      ".html";
    batch.push_back(DeltaRecord::AddPage(next, url, host, domain));
    live.push_back(next++);
  }
  for (int i = 0; i < 30; ++i) {
    PageId a = live[pick(live.size())];
    PageId b = live[pick(live.size())];
    if (a != b) batch.push_back(DeltaRecord::AddLink(a, b));
  }
  for (int i = 0; i < 10; ++i) {
    PageId a = live[pick(live.size())];
    if (a >= truth.num_pages() || truth.OutLinks(a).empty()) continue;
    auto links = truth.OutLinks(a);
    batch.push_back(DeltaRecord::RemoveLink(a, links[pick(links.size())]));
  }
  for (int i = 0; i < 2; ++i) {
    PageId t = live[pick(live.size())];
    bool already = false;
    for (const DeltaRecord& r : batch) {
      already |= r.kind == DeltaRecord::Kind::kRemovePage && r.page == t;
    }
    if (!already) batch.push_back(DeltaRecord::RemovePage(t));
  }
  return batch;
}

TEST(VersionHistoryTest, SeededCompactionHistoryMatchesGroundTruth) {
  GeneratorOptions opts;
  opts.num_pages = kPages;
  opts.seed = 29;
  const WebGraph base = GenerateWebGraph(opts);
  std::string dir = TempDirFor("history");
  auto created = SnapshotManager::Create(dir, base, {});
  ASSERT_TRUE(created.ok());
  std::unique_ptr<SnapshotManager> manager = std::move(created.value());

  std::mt19937_64 rng(4242);
  DeltaOverlay all(base.num_pages());
  WebGraph truth = base;
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0 && round % kReopenEvery == 0) {
      manager.reset();
      auto reopened = SnapshotManager::Open(dir, {});
      ASSERT_TRUE(reopened.ok()) << "round " << round;
      manager = std::move(reopened.value());
      EXPECT_EQ(manager->pending_records(), 0u);
    }
    std::vector<DeltaRecord> batch =
        MakeBatch(base, truth, all, round, &rng);
    for (const DeltaRecord& r : batch) {
      ASSERT_TRUE(all.Apply(r).ok()) << "round " << round;
    }
    // Two appends per round: the compaction folds both.
    size_t half = batch.size() / 2;
    ASSERT_TRUE(manager
                    ->AppendDeltas(std::vector<DeltaRecord>(
                        batch.begin(), batch.begin() + half))
                    .ok());
    ASSERT_TRUE(manager
                    ->AppendDeltas(std::vector<DeltaRecord>(
                        batch.begin() + half, batch.end()))
                    .ok());
    auto folded = ApplyOverlay(base, all);
    ASSERT_TRUE(folded.ok());
    truth = std::move(folded.value());

    auto next = manager->Compact();
    ASSERT_TRUE(next.ok()) << "round " << round;
    EXPECT_EQ(next.value()->manifest.generation,
              static_cast<uint64_t>(round + 1));
    EXPECT_LE(next.value()->manifest.sections_encoded,
              next.value()->repr->supernode_graph().num_supernodes());
    ExpectMatchesGraph(next.value()->repr.get(), truth, round);
    if (HasFatalFailure()) return;
  }

  // The last generation's partition, read back from its numbering, is the
  // comparator's input: a rebuild over it must give the same bytes.
  GenerationPtr last = manager->current();
  const SNodeRepr& repr = *last->repr;
  const SupernodeGraph& sg = repr.supernode_graph();
  Partition partition;
  for (uint32_t s = 0; s < sg.num_supernodes(); ++s) {
    std::vector<PageId> element;
    for (PageId nid = sg.page_start[s]; nid < sg.page_start[s + 1]; ++nid) {
      element.push_back(repr.PageInNaturalOrder(nid));
    }
    partition.elements.push_back(std::move(element));
  }
  auto rebuilt = SNodeRepr::BuildFromPartition(
      truth, partition, TempDirFor("rebuild") + "/sn", {});
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_EQ(repr.store().num_blobs(), rebuilt.value()->store().num_blobs());
  std::vector<uint8_t> got;
  std::vector<uint8_t> want;
  for (uint32_t id = 0; id < repr.store().num_blobs(); ++id) {
    ASSERT_TRUE(repr.store().ReadBlob(id, &got).ok());
    ASSERT_TRUE(rebuilt.value()->store().ReadBlob(id, &want).ok());
    EXPECT_EQ(got, want) << "blob " << id;
  }
  EXPECT_EQ(sg.page_start, rebuilt.value()->supernode_graph().page_start);
  EXPECT_EQ(sg.offsets, rebuilt.value()->supernode_graph().offsets);
  EXPECT_EQ(sg.targets, rebuilt.value()->supernode_graph().targets);
  EXPECT_EQ(repr.num_edges(), rebuilt.value()->num_edges());
}

}  // namespace
}  // namespace wg
