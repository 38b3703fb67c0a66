// Concurrency test for pinned LinkViews vs cache eviction (runs under
// the `concurrency` ctest label, i.e. the TSan preset): many threads
// stream an S-Node store through private cursors with a cache budget so
// small that the assembled blocks behind their pinned views are evicted
// constantly, while another thread churns the cache and periodically
// drops every entry. Pins must keep every held view's bytes valid (no
// use-after-free), and once all views and cursors are gone the cache
// must report zero pinned entries and the gauge must read zero. The same
// contract is then held against a memory-mapped store under a tiny budget
// with readers sweeping in clashing orders, and against versioned-snapshot
// generation flips that tear down a repr while readers of it drain.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "version/snapshot.h"

namespace wg {
namespace {

std::string TempPath(const std::string& name) {
  static int counter = 0;
  std::string dir = testing::TempDir() + "wg_pin_" +
                    std::to_string(getpid());
  WG_CHECK(EnsureDirectory(dir).ok());
  return dir + "/" + name + std::to_string(counter++);
}

WebGraph TestGraph(size_t pages) {
  GeneratorOptions opts;
  opts.num_pages = pages;
  opts.seed = 11;
  return GenerateWebGraph(opts);
}

TEST(PinRaceTest, PinnedViewsSurviveConcurrentEviction) {
  WebGraph graph = TestGraph(2000);

  auto built = SNodeRepr::Build(graph, TempPath("race"), {});
  ASSERT_TRUE(built.ok());
  SNodeRepr* repr = built.value().get();
  repr->set_buffer_budget(8 * 1024);  // evict on nearly every load

  std::vector<PageId> order(repr->num_pages());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = repr->PageInNaturalOrder(i);
  }

  constexpr int kReaders = 4;
  constexpr int kRounds = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Readers: stream in natural order (maximizing pinned views), hold a
  // rolling window of live views, and re-check each held view against
  // ground truth *after* later loads have had every chance to evict the
  // entry behind it.
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        auto cursor = repr->NewCursor();
        std::vector<std::pair<PageId, LinkView>> window;
        LinkView view;
        // Stagger starting offsets so threads collide on different keys.
        for (size_t i = t * 37; i < order.size(); ++i) {
          PageId p = order[i];
          if (!cursor->Links(p, &view).ok()) {
            failures.fetch_add(1);
            return;
          }
          if (view.pinned()) window.emplace_back(p, view);
          if (window.size() >= 64) {
            for (const auto& [held_page, held] : window) {
              auto expected = graph.OutLinks(held_page);
              if (held.size() != expected.size() ||
                  !std::equal(held.begin(), held.end(), expected.begin())) {
                failures.fetch_add(1);
                return;
              }
            }
            window.clear();
          }
        }
      }
    });
  }

  // Churn thread: random-ish probes plus full cache drops, racing the
  // readers' pins.
  std::thread churn([&] {
    auto cursor = repr->NewCursor();
    LinkView view;
    uint64_t x = 12345;
    while (!stop.load(std::memory_order_relaxed)) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      PageId p = static_cast<PageId>((x >> 33) % repr->num_pages());
      if (!cursor->Links(p, &view).ok()) {
        failures.fetch_add(1);
        return;
      }
      if ((x & 0x3ff) == 0) repr->ClearBuffers();
    }
  });

  for (auto& th : readers) th.join();
  stop.store(true);
  churn.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(repr->PinnedCacheEntries(), 0u);
  EXPECT_EQ(repr->stats().views_pinned.value(), 0.0);
}

// Mmap on, tiny budget: reader threads sweep in clashing orders, so cold
// misses land on different sections and evict each other's blocks, while
// the main thread keeps dropping the buffers. Every read must still be
// ground-truth correct and no pin may leak.
TEST(PinRaceTest, MmapTinyBudgetReadersVsClearBuffers) {
  WebGraph g = TestGraph(3000);
  SNodeBuildOptions bopts;
  bopts.buffer_bytes = 32 * 1024;  // evict on nearly every section
  auto built = SNodeRepr::Build(g, TempPath("mm"), bopts);
  ASSERT_TRUE(built.ok());
  SNodeRepr* repr = built.value().get();
  ASSERT_TRUE(repr->MapStoreForRead().ok());

  constexpr int kReaders = 4;
  constexpr int kLaps = 3;
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      LinkView view;
      for (int lap = 0; lap < kLaps && !failed.load(); ++lap) {
        auto cursor = repr->NewCursor();
        // Each thread sweeps at its own stride.
        for (size_t i = 0; i < g.num_pages(); ++i) {
          PageId p = static_cast<PageId>((i * (t + 1) * 7 + t) %
                                         g.num_pages());
          if (!cursor->Links(p, &view).ok()) {
            failed.store(true);
            break;
          }
          auto expected = g.OutLinks(p);
          if (view.size() != expected.size() ||
              !std::equal(view.begin(), view.end(), expected.begin())) {
            failed.store(true);
            break;
          }
        }
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    repr->ClearBuffers();
  }
  for (auto& thread : readers) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(repr->PinnedCacheEntries(), 0u);
}

// Generation flips under mmap readers: compactions publish new generations
// (new repr, new store mapping) while readers hold and query old ones;
// dropping the last reference to a generation destroys its repr while
// another reader may be mid-sweep on the next. No use-after-free may be
// visible to TSan/ASan.
TEST(PinRaceTest, MmapReadersSurviveGenerationFlips) {
  WebGraph g = TestGraph(2000);
  version::SnapshotOptions sopts;
  sopts.build.buffer_bytes = 32 * 1024;
  sopts.store.mmap = true;
  auto created =
      version::SnapshotManager::Create(TempPath("flip"), g, sopts);
  ASSERT_TRUE(created.ok());
  version::SnapshotManager* manager = created.value().get();

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load()) {
        // Pin whatever generation is live and sweep a slice of it; the
        // generation may be replaced and destroyed while this cursor is
        // mid-walk on the old one. The view and cursor are scoped inside
        // the pin on purpose: views must drain before their generation is
        // released (section 10/11 contract), exactly as QueryService
        // drains per-request.
        version::GenerationPtr gen = manager->current();
        LinkView view;
        auto cursor = gen->repr->NewCursor();
        uint64_t edges = 0;
        for (size_t i = t; i < gen->repr->num_pages(); i += 3) {
          PageId p = gen->repr->PageInNaturalOrder(i);
          if (!cursor->Links(p, &view).ok()) {
            failed.store(true);
            return;
          }
          edges += view.size();
        }
        (void)edges;
      }
    });
  }

  // Flip generations under the readers: each compaction folds one new
  // link and republishes.
  for (int flip = 0; flip < 4; ++flip) {
    PageId from = static_cast<PageId>(100 + flip);
    std::vector<version::DeltaRecord> batch = {
        version::DeltaRecord::AddLink(from, static_cast<PageId>(flip))};
    ASSERT_TRUE(manager->AppendDeltas(batch).ok());
    auto next = manager->Compact();
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(next.value()->manifest.generation,
              static_cast<uint64_t>(flip + 1));
  }
  stop.store(true);
  for (auto& thread : readers) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(manager->current()->manifest.generation, 4u);
}

}  // namespace
}  // namespace wg
