// Bit-flip fuzz over the graph store's pack files, plus the read-path
// fault contracts the fuzz relies on:
//
//  * Every corrupted byte inside a live blob is detected: the covering
//    blob's CRC verification fails on pread, and the blob's read returns
//    Corruption instead of decoded garbage. Bytes outside every live blob
//    (there should be none in an append-only pack) must leave a full
//    scrub clean.
//  * In mapped mode the first touch of a corrupt blob is caught by the
//    verify-at-first-touch CRC, the owning S-Node section is quarantined
//    (later reads fail fast with Unavailable, other sections keep
//    serving), and the process never decodes the bad bytes.
//  * Injected transient EIO on pread surfaces as a clean IOError from the
//    cursor with no cache pins leaked, and the same read succeeds once
//    the fault is lifted -- EIO must not quarantine.
//  * A healthy pack file demoted out of the mapping keeps serving through
//    the verifying pread: cursor sweeps (section assembly), lone probes
//    (section prefetch) and pushdown reads (single-blob loads) all return
//    the crawl's out-links, and no section is quarantined.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "snode/snode_repr.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/file.h"
#include "version/scrub.h"

namespace wg {
namespace {

std::string TempBase(const std::string& name) {
  static int counter = 0;
  std::string dir = testing::TempDir() + "wg_bitflip_" +
                    std::to_string(getpid()) + "_" + name +
                    std::to_string(counter++);
  WG_CHECK(EnsureDirectory(dir).ok());
  return dir + "/base";
}

WebGraph SmallGraph(size_t pages = 600) {
  GeneratorOptions opts;
  opts.num_pages = pages;
  opts.seed = 29;
  return GenerateWebGraph(opts);
}

// XORs the byte at `offset` of `path` with 0xFF via raw syscalls (no Env).
void FlipByte(const std::string& path, uint64_t offset) {
  int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0) << path;
  unsigned char byte = 0;
  ASSERT_EQ(::pread(fd, &byte, 1, static_cast<off_t>(offset)), 1);
  byte ^= 0xFF;
  ASSERT_EQ(::pwrite(fd, &byte, 1, static_cast<off_t>(offset)), 1);
  ::close(fd);
}

// Supernode owning blob `id` (sections are laid out contiguously).
uint32_t SectionOfBlob(const SupernodeGraph& sg, uint32_t id) {
  for (uint32_t s = 0; s < sg.num_supernodes(); ++s) {
    uint32_t first = sg.intranode_blob[s];
    uint32_t last = first + (sg.offsets[s + 1] - sg.offsets[s]);
    if (id >= first && id <= last) return s;
  }
  return sg.num_supernodes();
}

TEST(BitflipFuzzTest, EveryFlippedByteIsDetectedOrOutsideLiveBlobs) {
  std::string base = TempBase("sweep");
  WebGraph graph = SmallGraph();
  auto built = SNodeRepr::Build(graph, base, {});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->SaveMeta().ok());
  const GraphStore& store = built.value()->store();

  // Byte -> covering blob map per file.
  struct Extent {
    uint32_t blob;
    uint64_t offset;
    uint64_t end;
  };
  std::vector<std::vector<Extent>> extents(store.num_files());
  for (uint32_t id = 0; id < store.num_blobs(); ++id) {
    GraphStore::BlobLocation loc = store.Location(id);
    if (loc.length == 0) continue;
    extents[loc.file_index].push_back(
        {id, loc.offset, loc.offset + loc.length});
  }

  uint64_t covered = 0;
  uint64_t uncovered = 0;
  for (uint32_t f = 0; f < store.num_files(); ++f) {
    const std::string& path = store.FilePath(f);
    auto file = RandomAccessFile::Open(path);
    ASSERT_TRUE(file.ok());
    uint64_t file_size = file.value()->size();
    for (uint64_t byte = 0; byte < file_size; ++byte) {
      const Extent* hit = nullptr;
      for (const Extent& e : extents[f]) {
        if (byte >= e.offset && byte < e.end) {
          hit = &e;
          break;
        }
      }
      FlipByte(path, byte);
      if (hit != nullptr) {
        ++covered;
        Status verified = store.VerifyBlob(hit->blob);
        EXPECT_EQ(verified.code(), StatusCode::kCorruption)
            << "file " << f << " byte " << byte << " blob " << hit->blob
            << " undetected: " << verified.ToString();
        // The real read path must refuse the bytes too.
        std::vector<uint8_t> out;
        EXPECT_EQ(store.ReadBlob(hit->blob, &out).code(),
                  StatusCode::kCorruption);
      } else {
        // No live blob covers this byte: prove it cannot damage a read.
        ++uncovered;
        version::ScrubReport report;
        ASSERT_TRUE(version::ScrubStore(store, &report).ok());
        EXPECT_TRUE(report.clean())
            << "byte " << byte << " of file " << f
            << " is outside every blob yet scrub found damage";
      }
      FlipByte(path, byte);  // restore
    }
  }
  EXPECT_GT(covered, 0u);
  // Sanity after the sweep: everything restored.
  version::ScrubReport report;
  ASSERT_TRUE(version::ScrubStore(store, &report).ok());
  EXPECT_TRUE(report.clean()) << report.ToString();
  std::printf("fuzzed %llu covered + %llu uncovered bytes\n",
              static_cast<unsigned long long>(covered),
              static_cast<unsigned long long>(uncovered));
}

TEST(BitflipFuzzTest, MappedCorruptionQuarantinesOnlyItsSection) {
  std::string base = TempBase("mapped");
  WebGraph graph = SmallGraph();
  {
    auto built = SNodeRepr::Build(graph, base, {});
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built.value()->SaveMeta().ok());
  }
  auto repr = SNodeRepr::Open(base, {});
  ASSERT_TRUE(repr.ok());
  const SupernodeGraph& sg = repr.value()->supernode_graph();
  ASSERT_GE(sg.num_supernodes(), 2u) << "need a healthy section to compare";

  // Corrupt the first nonempty intranode blob BEFORE mapping, so the
  // first touch runs the verify.
  uint32_t victim_blob = UINT32_MAX;
  for (uint32_t s = 0; s < sg.num_supernodes(); ++s) {
    if (repr.value()->store().blob_size(sg.intranode_blob[s]) > 0) {
      victim_blob = sg.intranode_blob[s];
      break;
    }
  }
  ASSERT_NE(victim_blob, UINT32_MAX);
  GraphStore::BlobLocation loc = repr.value()->store().Location(victim_blob);
  FlipByte(repr.value()->store().FilePath(loc.file_index), loc.offset);
  ASSERT_TRUE(repr.value()->MapStoreForRead().ok());

  uint32_t victim_section = SectionOfBlob(sg, victim_blob);
  ASSERT_LT(victim_section, sg.num_supernodes());
  PageId victim_page = repr.value()->PageInNaturalOrder(
      sg.page_start[victim_section]);

  {
    std::unique_ptr<AdjacencyCursor> cursor = repr.value()->NewCursor();
    LinkView view;
    Status first = cursor->Links(victim_page, &view);
    EXPECT_EQ(first.code(), StatusCode::kCorruption) << first.ToString();
    EXPECT_TRUE(repr.value()->SectionQuarantined(victim_section));
    EXPECT_EQ(repr.value()->QuarantinedSectionCount(), 1u);

    // Second read fails fast with Unavailable -- no re-decode attempt.
    Status second = cursor->Links(victim_page, &view);
    EXPECT_EQ(second.code(), StatusCode::kUnavailable) << second.ToString();

    // Every other section still serves.
    for (uint32_t s = 0; s < sg.num_supernodes(); ++s) {
      if (s == victim_section) continue;
      PageId p = repr.value()->PageInNaturalOrder(sg.page_start[s]);
      LinkView links;
      ASSERT_TRUE(cursor->Links(p, &links).ok()) << "section " << s;
    }
  }
  // All views and the cursor are gone; nothing may still be pinned.
  EXPECT_EQ(repr.value()->PinnedCacheEntries(), 0u);
}

TEST(BitflipFuzzTest, InjectedEioIsTransientAndLeaksNoPins) {
  std::string base = TempBase("eio");
  WebGraph graph = SmallGraph();
  {
    auto built = SNodeRepr::Build(graph, base, {});
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built.value()->SaveMeta().ok());
  }
  auto repr = SNodeRepr::Open(base, {});
  ASSERT_TRUE(repr.ok());
  std::unique_ptr<AdjacencyCursor> cursor = repr.value()->NewCursor();
  // A page with real out-links, so success is distinguishable.
  PageId victim = 0;
  while (victim < graph.num_pages() && graph.out_degree(victim) == 0) {
    ++victim;
  }
  ASSERT_LT(victim, graph.num_pages());

  FaultInjectingEnv::Options fopts;
  fopts.fail_reads = true;
  fopts.path_filter = "base.";  // pack files only, not unrelated paths
  FaultInjectingEnv env(fopts);
  Env::Install(&env);
  LinkView view;
  Status read = cursor->Links(victim, &view);
  Env::Install(nullptr);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), StatusCode::kIOError) << read.ToString();
  EXPECT_EQ(repr.value()->PinnedCacheEntries(), 0u) << "leaked pin on EIO";
  EXPECT_EQ(repr.value()->QuarantinedSectionCount(), 0u)
      << "transient EIO must not quarantine";

  // Fault lifted: the very same read now succeeds.
  Status retry = cursor->Links(victim, &view);
  EXPECT_TRUE(retry.ok()) << retry.ToString();
  EXPECT_EQ(view.size(), graph.out_degree(victim));
}

TEST(BitflipFuzzTest, DemotedHealthyFileServesThroughPread) {
  std::string base = TempBase("demoted");
  WebGraph graph = SmallGraph();
  {
    SNodeBuildOptions bopts;
    bopts.store.max_file_size = 512;  // several pack files
    auto built = SNodeRepr::Build(graph, base, bopts);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built.value()->SaveMeta().ok());
  }
  SNodeBuildOptions ropts;
  ropts.store.mmap = true;
  auto opened = SNodeRepr::Open(base, ropts);
  ASSERT_TRUE(opened.ok());
  SNodeRepr& repr = *opened.value();
  ASSERT_TRUE(repr.store().mapped());
  ASSERT_GE(repr.store().num_files(), 3u)
      << repr.store().total_bytes() << " store bytes";
  // A middle file, so sections on both sides of it stay mapped and the
  // sections that straddle its edges mix mapped and pread blobs.
  repr.store().QuarantineFile(
      static_cast<uint32_t>(repr.store().num_files() / 2));

  auto expect_links = [&](PageId p, const LinkView& view) {
    auto expected = graph.OutLinks(p);
    ASSERT_EQ(view.size(), expected.size()) << "p=" << p;
    EXPECT_TRUE(std::equal(view.begin(), view.end(), expected.begin()))
        << "p=" << p;
  };

  // Natural-order sweep: every section is assembled.
  uint64_t reads = repr.stats().disk_reads;
  {
    auto cursor = repr.NewCursor();
    LinkView view;
    for (size_t i = 0; i < repr.num_pages(); ++i) {
      PageId p = repr.PageInNaturalOrder(i);
      ASSERT_TRUE(cursor->Links(p, &view).ok()) << "p=" << p;
      expect_links(p, view);
    }
  }
  EXPECT_GT(repr.stats().disk_reads, reads) << "sweep never hit pread";

  // Lone probes on an empty cache: each one prefetches its section.
  reads = repr.stats().disk_reads;
  for (PageId p = 0; p < graph.num_pages(); ++p) {
    repr.ClearCache();
    auto cursor = repr.NewCursor();
    LinkView view;
    ASSERT_TRUE(cursor->Links(p, &view).ok()) << "p=" << p;
    expect_links(p, view);
  }
  EXPECT_GT(repr.stats().disk_reads, reads) << "probes never hit pread";

  // Pushdown into a few targets: sections are not worth prefetching, so
  // the wanted graphs load one blob at a time.
  repr.ClearCache();
  reads = repr.stats().disk_reads;
  std::vector<PageId> sources(graph.num_pages());
  for (PageId p = 0; p < graph.num_pages(); ++p) sources[p] = p;
  std::vector<PageId> targets;
  for (PageId t = 0; t < graph.num_pages(); t += 37) targets.push_back(t);
  size_t visited = 0;
  ASSERT_TRUE(repr.VisitLinksInto(
                      sources, targets,
                      [&](PageId p, const std::vector<PageId>& links) {
                        std::vector<PageId> expected;
                        for (PageId q : graph.OutLinks(p)) {
                          if (std::binary_search(targets.begin(),
                                                 targets.end(), q)) {
                            expected.push_back(q);
                          }
                        }
                        EXPECT_EQ(links, expected) << "p=" << p;
                        ++visited;
                      })
                  .ok());
  EXPECT_EQ(visited, sources.size());
  EXPECT_GT(repr.stats().disk_reads, reads) << "pushdown never hit pread";

  EXPECT_EQ(repr.QuarantinedSectionCount(), 0u);
  EXPECT_EQ(repr.PinnedCacheEntries(), 0u);
}

}  // namespace
}  // namespace wg
