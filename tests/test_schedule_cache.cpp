// ScheduleCache: fingerprints, byte-budget LRU tier, content-addressed disk
// tier, pipeline bypass.
#include "core/schedule_cache.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "graph/topologies.hpp"
#include "runtime/fabric.hpp"

namespace a2a {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("a2a_cache_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

/// Synthetic schedule whose envelope size scales with `transfers` and
/// whose serialized content is distinguished by `tag` — precise byte-budget
/// and dedup experiments without running the LP/MCF pipeline.
GeneratedSchedule make_sized(int transfers, int tag) {
  GeneratedSchedule s;
  s.kind = ScheduleKind::kLinkUnrolled;
  LinkSchedule link;
  link.num_nodes = 4;
  link.num_steps = 1 + tag;
  link.transfers.assign(
      static_cast<std::size_t>(transfers),
      Transfer{{0, 1, Rational(0), Rational(1)}, 0, 1, 1});
  s.link = std::move(link);
  s.concurrent_flow = tag;
  s.schedule_graph = make_ring(4);
  s.terminals = {0, 1, 2, 3};
  s.notes = "synthetic";
  return s;
}

/// What the memory tier's byte budget counts for `s`: its envelope size.
std::size_t envelope_bytes(const GeneratedSchedule& s) {
  return generated_schedule_to_bytes(s).size();
}

TEST(Fingerprint, StableAndSensitive) {
  const DiGraph ring = make_ring(8);
  const Fabric cerio = hpc_cerio_fabric();
  const ToolchainOptions options;
  const std::string fp = schedule_fingerprint(ring, cerio, options);
  EXPECT_EQ(fp.size(), 32u);
  EXPECT_EQ(fp, schedule_fingerprint(make_ring(8), cerio, options));

  // Any input change moves the fingerprint.
  EXPECT_NE(fp, schedule_fingerprint(make_ring(9), cerio, options));
  EXPECT_NE(fp, schedule_fingerprint(ring, gpu_mscl_fabric(), options));
  ToolchainOptions coarser = options;
  coarser.chunking.max_denominator = 12;
  EXPECT_NE(fp, schedule_fingerprint(ring, cerio, coarser));
  DiGraph recap = make_ring(8);
  recap.set_capacity(0, 2.0);
  EXPECT_NE(fp, schedule_fingerprint(recap, cerio, options));
}

// Fingerprints name on-disk cache entries and the X-A2A-Fingerprint
// header, so the bytes they hash are a stored format: these values must
// never move without a deliberate cache-format change.
TEST(Fingerprint, PinnedValues) {
  const Fabric cerio = hpc_cerio_fabric();
  EXPECT_EQ(schedule_fingerprint(make_ring(8), cerio, {}),
            "9a386797e6302f59b005dde349ca2344");

  const DiGraph gk = make_generalized_kautz(12, 3);
  ToolchainOptions zipf;
  zipf.workload.demand = DemandSpec::parse("zipf:1.2");
  EXPECT_EQ(schedule_fingerprint(gk, cerio, zipf),
            "ed2836d0c9f1bd305c060b4e1b03fb69");

  ToolchainOptions rs = zipf;
  rs.workload.collective = CollectiveKind::kReduceScatter;
  EXPECT_EQ(schedule_fingerprint(gk, cerio, rs),
            "b39055c1a57405c87abadbbb961f1ecb");

  ToolchainOptions diverse;
  diverse.path_diversity_threshold = 64;
  EXPECT_EQ(schedule_fingerprint(gk, cerio, diverse),
            "6f51f6f2f093f6b710d982448ea4091e");
  EXPECT_EQ(schedule_fingerprint(gk, cpu_oneccl_fabric(), {}),
            "3f23cec052369f409f0f23516e4537f5");
}

TEST(Fingerprint, EdgeOrderDoesNotMatter) {
  DiGraph a(3), b(3);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  b.add_edge(1, 2);
  b.add_edge(0, 1);
  const Fabric f = cpu_oneccl_fabric();
  EXPECT_EQ(schedule_fingerprint(a, f, {}), schedule_fingerprint(b, f, {}));
}

TEST(ScheduleCache, SecondCallSkipsPipeline) {
  const DiGraph g = make_ring(6);
  const Fabric fabric = cpu_oneccl_fabric();
  ScheduleCache cache;

  const std::uint64_t runs_before = pipeline_invocations();
  const GeneratedSchedule first = generate_schedule(g, fabric, {}, &cache);
  EXPECT_EQ(pipeline_invocations(), runs_before + 1);
  EXPECT_FALSE(first.from_cache);

  const GeneratedSchedule second = generate_schedule(g, fabric, {}, &cache);
  EXPECT_EQ(pipeline_invocations(), runs_before + 1)
      << "second identical request must not re-run the LP/MCF pipeline";
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(cache.stats().memory_hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // The cached result is the same schedule.
  EXPECT_EQ(second.kind, first.kind);
  EXPECT_EQ(second.concurrent_flow, first.concurrent_flow);
  ASSERT_TRUE(first.link.has_value());
  ASSERT_TRUE(second.link.has_value());
  EXPECT_EQ(second.link->transfers.size(), first.link->transfers.size());
  EXPECT_EQ(second.terminals, first.terminals);
  EXPECT_EQ(second.notes, first.notes);
}

TEST(ScheduleCache, DifferentRequestsMiss) {
  const Fabric fabric = cpu_oneccl_fabric();
  ScheduleCache cache;
  (void)generate_schedule(make_ring(6), fabric, {}, &cache);
  (void)generate_schedule(make_ring(7), fabric, {}, &cache);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits(), 0u);
  EXPECT_EQ(cache.size(), 2u);
}

// ---- memory tier: byte-budget eviction ------------------------------------

TEST(ScheduleCache, ByteBudgetEvictsLruOldest) {
  const GeneratedSchedule a = make_sized(100, 1);
  const GeneratedSchedule b = make_sized(100, 2);
  const GeneratedSchedule c = make_sized(100, 3);
  const std::size_t each = envelope_bytes(a);
  ASSERT_EQ(each, envelope_bytes(b));

  ScheduleCacheOptions options;
  options.max_memory_bytes = 2 * each;  // room for exactly two
  ScheduleCache cache(options);
  cache.insert("a", a);
  cache.insert("b", b);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.memory_bytes(), 2 * each);
  // Touch a so b becomes the LRU victim.
  EXPECT_TRUE(cache.lookup("a").has_value());
  cache.insert("c", c);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().memory_evictions, 1u);
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value()) << "b was the LRU victim";
}

TEST(ScheduleCache, MixedSizeEvictionFreesEnoughBytes) {
  // One large insert must evict as many small LRU entries as it takes.
  const GeneratedSchedule small = make_sized(50, 1);
  const GeneratedSchedule large = make_sized(400, 2);
  const std::size_t small_bytes = envelope_bytes(small);
  const std::size_t large_bytes = envelope_bytes(large);
  ASSERT_GT(large_bytes, 3 * small_bytes);

  ScheduleCacheOptions options;
  options.max_memory_bytes = large_bytes + small_bytes;
  ScheduleCache cache(options);
  cache.insert("s1", small);
  cache.insert("s2", small);
  cache.insert("s3", small);
  cache.insert("s4", small);
  EXPECT_EQ(cache.size(), 4u);
  cache.insert("big", large);
  EXPECT_LE(cache.memory_bytes(), options.max_memory_bytes);
  EXPECT_TRUE(cache.lookup("big").has_value());
  EXPECT_TRUE(cache.lookup("s4").has_value()) << "newest small survives";
  EXPECT_FALSE(cache.lookup("s1").has_value());
  EXPECT_FALSE(cache.lookup("s2").has_value());
  EXPECT_FALSE(cache.lookup("s3").has_value());
}

TEST(ScheduleCache, BudgetExactlyMetKeepsEntries) {
  const GeneratedSchedule a = make_sized(64, 1);
  const GeneratedSchedule b = make_sized(64, 2);
  ScheduleCacheOptions options;
  options.max_memory_bytes = envelope_bytes(a) + envelope_bytes(b);
  ScheduleCache cache(options);
  cache.insert("a", a);
  cache.insert("b", b);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.memory_bytes(), options.max_memory_bytes);
  EXPECT_EQ(cache.stats().memory_evictions, 0u);
  // One more byte of demand evicts the LRU entry.
  cache.insert("c", make_sized(1, 3));
  EXPECT_EQ(cache.stats().memory_evictions, 1u);
  EXPECT_FALSE(cache.lookup("a").has_value());
}

TEST(ScheduleCache, SingleEntryLargerThanBudgetNeverAdmitted) {
  const GeneratedSchedule big = make_sized(1000, 1);
  ScheduleCacheOptions options;
  options.max_memory_bytes = envelope_bytes(big) - 1;
  ScheduleCache cache(options);
  cache.insert("big", big);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.memory_bytes(), 0u);
  EXPECT_FALSE(cache.lookup("big").has_value());
  // A smaller version under the same key is admitted; a later oversize
  // update must drop it rather than serve stale data.
  const GeneratedSchedule small = make_sized(10, 1);
  cache.insert("big", small);
  EXPECT_EQ(cache.size(), 1u);
  cache.insert("big", big);
  EXPECT_EQ(cache.size(), 0u) << "oversize update must evict the stale entry";
}

TEST(ScheduleCache, ZeroBudgetDisablesMemoryTier) {
  ScheduleCacheOptions options;
  options.max_memory_bytes = 0;
  ScheduleCache cache(options);
  const GeneratedSchedule schedule = make_sized(10, 1);
  cache.insert("fp", schedule);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.memory_bytes(), 0u);
  EXPECT_FALSE(cache.lookup("fp").has_value());
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().memory_hits, 0u);
}

TEST(ScheduleCache, ZeroBudgetStillServesDiskTier) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.max_memory_bytes = 0;
  options.disk_dir = dir.path.string();
  ScheduleCache cache(options);
  const GeneratedSchedule schedule = make_sized(10, 1);
  cache.insert("fp", schedule);
  EXPECT_EQ(cache.size(), 0u);  // nothing retained in memory
  const auto hit = cache.lookup("fp");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->concurrent_flow, schedule.concurrent_flow);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(cache.size(), 0u);  // the disk hit was not promoted either
  // Repeated lookups keep hitting disk, never the (disabled) memory tier.
  ASSERT_TRUE(cache.lookup("fp").has_value());
  EXPECT_EQ(cache.stats().disk_hits, 2u);
  EXPECT_EQ(cache.stats().memory_hits, 0u);
}

// ---- disk tier: content addressing + byte budget --------------------------

TEST(ScheduleCache, DiskTierSurvivesProcessRestart) {
  const TempDir dir;
  const DiGraph g = make_ring(6);
  const Fabric fabric = cpu_oneccl_fabric();
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();

  GeneratedSchedule first;
  {
    ScheduleCache cache(options);
    first = generate_schedule(g, fabric, {}, &cache);
    EXPECT_EQ(cache.stats().disk_writes, 1u);
    const std::string entry =
        cache.entry_path(schedule_fingerprint(g, fabric, {}));
    ASSERT_FALSE(entry.empty());
    EXPECT_TRUE(fs::exists(entry));
  }

  // A fresh cache (fresh process, conceptually) hits the disk tier and does
  // not re-run the pipeline.
  ScheduleCache cache(options);
  const std::uint64_t runs_before = pipeline_invocations();
  const GeneratedSchedule second = generate_schedule(g, fabric, {}, &cache);
  EXPECT_EQ(pipeline_invocations(), runs_before);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  ASSERT_TRUE(second.link.has_value());
  ASSERT_TRUE(first.link.has_value());
  ASSERT_EQ(second.link->transfers.size(), first.link->transfers.size());
  for (std::size_t i = 0; i < first.link->transfers.size(); ++i) {
    EXPECT_EQ(second.link->transfers[i].chunk, first.link->transfers[i].chunk);
    EXPECT_EQ(second.link->transfers[i].step, first.link->transfers[i].step);
  }
  EXPECT_EQ(second.schedule_graph.num_edges(), first.schedule_graph.num_edges());
  EXPECT_EQ(second.notes, first.notes);
}

TEST(ScheduleCache, ContentAddressedDedupSharesOneArtifact) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  ScheduleCache cache(options);
  const GeneratedSchedule schedule = make_sized(200, 7);
  // Two different requests (fingerprints) compiling to the identical
  // schedule — e.g. the same topology requested under two option sets that
  // do not change the result, or repeat pipeline invocations.
  cache.insert("fingerprint_one", schedule);
  cache.insert("fingerprint_two", schedule);
  EXPECT_EQ(cache.disk_object_count(), 1u)
      << "identical schedules must share one on-disk artifact";
  EXPECT_EQ(cache.stats().disk_writes, 1u);
  EXPECT_EQ(cache.stats().disk_dedups, 1u);
  EXPECT_EQ(cache.entry_path("fingerprint_one"),
            cache.entry_path("fingerprint_two"));

  // Both fingerprints resolve from a fresh cache (disk only).
  ScheduleCacheOptions cold = options;
  cold.max_memory_bytes = 0;
  ScheduleCache fresh(cold);
  EXPECT_TRUE(fresh.lookup("fingerprint_one").has_value());
  EXPECT_TRUE(fresh.lookup("fingerprint_two").has_value());
  EXPECT_EQ(fresh.stats().disk_hits, 2u);

  // Distinct content gets its own artifact.
  cache.insert("fingerprint_three", make_sized(200, 8));
  EXPECT_EQ(cache.disk_object_count(), 2u);
}

TEST(ScheduleCache, DiskByteBudgetGcEvictsOldestArtifactsAndRefs) {
  const TempDir dir;
  ScheduleCacheOptions probe_options;
  probe_options.disk_dir = dir.path.string();
  std::size_t artifact_bytes = 0;
  {
    ScheduleCache probe(probe_options);
    probe.insert("probe", make_sized(300, 0));
    artifact_bytes = probe.disk_bytes();
    ASSERT_GT(artifact_bytes, 0u);
    fs::remove(probe.entry_path("probe"));
  }

  ScheduleCacheOptions options = probe_options;
  options.max_disk_bytes = 2 * artifact_bytes + artifact_bytes / 2;
  ScheduleCache cache(options);
  cache.insert("first", make_sized(300, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.insert("second", make_sized(300, 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(cache.disk_object_count(), 2u);
  cache.insert("third", make_sized(300, 3));

  // The budget holds two artifacts: the oldest ("first") was GC'ed along
  // with its ref, so the lookup is a clean miss, not a dangling pointer.
  EXPECT_EQ(cache.disk_object_count(), 2u);
  EXPECT_LE(cache.disk_bytes(), options.max_disk_bytes);
  EXPECT_GE(cache.stats().disk_evictions, 1u);
  EXPECT_TRUE(cache.entry_path("first").empty());
  EXPECT_FALSE(cache.entry_path("second").empty());
  EXPECT_FALSE(cache.entry_path("third").empty());

  ScheduleCacheOptions cold = options;
  cold.max_memory_bytes = 0;
  ScheduleCache fresh(cold);
  EXPECT_FALSE(fresh.lookup("first").has_value());
  EXPECT_TRUE(fresh.lookup("second").has_value());
  EXPECT_TRUE(fresh.lookup("third").has_value());
}

TEST(ScheduleCache, ReinsertHealsCorruptArtifactInsteadOfDedupingAgainstIt) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  options.max_memory_bytes = 0;  // force every lookup to the disk tier
  ScheduleCache cache(options);
  const GeneratedSchedule schedule = make_sized(100, 3);
  cache.insert("fp", schedule);
  const std::string path = cache.entry_path("fp");
  ASSERT_FALSE(path.empty());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);
    f.put('\xEE');
  }
  EXPECT_FALSE(cache.lookup("fp").has_value()) << "corrupt entry is a miss";
  // The recompile-and-reinsert path must rewrite the bad bytes, not dedup
  // against them and leave the object poisoned forever.
  cache.insert("fp", schedule);
  EXPECT_EQ(cache.stats().disk_writes, 2u);
  EXPECT_EQ(cache.stats().disk_dedups, 0u);
  ScheduleCacheOptions cold = options;
  cold.max_memory_bytes = 0;
  ScheduleCache fresh(cold);
  EXPECT_TRUE(fresh.lookup("fp").has_value()) << "artifact healed";
}

TEST(ScheduleCache, OversizeArtifactIsNeverWrittenToDisk) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  const GeneratedSchedule big = make_sized(500, 1);
  const std::size_t artifact =
      generated_schedule_to_bytes(big, options.schedbin).size();
  options.max_disk_bytes = artifact - 1;
  ScheduleCache cache(options);
  cache.insert("big", big);
  // Writing it would only be GC'ed straight back (insert-then-evict churn),
  // so the write is skipped and surfaced in the stats.
  EXPECT_EQ(cache.disk_object_count(), 0u);
  EXPECT_EQ(cache.stats().disk_writes, 0u);
  EXPECT_EQ(cache.stats().disk_oversize_rejections, 1u);
  // A fitting artifact still lands.
  cache.insert("small", make_sized(5, 2));
  EXPECT_EQ(cache.disk_object_count(), 1u);
  EXPECT_EQ(cache.stats().disk_writes, 1u);
}

TEST(ScheduleCache, CorruptDiskEntryIsAMissNotAnError) {
  const TempDir dir;
  const DiGraph g = make_ring(6);
  const Fabric fabric = cpu_oneccl_fabric();
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  const std::string fp = schedule_fingerprint(g, fabric, {});
  {
    ScheduleCache cache(options);
    (void)generate_schedule(g, fabric, {}, &cache);
    // Corrupt the artifact on disk.
    const std::string path = cache.entry_path(fp);
    ASSERT_FALSE(path.empty());
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\xFF');
  }
  ScheduleCache cache(options);
  const GeneratedSchedule regenerated = generate_schedule(g, fabric, {}, &cache);
  EXPECT_FALSE(regenerated.from_cache);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().disk_hits, 0u);
}

TEST(ScheduleCache, CorruptArtifactIsQuarantinedAndRefDropped) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  options.max_memory_bytes = 0;  // force lookups to the disk tier
  ScheduleCache cache(options);
  cache.insert("fp", make_sized(50, 7));
  const std::string path = cache.entry_path("fp");
  ASSERT_FALSE(path.empty());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.put('\xAB');
  }
  EXPECT_FALSE(cache.lookup("fp").has_value());
  EXPECT_EQ(cache.stats().disk_corrupt, 1u);
  // The bad bytes are preserved for forensics under quarantine/, no longer
  // where lookups resolve, and the fingerprint's ref is gone.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(
      fs::exists(dir.path / "quarantine" / fs::path(path).filename()));
  EXPECT_TRUE(cache.entry_path("fp").empty());
  // Quarantined garbage never counts as a servable artifact.
  EXPECT_EQ(cache.disk_object_count(), 0u);
  // Second lookup is a plain miss — quarantine happens once per artifact.
  EXPECT_FALSE(cache.lookup("fp").has_value());
  EXPECT_EQ(cache.stats().disk_corrupt, 1u);
}

TEST(ScheduleCache, TruncatedArtifactQuarantinesInsteadOfThrowing) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  options.max_memory_bytes = 0;
  ScheduleCache cache(options);
  cache.insert("fp", make_sized(200, 9));
  const std::string path = cache.entry_path("fp");
  ASSERT_FALSE(path.empty());
  // Simulate a crashed writer that bypassed the tmp+rename discipline (or
  // bit-rot that shortened the file): keep only the first 40 bytes, which
  // still parse as a plausible envelope prefix.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 40u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), 40);
  }
  EXPECT_FALSE(cache.lookup("fp").has_value());
  EXPECT_EQ(cache.stats().disk_corrupt, 1u);
  // Re-synthesis (re-insert) heals the entry with a fresh write.
  cache.insert("fp", make_sized(200, 9));
  EXPECT_TRUE(cache.lookup("fp").has_value());
}

/// Caps the process's address space at its current size plus `headroom`
/// bytes for the lifetime of the object, so a larger mmap fails with ENOMEM.
class AddressSpaceCap {
 public:
  explicit AddressSpaceCap(std::size_t headroom) {
    ::getrlimit(RLIMIT_AS, &saved_);
    std::size_t vm_pages = 0;
    std::ifstream("/proc/self/statm") >> vm_pages;
    rlimit capped = saved_;
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    capped.rlim_cur = vm_pages * page + headroom;
    ok_ = vm_pages > 0 && capped.rlim_cur <= saved_.rlim_max &&
          ::setrlimit(RLIMIT_AS, &capped) == 0;
  }
  ~AddressSpaceCap() { ::setrlimit(RLIMIT_AS, &saved_); }
  AddressSpaceCap(const AddressSpaceCap&) = delete;
  AddressSpaceCap& operator=(const AddressSpaceCap&) = delete;
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  bool ok_ = false;
};

TEST(ScheduleCache, MmapResourceFailureIsAMissNotCorruption) {
  // An artifact large enough that mapping it needs more address space than
  // the cap below leaves: transfers with varied fields so the codecs cannot
  // shrink it.
  GeneratedSchedule big = make_sized(0, 1);
  std::uint32_t x = 12345;
  for (int i = 0; i < 400'000; ++i) {
    x = x * 1664525u + 1013904223u;
    big.link->transfers.push_back(
        Transfer{{static_cast<NodeId>(x % 4), static_cast<NodeId>(x >> 30),
                  Rational(x % 97, 98), Rational(1)},
                 static_cast<NodeId>((x >> 8) % 4),
                 static_cast<NodeId>((x >> 12) % 4),
                 static_cast<int>((x >> 16) % 1000) + 1});
  }
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  options.max_memory_bytes = 0;  // force lookups to the disk tier
  ScheduleCache cache(options);
  cache.insert("fp", big);
  const std::string path = cache.entry_path("fp");
  ASSERT_FALSE(path.empty());
  const std::size_t artifact_bytes = fs::file_size(path);
  ASSERT_GT(artifact_bytes, 2u << 20);

  {
    const AddressSpaceCap cap(artifact_bytes / 2);
    ASSERT_TRUE(cap.ok()) << "cannot lower RLIMIT_AS";
    EXPECT_FALSE(cache.lookup_artifact("fp").has_value());
  }
  // A failed mapping says nothing about the bytes on disk: the artifact and
  // its ref stay, and nothing counts as corruption.
  EXPECT_EQ(cache.stats().disk_corrupt, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.entry_path("fp"), path);
  EXPECT_FALSE(fs::exists(dir.path / "quarantine" / fs::path(path).filename()));
  // With the limit restored the same artifact is served from disk.
  EXPECT_TRUE(cache.lookup_artifact("fp").has_value());
  EXPECT_EQ(cache.stats().disk_hits, 1u);
}

TEST(ScheduleCache, EnvelopeRoundTripsPathSchedules) {
  // A path-kind GeneratedSchedule (NIC-forwarding fabric) through the disk
  // envelope: graph, terminals, notes, vc layers and bit-exact weights.
  const DiGraph g = make_hypercube(3);
  const GeneratedSchedule original =
      synthesize_schedule(g, hpc_cerio_fabric(), {});
  ASSERT_TRUE(original.path.has_value());
  const std::string bytes = generated_schedule_to_bytes(original);
  const GeneratedSchedule decoded = generated_schedule_from_bytes(bytes);
  EXPECT_EQ(decoded.kind, original.kind);
  EXPECT_EQ(decoded.concurrent_flow, original.concurrent_flow);
  EXPECT_EQ(decoded.vc_layers, original.vc_layers);
  EXPECT_EQ(decoded.terminals, original.terminals);
  EXPECT_EQ(decoded.notes, original.notes);
  ASSERT_TRUE(decoded.path.has_value());
  ASSERT_EQ(decoded.path->entries.size(), original.path->entries.size());
  for (std::size_t i = 0; i < decoded.path->entries.size(); ++i) {
    EXPECT_EQ(decoded.path->entries[i].weight, original.path->entries[i].weight);
    EXPECT_EQ(decoded.path->entries[i].path, original.path->entries[i].path);
  }
}

TEST(ScheduleCache, NullCacheBehavesLikePlainCall) {
  const DiGraph g = make_ring(5);
  const std::uint64_t runs_before = pipeline_invocations();
  const GeneratedSchedule r =
      generate_schedule(g, cpu_oneccl_fabric(), {}, nullptr);
  EXPECT_EQ(pipeline_invocations(), runs_before + 1);
  EXPECT_FALSE(r.from_cache);
}

TEST(ScheduleCache, InsertReturnsTheExactEnvelopeWritten) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  ScheduleCache cache(std::move(options));
  const GeneratedSchedule schedule = make_sized(50, 3);
  const auto bytes = cache.insert("fp", schedule);
  ASSERT_TRUE(bytes);
  // The returned buffer IS the serialized envelope the disk artifact holds.
  EXPECT_EQ(*bytes, generated_schedule_to_bytes(schedule, {}));
  std::ifstream in(cache.entry_path("fp"), std::ios::binary);
  std::ostringstream on_disk;
  on_disk << in.rdbuf();
  EXPECT_EQ(on_disk.str(), *bytes);
  // And parse_schedule_envelope locates the inner frame without a decode.
  const ArtifactView view = parse_schedule_envelope(*bytes);
  EXPECT_TRUE(view.valid());
  EXPECT_GT(view.blob_size, 0u);
  EXPECT_EQ(view.kind, schedule.kind);
  EXPECT_DOUBLE_EQ(view.concurrent_flow, schedule.concurrent_flow);
  const SchedBinReader reader = SchedBinReader::from_bytes(view.schedbin());
  EXPECT_EQ(reader.info().record_count,
            static_cast<std::uint64_t>(schedule.link->transfers.size()));
}

TEST(ScheduleCache, LookupArtifactServesMmapWithoutDecode) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  ScheduleCache cache(std::move(options));
  const GeneratedSchedule schedule = make_sized(80, 4);
  const auto bytes = cache.insert("fp", schedule);

  // insert() holds the very envelope it serialized in the memory tier.
  const auto fresh = cache.lookup_artifact("fp");
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->bytes, bytes);
  EXPECT_EQ(cache.stats().memory_hits, 1u);

  // With the memory tier dropped, a disk hit serves the object's pages and
  // promotes the mapping into memory.
  cache.clear();
  const auto view = cache.lookup_artifact("fp");
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->mapping);  // zero-copy: the disk object's pages.
  EXPECT_FALSE(view->bytes);
  EXPECT_EQ(std::string(view->envelope), *bytes);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.memory_bytes(), bytes->size());
  const auto again = cache.lookup_artifact("fp");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->mapping, view->mapping);
  EXPECT_EQ(cache.stats().memory_hits, 2u);
  EXPECT_EQ(cache.stats().disk_hits, 1u);

  EXPECT_FALSE(cache.lookup_artifact("absent").has_value());
}

TEST(ScheduleCache, LookupArtifactHitsWithoutDiskDir) {
  ScheduleCache cache;  // memory tier only.
  const auto bytes = cache.insert("fp", make_sized(40, 1));
  const auto view = cache.lookup_artifact("fp");
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->bytes, bytes);
  EXPECT_EQ(view->envelope, std::string_view(*bytes));
  EXPECT_EQ(cache.stats().memory_hits, 1u);
  EXPECT_EQ(cache.memory_bytes(), bytes->size());
  EXPECT_FALSE(cache.lookup_artifact("absent").has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ScheduleCache, MemoryHitUnderDiskBudgetRefreshesArtifactAge) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  options.max_disk_bytes = 1 << 20;
  ScheduleCache cache(std::move(options));
  cache.insert("fp", make_sized(40, 1));
  const std::string path = cache.entry_path("fp");
  ASSERT_FALSE(path.empty());
  const auto aged = fs::file_time_type::clock::now() - std::chrono::hours(1);
  fs::last_write_time(path, aged);

  ASSERT_TRUE(cache.lookup_artifact("fp").has_value());
  EXPECT_EQ(cache.stats().memory_hits, 1u);
  EXPECT_EQ(cache.stats().disk_hits, 0u);
  // The GC ages artifacts by mtime: a memory hit must count as use.
  EXPECT_GT(fs::last_write_time(path), aged + std::chrono::minutes(59));
}

TEST(ScheduleCache, GcEvictedObjectLeavesMemoryTier) {
  const TempDir dir;
  const std::size_t artifact = envelope_bytes(make_sized(300, 0));
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  options.max_disk_bytes = 2 * artifact + artifact / 2;
  ScheduleCache cache(std::move(options));
  const auto now = fs::file_time_type::clock::now();
  cache.insert("first", make_sized(300, 1));
  fs::last_write_time(cache.entry_path("first"), now - std::chrono::hours(2));
  cache.insert("second", make_sized(300, 2));
  fs::last_write_time(cache.entry_path("second"), now - std::chrono::hours(1));
  EXPECT_EQ(cache.size(), 2u);

  // The third artifact pushes the disk over budget; "first" is the oldest.
  cache.insert("third", make_sized(300, 3));
  EXPECT_EQ(cache.stats().disk_evictions, 1u);
  EXPECT_TRUE(cache.entry_path("first").empty());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.memory_bytes(), 2 * artifact);
  EXPECT_FALSE(cache.lookup_artifact("first").has_value())
      << "a fingerprint the disk no longer resolves is not served";
  EXPECT_EQ(cache.stats().memory_hits, 0u);
  EXPECT_TRUE(cache.lookup_artifact("second").has_value());
  EXPECT_TRUE(cache.lookup_artifact("third").has_value());
  EXPECT_EQ(cache.stats().memory_hits, 2u);
}

TEST(ScheduleCache, MemoryEntryWhoseArtifactVanishedIsNotServed) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  options.max_disk_bytes = 1 << 20;
  ScheduleCache cache(std::move(options));
  cache.insert("fp", make_sized(40, 1));
  // Another process's GC unlinks the object behind this cache's back.
  fs::remove(cache.entry_path("fp"));
  EXPECT_FALSE(cache.lookup_artifact("fp").has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().memory_hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().disk_corrupt, 0u);
}

TEST(ScheduleCache, LookupArtifactQuarantinesCorruptObjects) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  options.max_memory_bytes = 0;  // force lookups to the disk tier
  ScheduleCache cache(std::move(options));
  cache.insert("fp", make_sized(80, 5));
  const std::string path = cache.entry_path("fp");
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("GARB", 4);  // destroy the envelope magic.
  }
  EXPECT_FALSE(cache.lookup_artifact("fp").has_value());
  EXPECT_EQ(cache.stats().disk_corrupt, 1u);
  EXPECT_FALSE(fs::exists(path));  // moved into quarantine/.
}

TEST(ScheduleCache, ConcurrentHammerStaysConsistent) {
  // Satellite audit gate: every public operation from many threads at once,
  // with eviction pressure on both tiers, must neither throw nor corrupt
  // the counters. Disk GC racing mmap'd readers is safe by construction
  // (POSIX keeps unlinked pages alive); a reader racing a deletion degrades
  // to a miss.
  const TempDir dir;
  std::size_t artifact_bytes = 0;
  {
    ScheduleCacheOptions probe_options;
    probe_options.disk_dir = (dir.path / "probe").string();
    ScheduleCache probe(std::move(probe_options));
    probe.insert("probe", make_sized(120, 0));
    artifact_bytes = probe.disk_bytes();
  }
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  options.max_memory_bytes = 64 * 1024;       // forces LRU evictions.
  options.max_disk_bytes = artifact_bytes * 3;  // forces disk GC.
  ScheduleCache cache(std::move(options));

  constexpr int kThreads = 8;
  constexpr int kIters = 60;
  std::atomic<int> served{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int tag = (t + i) % 6;
        const std::string fp = "fp" + std::to_string(tag);
        switch (i % 4) {
          case 0:
            cache.insert(fp, make_sized(120, tag));
            break;
          case 1:
            if (const auto hit = cache.lookup(fp)) {
              ASSERT_EQ(static_cast<int>(hit->concurrent_flow), tag);
              served.fetch_add(1);
            }
            break;
          case 2:
            if (const auto view = cache.lookup_artifact(fp)) {
              // Decode the served bytes even if GC unlinks the object
              // underneath us — the mmap pins the pages.
              const GeneratedSchedule decoded =
                  generated_schedule_from_bytes(view->envelope);
              ASSERT_EQ(static_cast<int>(decoded.concurrent_flow), tag);
              served.fetch_add(1);
            }
            break;
          case 3:
            (void)cache.stats();
            (void)cache.disk_object_count();
            (void)cache.disk_bytes();
            (void)cache.entry_path(fp);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, stats.memory_hits + stats.disk_hits + stats.misses);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(stats.disk_corrupt, 0u);
  // The budgets held despite the concurrency.
  EXPECT_LE(cache.memory_bytes(), 64u * 1024u);
  EXPECT_LE(cache.disk_bytes(), artifact_bytes * 3);
}

}  // namespace
}  // namespace a2a
