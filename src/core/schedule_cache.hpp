// Schedule cache — memoizes generate_schedule() results.
//
// Compiling a schedule runs the LP/MCF pipeline, which is seconds-to-minutes
// at Fig. 10 scale; at production scale the same (topology, fabric, options)
// triple is requested over and over by many consumers. The cache keys
// results by a fingerprint of the request's canonical form and serves them
// as envelope bytes (ArtifactView) from two tiers:
//
//   * an in-memory LRU of envelopes, evicted by an envelope-byte budget
//     (schedules vary by 1000x in size; counting entries lets a handful of
//     Fig. 10 monsters blow the heap). An insert holds the heap envelope it
//     serialized; a disk hit holds the artifact's mmap. And
//   * an optional on-disk tier of SchedBin-based entry files, so a fleet of
//     processes (or a restarted one) shares compiled artifacts. Disk
//     entries are content-addressed: the artifact file is keyed by a hash
//     of its payload and request fingerprints are small ref files pointing
//     at it, so identical schedules produced under different pipeline
//     invocations (or different request options that happen to compile to
//     the same schedule) share one artifact. A file-size byte budget
//     garbage-collects the oldest artifacts and their refs, and drops the
//     memory entries that reference them.
//
// All operations are thread-safe; hit/miss counters expose the behaviour to
// tests and monitoring.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/mmap_file.hpp"
#include "container/schedbin.hpp"
#include "core/api.hpp"

namespace a2a {

struct ScheduleCacheOptions {
  /// Byte budget for the in-memory LRU tier, accounted in envelope bytes
  /// (ArtifactView::envelope.size()). 0 disables the memory tier: every
  /// lookup goes to the disk tier (when configured) and nothing is retained
  /// in memory — useful for memory-constrained fleets sharing a disk cache.
  /// An entry larger than the whole budget is never admitted.
  std::size_t max_memory_bytes = 256ULL << 20;
  /// Directory for the on-disk tier ("" disables it). Created on first use;
  /// holds `objects/` (content-addressed artifacts) and `refs/`
  /// (fingerprint -> artifact pointers).
  std::string disk_dir;
  /// Byte budget for the disk tier, accounted in the size of the
  /// content-addressed object files. 0 = unbounded (the disk tier is
  /// enabled/disabled by disk_dir alone). Under a budget every hit refreshes
  /// its artifact's mtime, and when a write pushes the tier over budget the
  /// oldest artifacts, every ref pointing at them and every memory entry
  /// holding them are dropped; an artifact alone larger than the whole
  /// budget is never written.
  std::size_t max_disk_bytes = 0;
  /// Container settings for on-disk entries.
  SchedBinOptions schedbin;
};

struct ScheduleCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t disk_writes = 0;
  /// Inserts whose artifact already existed on disk under another
  /// fingerprint (content-addressed sharing), so no bytes were written.
  std::uint64_t disk_dedups = 0;
  std::uint64_t memory_evictions = 0;
  /// Artifacts removed by the disk byte-budget GC.
  std::uint64_t disk_evictions = 0;
  /// Inserts skipped because the artifact alone exceeds max_disk_bytes
  /// (writing it would be evicted right back — pure churn).
  std::uint64_t disk_oversize_rejections = 0;
  /// Disk artifacts that failed to decode on lookup (truncated write,
  /// bit-rot, foreign bytes). Each is moved into `<disk_dir>/quarantine/`
  /// — preserved for forensics, never served again — its ref dropped, and
  /// the lookup degrades to a miss so the caller re-synthesizes.
  std::uint64_t disk_corrupt = 0;

  [[nodiscard]] std::uint64_t hits() const { return memory_hits + disk_hits; }
};

/// Fingerprint of a generate_schedule() request: a 128-bit hash (32 hex
/// chars) over the topology's canonical form (node count + sorted edge list
/// with capacities), every fabric field, and every semantically relevant
/// ToolchainOptions field. Thread counts are excluded — they change wall
/// time, not the schedule.
[[nodiscard]] std::string schedule_fingerprint(const DiGraph& topology,
                                               const Fabric& fabric,
                                               const ToolchainOptions& options);

/// A served schedule artifact in its on-disk envelope form, without any
/// decode: the envelope header fields plus the byte range of the inner
/// SchedBin frame. The bytes live either in an mmap'd disk object
/// (`mapping`) or a heap buffer (`bytes`) — exactly one owner is set and
/// `envelope` views into it. This is what the cache's memory tier holds and
/// the zero-copy serving currency of the schedule service: a transport can
/// write schedbin() straight from the page cache to a socket, and the
/// client's SchedBinReader decodes chunks on demand with per-chunk CRCs.
struct ArtifactView {
  std::shared_ptr<const MmapFile> mapping;     ///< disk-tier hits.
  std::shared_ptr<const std::string> bytes;    ///< freshly serialized results.
  std::string_view envelope;                   ///< the whole SBCE envelope.
  std::size_t blob_offset = 0;                 ///< inner SchedBin frame start.
  std::size_t blob_size = 0;
  ScheduleKind kind = ScheduleKind::kLinkUnrolled;
  double concurrent_flow = 0.0;
  int vc_layers = 0;

  [[nodiscard]] std::string_view schedbin() const {
    return envelope.substr(blob_offset, blob_size);
  }
  [[nodiscard]] bool valid() const { return !envelope.empty(); }
};

/// Parses an envelope's metadata fields and locates the inner SchedBin
/// frame WITHOUT decoding the schedule and without the whole-envelope CRC
/// sweep (which would fault every mmap'd page — the opposite of zero-copy).
/// Structural lies (truncated sections, lengths past the end) still throw;
/// payload integrity is the inner frame's job: callers validate its
/// header/trailer CRCs via SchedBinReader and every chunk carries its own
/// CRC-32 checked at decode time. `mapping`/`bytes` of the result are left
/// null — the caller owns the envelope's storage.
[[nodiscard]] ArtifactView parse_schedule_envelope(std::string_view envelope);

class ScheduleCache {
 public:
  explicit ScheduleCache(ScheduleCacheOptions options = {});

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  /// lookup_artifact() plus a full decode of the envelope. A hit whose
  /// envelope fails to decode is not a hit: a corrupt disk artifact is
  /// quarantined exactly as in lookup_artifact() and the call is a miss.
  [[nodiscard]] std::optional<GeneratedSchedule> lookup(
      const std::string& fingerprint);

  /// Zero-copy lookup: the memory tier, then the disk tier, then a miss. A
  /// disk hit mmaps the artifact, validates the inner SchedBin frame's
  /// header/trailer (a few pages, not the whole file) and promotes the view
  /// into the memory tier. A corrupt artifact is moved into
  /// `<disk_dir>/quarantine/`, its ref dropped, and the call degrades to a
  /// miss. Under a disk budget every hit refreshes its artifact's mtime; a
  /// memory entry whose artifact has vanished (another process's GC) is
  /// dropped and re-resolved instead of served.
  [[nodiscard]] std::optional<ArtifactView> lookup_artifact(
      const std::string& fingerprint);

  /// Serializes `schedule` into its envelope, writes (or dedups against)
  /// the content-addressed disk artifact and its ref file when a disk_dir
  /// is configured, and holds the envelope in the memory tier (evicting LRU
  /// entries past the byte budget). Returns the envelope so callers that
  /// serve bytes (the ScheduleBroker) reuse the exact artifact written
  /// instead of re-encoding.
  std::shared_ptr<const std::string> insert(const std::string& fingerprint,
                                            const GeneratedSchedule& schedule);

  [[nodiscard]] ScheduleCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  /// Envelope bytes currently held by the memory tier.
  [[nodiscard]] std::size_t memory_bytes() const;
  void clear();  ///< drops the memory tier only; disk entries persist.

  /// Path of the disk artifact a fingerprint currently resolves to (""
  /// when the disk tier is disabled or the fingerprint has no entry).
  [[nodiscard]] std::string entry_path(const std::string& fingerprint) const;
  /// Artifact files the disk tier currently holds and their total size.
  /// Exposed for tests and monitoring.
  [[nodiscard]] std::size_t disk_object_count() const;
  [[nodiscard]] std::size_t disk_bytes() const;

 private:
  struct Entry {
    ArtifactView view;
    std::string key;  ///< content key of the disk artifact, "" if none.
    std::list<std::string>::iterator lru_it;
  };
  using EntryMap = std::unordered_map<std::string, Entry>;

  /// lookup() and lookup_artifact() in one; with `decoded` set a hit is
  /// also decoded into it, and a decode failure is corruption, not a hit.
  std::optional<ArtifactView> find(const std::string& fingerprint,
                                   GeneratedSchedule* decoded);
  /// Holds `view` under `fingerprint`, replacing any older entry; `key` is
  /// the content key of its disk artifact ("" when it has none).
  void insert_memory_locked(const std::string& fingerprint, ArtifactView view,
                            std::string key);
  /// Drops `fingerprint`'s entry if it still holds the envelope `view`.
  void drop_memory(const std::string& fingerprint, const ArtifactView& view);
  void evict_over_budget_locked();
  EntryMap::iterator erase_memory_locked(EntryMap::iterator it);
  void gc_disk();  ///< enforces max_disk_bytes; caller holds disk_mutex_.

  ScheduleCacheOptions options_;
  mutable std::mutex mutex_;
  /// MRU-first list of fingerprints plus value map (classic LRU pairing).
  std::list<std::string> lru_;
  EntryMap entries_;
  std::size_t memory_bytes_ = 0;
  ScheduleCacheStats stats_;
  /// Serializes disk writes + GC + directory scans (artifact reads stay
  /// lock-free; a read racing a GC deletion degrades to a miss). Taken
  /// before mutex_ when both are held. mutable:
  /// the const observers disk_object_count()/disk_bytes() scan under it —
  /// unprotected they would race a concurrent GC's renames and count
  /// vanished files as size -1.
  mutable std::mutex disk_mutex_;
  /// Running artifact-byte total, seeded by one scan on the first
  /// budgeted insert and maintained incrementally so inserts do not pay an
  /// O(artifacts) directory walk while under budget. Other processes'
  /// writes drift it low; every GC pass rescans and corrects. Guarded by
  /// disk_mutex_. -1 = not yet seeded.
  std::int64_t disk_total_ = -1;
};

/// Serializes a GeneratedSchedule to the cache's disk-entry envelope: a
/// small metadata block (kind, flow, VC layers, terminals, schedule graph,
/// notes) wrapping the SchedBin blob of the schedule, CRC-32 guarded.
/// Exposed for tests and offline tooling.
[[nodiscard]] std::string generated_schedule_to_bytes(
    const GeneratedSchedule& schedule, const SchedBinOptions& options = {});
[[nodiscard]] GeneratedSchedule generated_schedule_from_bytes(
    std::string_view bytes);

/// Content key of an artifact's bytes (32 hex chars), the basename of its
/// object file in the disk tier. Exposed for tests.
[[nodiscard]] std::string schedule_content_key(std::string_view bytes);

}  // namespace a2a
