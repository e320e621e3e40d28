#include "core/schedule_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <unordered_set>
#include <vector>

#include "common/binio.hpp"
#include "common/crc32.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace a2a {

namespace {

namespace fs = std::filesystem;

using binio::put_u16;
using binio::put_u32;
using binio::put_u64;
using binio::read_uint;

// ----------------------------------------------------------- fingerprint ---

/// FNV-1a over `data` from an arbitrary seed; two seeds give 128 bits.
std::uint64_t fnv1a(std::string_view data, std::uint64_t seed) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void feed_u64(std::string& buf, std::uint64_t v) { put_u64(buf, v); }
void feed_i64(std::string& buf, std::int64_t v) {
  put_u64(buf, static_cast<std::uint64_t>(v));
}
void feed_double(std::string& buf, double v) {
  put_u64(buf, std::bit_cast<std::uint64_t>(v));
}
void feed_str(std::string& buf, const std::string& s) {
  feed_u64(buf, s.size());
  buf.append(s);
}

std::string hex128(std::uint64_t a, std::uint64_t b) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint64_t v : {a, b}) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(digits[(v >> shift) & 0xF]);
    }
  }
  return out;
}

// ------------------------------------------------------ graph serializers ---

void feed_graph(std::string& buf, const DiGraph& g) {
  feed_u64(buf, static_cast<std::uint64_t>(g.num_nodes()));
  struct CanonEdge {
    NodeId from;
    NodeId to;
    std::uint64_t cap_bits;
    auto operator<=>(const CanonEdge&) const = default;
  };
  std::vector<CanonEdge> canon;
  canon.reserve(static_cast<std::size_t>(g.num_edges()));
  for (const Edge& e : g.edges()) {
    canon.push_back({e.from, e.to, std::bit_cast<std::uint64_t>(e.capacity)});
  }
  std::sort(canon.begin(), canon.end());
  for (const CanonEdge& e : canon) {
    feed_i64(buf, e.from);
    feed_i64(buf, e.to);
    feed_u64(buf, e.cap_bits);
  }
}

void write_graph(std::string& out, const DiGraph& g) {
  put_u32(out, static_cast<std::uint32_t>(g.num_nodes()));
  put_u32(out, static_cast<std::uint32_t>(g.num_edges()));
  for (const Edge& e : g.edges()) {
    put_u32(out, static_cast<std::uint32_t>(e.from));
    put_u32(out, static_cast<std::uint32_t>(e.to));
    put_u64(out, std::bit_cast<std::uint64_t>(e.capacity));
  }
}

DiGraph read_graph(std::string_view bytes, std::size_t& pos) {
  const auto num_nodes = static_cast<int>(read_uint(bytes, pos, 4));
  const auto num_edges = static_cast<std::uint32_t>(read_uint(bytes, pos, 4));
  DiGraph g(num_nodes);
  for (std::uint32_t i = 0; i < num_edges; ++i) {
    const auto from = static_cast<NodeId>(read_uint(bytes, pos, 4));
    const auto to = static_cast<NodeId>(read_uint(bytes, pos, 4));
    const double cap = std::bit_cast<double>(read_uint(bytes, pos, 8));
    g.add_edge(from, to, cap);
  }
  return g;
}

constexpr char kEntryMagic[4] = {'S', 'B', 'C', 'E'};
constexpr std::uint16_t kEntryVersion = 1;

/// Atomic write: unique tmp name per process and write, then rename, so
/// concurrent writers (threads or a fleet of processes) never interleave
/// into one file and readers only ever see complete files.
void write_file_atomic(const std::string& path, std::string_view bytes) {
  static std::atomic<std::uint64_t> write_seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(write_seq.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    A2A_REQUIRE(out.good(), "cannot open cache file for writing: ", tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    A2A_REQUIRE(out.good(), "short write to cache file: ", tmp);
  }
  fs::rename(tmp, path);
}

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

std::string schedule_fingerprint(const DiGraph& topology, const Fabric& fabric,
                                 const ToolchainOptions& options) {
  std::string buf;
  buf.reserve(64 + static_cast<std::size_t>(topology.num_edges()) * 24);
  feed_graph(buf, topology);

  feed_str(buf, fabric.name);
  feed_double(buf, fabric.link_GBps);
  feed_double(buf, fabric.injection_GBps);
  feed_u64(buf, fabric.nic_forwarding ? 1 : 0);
  feed_u64(buf, static_cast<std::uint64_t>(fabric.flow_control));
  feed_double(buf, fabric.step_sync_s);
  feed_double(buf, fabric.per_chunk_s);
  feed_double(buf, fabric.hop_latency_s);
  feed_double(buf, fabric.qp_knee);
  feed_double(buf, fabric.qp_penalty);

  feed_i64(buf, options.exact_tsmcf_limit);
  feed_i64(buf, options.path_diversity_threshold);
  feed_u64(buf, static_cast<std::uint64_t>(options.mcf.master));
  feed_u64(buf, static_cast<std::uint64_t>(options.mcf.child));
  feed_i64(buf, options.mcf.exact_master_limit);
  feed_double(buf, options.mcf.fptas_epsilon);
  feed_i64(buf, options.mcf.lp.max_iterations);
  // Once SimplexOptions::refactor_interval, read only by the dense reference
  // solver the pipeline never runs; its value stays in the hash so stored
  // fingerprints stay valid.
  feed_i64(buf, 4000);
  feed_double(buf, kLpFeasibilityTol);
  feed_double(buf, kLpOptimalityTol);
  feed_double(buf, kLpPivotTol);
  feed_i64(buf, kLpStallLimit);
  feed_double(buf, options.mcf.fptas.epsilon);
  feed_i64(buf, kFleischerMaxPhases);
  // options.mcf.threads intentionally excluded: it changes wall time only.
  feed_i64(buf, options.chunking.max_denominator);
  feed_double(buf, options.chunking.min_fraction);
  feed_i64(buf, options.vc_max_layers_warn);
  // Fed only when non-default so every fingerprint minted before workloads
  // existed (and every on-disk cache entry stored under one) stays valid.
  if (!options.workload.is_default()) {
    feed_str(buf, options.workload.to_string());
  }

  return hex128(fnv1a(buf, 0), fnv1a(buf, 0x9e3779b97f4a7c15ULL));
}

std::string schedule_content_key(std::string_view bytes) {
  return hex128(fnv1a(bytes, 0x5bd1e995ULL),
                fnv1a(bytes, 0xc2b2ae3d27d4eb4fULL));
}

// ------------------------------------------------------- entry envelope ---

std::string generated_schedule_to_bytes(const GeneratedSchedule& schedule,
                                        const SchedBinOptions& options) {
  std::string out;
  out.append(kEntryMagic, sizeof(kEntryMagic));
  put_u16(out, kEntryVersion);
  out.push_back(static_cast<char>(schedule.kind));
  const bool has_link = schedule.link.has_value();
  const bool has_path = schedule.path.has_value();
  out.push_back(static_cast<char>((has_link ? 1 : 0) | (has_path ? 2 : 0)));
  put_u64(out, std::bit_cast<std::uint64_t>(schedule.concurrent_flow));
  put_u32(out, static_cast<std::uint32_t>(schedule.vc_layers));
  put_u32(out, static_cast<std::uint32_t>(schedule.terminals.size()));
  for (const NodeId t : schedule.terminals) {
    put_u32(out, static_cast<std::uint32_t>(t));
  }
  write_graph(out, schedule.schedule_graph);
  put_u32(out, static_cast<std::uint32_t>(schedule.notes.size()));
  out.append(schedule.notes);

  std::string blob;
  if (has_link) {
    blob = link_schedule_to_schedbin(*schedule.link, options);
  } else if (has_path) {
    blob = path_schedule_to_schedbin(schedule.schedule_graph, *schedule.path,
                                     options);
  }
  put_u64(out, blob.size());
  out.append(blob);
  put_u32(out, crc32(out.data(), out.size()));
  return out;
}

ArtifactView parse_schedule_envelope(std::string_view envelope) {
  A2A_REQUIRE(envelope.size() >= sizeof(kEntryMagic) + 2 + 4,
              "cache entry too small: ", envelope.size(), " bytes");
  A2A_REQUIRE(envelope.substr(0, 4) == std::string_view(kEntryMagic, 4),
              "bad cache entry magic");
  std::size_t pos = 4;
  const auto version = static_cast<std::uint16_t>(read_uint(envelope, pos, 2));
  A2A_REQUIRE(version == kEntryVersion, "unsupported cache entry version ",
              version);
  ArtifactView out;
  out.envelope = envelope;
  out.kind = static_cast<ScheduleKind>(read_uint(envelope, pos, 1));
  pos += 1;  // has_link/has_path flags — implied by kind for a view.
  out.concurrent_flow = std::bit_cast<double>(read_uint(envelope, pos, 8));
  out.vc_layers = static_cast<int>(read_uint(envelope, pos, 4));
  const auto num_terminals =
      static_cast<std::uint32_t>(read_uint(envelope, pos, 4));
  A2A_REQUIRE(pos + static_cast<std::size_t>(num_terminals) * 4 <=
                  envelope.size(),
              "cache entry terminals truncated");
  pos += static_cast<std::size_t>(num_terminals) * 4;
  pos += 4;  // graph node count
  const auto num_edges = static_cast<std::uint32_t>(read_uint(envelope, pos, 4));
  A2A_REQUIRE(pos + static_cast<std::size_t>(num_edges) * 16 <= envelope.size(),
              "cache entry graph truncated");
  pos += static_cast<std::size_t>(num_edges) * 16;
  const auto notes_len = static_cast<std::uint32_t>(read_uint(envelope, pos, 4));
  A2A_REQUIRE(pos + notes_len <= envelope.size(), "cache entry notes truncated");
  pos += notes_len;
  const std::uint64_t blob_len = read_uint(envelope, pos, 8);
  A2A_REQUIRE(pos + blob_len + 4 == envelope.size(),
              "cache entry blob length mismatch");
  out.blob_offset = pos;
  out.blob_size = static_cast<std::size_t>(blob_len);
  return out;
}

GeneratedSchedule generated_schedule_from_bytes(std::string_view bytes) {
  A2A_REQUIRE(bytes.size() >= sizeof(kEntryMagic) + 2 + 4,
              "cache entry too small: ", bytes.size(), " bytes");
  A2A_REQUIRE(bytes.substr(0, 4) == std::string_view(kEntryMagic, 4),
              "bad cache entry magic");
  const std::uint32_t stored_crc =
      static_cast<std::uint32_t>(binio::get_uint(bytes, bytes.size() - 4, 4));
  A2A_REQUIRE(crc32(bytes.data(), bytes.size() - 4) == stored_crc,
              "cache entry failed CRC check");

  std::size_t pos = 4;
  const auto version = static_cast<std::uint16_t>(read_uint(bytes, pos, 2));
  A2A_REQUIRE(version == kEntryVersion, "unsupported cache entry version ",
              version);
  GeneratedSchedule out;
  out.kind = static_cast<ScheduleKind>(read_uint(bytes, pos, 1));
  const auto flags = static_cast<std::uint8_t>(read_uint(bytes, pos, 1));
  out.concurrent_flow = std::bit_cast<double>(read_uint(bytes, pos, 8));
  out.vc_layers = static_cast<int>(read_uint(bytes, pos, 4));
  const auto num_terminals = static_cast<std::uint32_t>(read_uint(bytes, pos, 4));
  out.terminals.reserve(num_terminals);
  for (std::uint32_t i = 0; i < num_terminals; ++i) {
    out.terminals.push_back(static_cast<NodeId>(read_uint(bytes, pos, 4)));
  }
  out.schedule_graph = read_graph(bytes, pos);
  const auto notes_len = static_cast<std::uint32_t>(read_uint(bytes, pos, 4));
  A2A_REQUIRE(pos + notes_len <= bytes.size(), "cache entry notes truncated");
  out.notes.assign(bytes.substr(pos, notes_len));
  pos += notes_len;
  const std::uint64_t blob_len = read_uint(bytes, pos, 8);
  A2A_REQUIRE(pos + blob_len + 4 == bytes.size(),
              "cache entry blob length mismatch");
  const std::string_view blob = bytes.substr(pos, blob_len);
  if (flags & 1) {
    out.link = link_schedule_from_schedbin(blob);
  } else if (flags & 2) {
    out.path = path_schedule_from_schedbin(out.schedule_graph, blob);
  }
  return out;
}

// ------------------------------------------------------------ the cache ---

ScheduleCache::ScheduleCache(ScheduleCacheOptions options)
    : options_(std::move(options)) {}

namespace {

fs::path objects_dir(const std::string& disk_dir) {
  return fs::path(disk_dir) / "objects";
}
fs::path refs_dir(const std::string& disk_dir) {
  return fs::path(disk_dir) / "refs";
}
fs::path object_path(const std::string& disk_dir, const std::string& key) {
  return objects_dir(disk_dir) / (key + ".schedbin");
}
fs::path ref_path(const std::string& disk_dir, const std::string& fingerprint) {
  return refs_dir(disk_dir) / (fingerprint + ".ref");
}
fs::path quarantine_dir(const std::string& disk_dir) {
  return fs::path(disk_dir) / "quarantine";
}

/// Moves a corrupt artifact out of service into `quarantine/` (same
/// filesystem, so a rename — never a copy of possibly-large garbage). The
/// bytes are kept for forensics; the object no longer resolves, so the
/// re-synthesized artifact gets written fresh. Falls back to outright
/// removal when the rename itself fails (e.g. quarantine dir uncreatable).
void quarantine_object(const std::string& disk_dir, const fs::path& path) {
  std::error_code ec;
  fs::create_directories(quarantine_dir(disk_dir), ec);
  fs::rename(path, quarantine_dir(disk_dir) / path.filename(), ec);
  if (ec) fs::remove(path, ec);
}

/// A ref file holds the 32-hex-char content key of its artifact.
std::optional<std::string> resolve_ref(const std::string& disk_dir,
                                       const std::string& fingerprint) {
  auto key = read_file(ref_path(disk_dir, fingerprint));
  if (!key.has_value() || key->size() != 32) return std::nullopt;
  return key;
}

/// Refreshes an artifact's age for the disk GC. False when the object is
/// gone, so its views must not be served: another process's GC removed it,
/// or this one's did between a disk hit's mmap and its promotion.
bool refresh_age(const std::string& disk_dir, const std::string& key) {
  std::error_code ec;
  fs::last_write_time(object_path(disk_dir, key),
                      fs::file_time_type::clock::now(), ec);
  return ec != std::errc::no_such_file_or_directory;
}

struct DiskArtifact {
  fs::path path;
  std::string key;  ///< object stem.
  std::uintmax_t size = 0;
  fs::file_time_type mtime;
};

/// Every finished content-addressed object the disk tier holds. In-flight
/// ".tmp.<pid>.<seq>" files are skipped: a peer process's pending write
/// must be neither counted nor evicted out from under its imminent rename.
std::pair<std::vector<DiskArtifact>, std::uintmax_t> scan_artifacts(
    const std::string& disk_dir) {
  std::vector<DiskArtifact> out;
  std::uintmax_t total = 0;
  std::error_code ec;
  // stat errors (a file GC'ed by a peer process mid-scan) skip the entry:
  // file_size(ec) reports uintmax_t(-1) on failure, which would wreck the
  // byte total.
  for (const auto& de : fs::directory_iterator(objects_dir(disk_dir), ec)) {
    if (!de.is_regular_file(ec) || de.path().extension() != ".schedbin") continue;
    const std::uintmax_t size = de.file_size(ec);
    if (ec) continue;
    out.push_back({de.path(), de.path().stem().string(), size,
                   de.last_write_time(ec)});
    total += size;
  }
  return {std::move(out), total};
}

}  // namespace

std::string ScheduleCache::entry_path(const std::string& fingerprint) const {
  if (options_.disk_dir.empty()) return {};
  const auto key = resolve_ref(options_.disk_dir, fingerprint);
  if (!key.has_value()) return {};
  const fs::path obj = object_path(options_.disk_dir, *key);
  std::error_code ec;
  return fs::exists(obj, ec) ? obj.string() : std::string{};
}

std::optional<GeneratedSchedule> ScheduleCache::lookup(
    const std::string& fingerprint) {
  GeneratedSchedule schedule;
  if (!find(fingerprint, &schedule)) return std::nullopt;
  return schedule;
}

std::optional<ArtifactView> ScheduleCache::lookup_artifact(
    const std::string& fingerprint) {
  return find(fingerprint, nullptr);
}

std::optional<ArtifactView> ScheduleCache::find(const std::string& fingerprint,
                                                GeneratedSchedule* decoded) {
  obs::TraceSpan span(decoded != nullptr ? "cache.lookup"
                                         : "cache.lookup_artifact");
  A2A_COUNTER("cache.lookups").inc();
  std::optional<Entry> resident;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.lookups;
    if (const auto it = entries_.find(fingerprint); it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      resident = it->second;
    }
  }
  // The age refresh and any decode run outside the mutex so a syscall or
  // a large decode never blocks other consumers' hits.
  if (resident.has_value()) {
    bool servable = options_.max_disk_bytes == 0 || resident->key.empty() ||
                    refresh_age(options_.disk_dir, resident->key);
    if (servable && decoded != nullptr) {
      try {
        *decoded = generated_schedule_from_bytes(resident->view.envelope);
      } catch (const std::exception&) {
        servable = false;  // the disk path below re-reads and quarantines.
      }
    }
    if (servable) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.memory_hits;
      A2A_COUNTER("cache.memory_hits").inc();
      span.annotate("memory hit");
      return std::move(resident->view);
    }
    drop_memory(fingerprint, resident->view);
  }
  // Disk reads happen outside the mutex so slow I/O never blocks other
  // consumers' memory-tier hits.
  if (!options_.disk_dir.empty()) {
    if (const auto key = resolve_ref(options_.disk_dir, fingerprint)) {
      const fs::path path = object_path(options_.disk_dir, *key);
      // A corrupt disk entry is a miss, not an error. std::exception, not
      // just Error: a truncated or foreign payload can trip a
      // length_error/bad_alloc in the decoder before the CRC gets a chance
      // to reject it.
      try {
        auto mapping = std::make_shared<const MmapFile>(path.string());
        ArtifactView view = parse_schedule_envelope(mapping->view());
        // Header/trailer validation of the inner frame touches its first
        // and last pages only; chunk payloads keep their own CRCs for the
        // eventual decoder. An empty blob (a schedule with neither link nor
        // path — never produced, but representable) has nothing to check.
        if (view.blob_size > 0) {
          (void)SchedBinReader::from_bytes(view.schedbin());
        }
        if (decoded != nullptr) {
          *decoded = generated_schedule_from_bytes(view.envelope);
        }
        view.mapping = std::move(mapping);
        if (options_.max_disk_bytes > 0) refresh_age(options_.disk_dir, *key);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.disk_hits;
        A2A_COUNTER("cache.disk_hits").inc();
        span.annotate("disk hit");
        insert_memory_locked(fingerprint, view, *key);
        return view;
      } catch (const std::system_error& e) {
        // The object could not be opened or mapped, which says nothing
        // about its bytes. A missing file is a dangling ref (the object was
        // GC'ed, perhaps by another process, between resolve and mmap):
        // drop the ref. Any other errno is a resource shortage (descriptors,
        // address space, vm.max_map_count): keep the ref and miss.
        if (e.code() == std::errc::no_such_file_or_directory) {
          std::error_code ec;
          fs::remove(ref_path(options_.disk_dir, fingerprint), ec);
          span.annotate("dangling ref");
        } else {
          span.annotate("artifact unavailable");
        }
      } catch (const std::exception&) {
        std::error_code ec;
        if (!fs::exists(path, ec)) {
          // Not corruption: a dangling ref (the object was GC'ed, perhaps
          // by another process, possibly between resolve and mmap). Drop
          // it and degrade to a clean miss.
          fs::remove(ref_path(options_.disk_dir, fingerprint), ec);
          span.annotate("dangling ref");
        } else {
          // Quarantine (kept for forensics, never served again), drop the
          // ref, and miss so the caller re-synthesizes and rewrites it.
          {
            std::lock_guard<std::mutex> disk_lock(disk_mutex_);
            quarantine_object(options_.disk_dir, path);
          }
          fs::remove(ref_path(options_.disk_dir, fingerprint), ec);
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.disk_corrupt;
          A2A_COUNTER("cache.disk_corrupt").inc();
          span.annotate("corrupt artifact quarantined");
        }
      }
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  A2A_COUNTER("cache.misses").inc();
  span.annotate("miss");
  return std::nullopt;
}

std::shared_ptr<const std::string> ScheduleCache::insert(
    const std::string& fingerprint, const GeneratedSchedule& schedule) {
  obs::TraceSpan span("cache.insert");
  A2A_COUNTER("cache.insertions").inc();
  auto bytes_ptr = std::make_shared<const std::string>(
      generated_schedule_to_bytes(schedule, options_.schedbin));
  const std::string& bytes = *bytes_ptr;
  ArtifactView view = parse_schedule_envelope(bytes);
  view.bytes = bytes_ptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.insertions;
  }
  const bool oversize =
      options_.max_disk_bytes > 0 && bytes.size() > options_.max_disk_bytes;
  if (options_.disk_dir.empty() || oversize) {
    // Held in memory only. An artifact larger than the whole disk budget
    // would only be GC'ed right back (the memory tier's never-admit rule),
    // so its write is skipped and counted for monitoring.
    std::lock_guard<std::mutex> lock(mutex_);
    if (oversize) {
      ++stats_.disk_oversize_rejections;
      A2A_COUNTER("cache.disk_oversize_rejections").inc();
      span.annotate("disk oversize rejection");
    }
    insert_memory_locked(fingerprint, std::move(view), "");
    return bytes_ptr;
  }
  // Serialization and file I/O stay outside the LRU mutex; disk_mutex_
  // serializes writers and the GC within this process, and atomic renames
  // keep a fleet of processes safe.
  const std::string key = schedule_content_key(bytes);
  std::lock_guard<std::mutex> disk_lock(disk_mutex_);
  fs::create_directories(objects_dir(options_.disk_dir));
  fs::create_directories(refs_dir(options_.disk_dir));
  const fs::path obj = object_path(options_.disk_dir, key);
  std::error_code ec;
  bool wrote = false;
  // Content-addressed sharing: another fingerprint (or an earlier pipeline
  // invocation) may already have produced this exact artifact. Verify the
  // bytes before trusting it — a corrupt object would otherwise be
  // poisoned forever, since every recompile-and-reinsert would dedup
  // against the same bad file while every lookup keeps missing on it.
  if (const auto existing = read_file(obj); existing == bytes) {
    fs::last_write_time(obj, fs::file_time_type::clock::now(), ec);
  } else {
    write_file_atomic(obj.string(), bytes);
    wrote = true;
  }
  write_file_atomic(ref_path(options_.disk_dir, fingerprint).string(), key);
  {
    // Before the GC below, so evicting this very object drops the entry.
    std::lock_guard<std::mutex> lock(mutex_);
    insert_memory_locked(fingerprint, std::move(view), key);
  }
  if (options_.max_disk_bytes > 0) {
    // Maintain the running total instead of walking the directory per
    // insert: seed it with one scan, then only GC (which rescans exactly)
    // when the total crosses the budget.
    if (disk_total_ < 0) {
      disk_total_ =
          static_cast<std::int64_t>(scan_artifacts(options_.disk_dir).second);
    } else if (wrote) {
      disk_total_ += static_cast<std::int64_t>(bytes.size());
    }
    if (disk_total_ > static_cast<std::int64_t>(options_.max_disk_bytes)) {
      gc_disk();
    }
  }
  if (disk_total_ >= 0) A2A_GAUGE("cache.disk_bytes").set(disk_total_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (wrote) {
    ++stats_.disk_writes;
    A2A_COUNTER("cache.disk_writes").inc();
  } else {
    ++stats_.disk_dedups;
    A2A_COUNTER("cache.disk_dedups").inc();
    span.annotate("disk dedup");
  }
  return bytes_ptr;
}

void ScheduleCache::gc_disk() {
  // Reap orphaned temp files first: a writer killed between its ofstream
  // write and the rename leaks an artifact-sized ".tmp.<pid>.<seq>" file
  // that scan_artifacts deliberately ignores. Age-gate the reap so a live
  // peer's in-flight write is never yanked from under its rename.
  {
    const auto cutoff =
        fs::file_time_type::clock::now() - std::chrono::hours(1);
    std::error_code ec;
    for (const fs::path& dir :
         {objects_dir(options_.disk_dir), refs_dir(options_.disk_dir)}) {
      for (const auto& de : fs::directory_iterator(dir, ec)) {
        if (!de.is_regular_file(ec)) continue;
        if (de.path().filename().string().find(".tmp.") == std::string::npos) {
          continue;
        }
        if (de.last_write_time(ec) < cutoff) fs::remove(de.path(), ec);
      }
    }
  }
  auto [artifacts, total] = scan_artifacts(options_.disk_dir);
  disk_total_ = static_cast<std::int64_t>(total);
  if (total <= options_.max_disk_bytes) return;
  // Refcount pass: refs pointing at a victim are removed with it, so a
  // later lookup cleanly misses instead of chasing a dangling pointer.
  std::error_code ec;
  std::unordered_map<std::string, std::vector<fs::path>> refs_by_key;
  for (const auto& de : fs::directory_iterator(refs_dir(options_.disk_dir), ec)) {
    if (!de.is_regular_file(ec)) continue;
    if (const auto key = read_file(de.path()); key.has_value()) {
      refs_by_key[*key].push_back(de.path());
    }
  }
  std::sort(artifacts.begin(), artifacts.end(),
            [](const DiskArtifact& a, const DiskArtifact& b) {
              return a.mtime < b.mtime;
            });
  std::unordered_set<std::string> evicted;
  for (const DiskArtifact& victim : artifacts) {
    if (total <= options_.max_disk_bytes) break;
    fs::remove(victim.path, ec);
    for (const fs::path& ref : refs_by_key[victim.key]) fs::remove(ref, ec);
    total -= victim.size;
    evicted.insert(victim.key);
  }
  disk_total_ = static_cast<std::int64_t>(total);
  A2A_COUNTER("cache.gc_runs").inc();
  A2A_COUNTER("cache.disk_evictions").add(evicted.size());
  A2A_GAUGE("cache.disk_bytes").set(disk_total_);
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.disk_evictions += evicted.size();
  // An evicted object's memory entries go with it: no mapping pins an
  // unlinked file past the budget, and a fingerprint the disk no longer
  // resolves is not served.
  for (auto it = entries_.begin(); it != entries_.end();) {
    it = evicted.contains(it->second.key) ? erase_memory_locked(it)
                                          : std::next(it);
  }
}

std::size_t ScheduleCache::disk_object_count() const {
  if (options_.disk_dir.empty()) return 0;
  std::lock_guard<std::mutex> disk_lock(disk_mutex_);
  return scan_artifacts(options_.disk_dir).first.size();
}

std::size_t ScheduleCache::disk_bytes() const {
  if (options_.disk_dir.empty()) return 0;
  std::lock_guard<std::mutex> disk_lock(disk_mutex_);
  return static_cast<std::size_t>(scan_artifacts(options_.disk_dir).second);
}

ScheduleCacheStats ScheduleCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ScheduleCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t ScheduleCache::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memory_bytes_;
}

void ScheduleCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  memory_bytes_ = 0;
  A2A_GAUGE("cache.memory_bytes").set(0);
}

void ScheduleCache::insert_memory_locked(const std::string& fingerprint,
                                         ArtifactView view, std::string key) {
  if (const auto it = entries_.find(fingerprint); it != entries_.end()) {
    erase_memory_locked(it);
  }
  // Larger than the whole budget (every entry when the budget is 0): never
  // admitted. The stale version is gone either way, so a hit cannot serve
  // outdated data.
  const std::size_t bytes = view.envelope.size();
  if (bytes <= options_.max_memory_bytes) {
    lru_.push_front(fingerprint);
    entries_.emplace(fingerprint,
                     Entry{std::move(view), std::move(key), lru_.begin()});
    memory_bytes_ += bytes;
  }
  evict_over_budget_locked();
}

void ScheduleCache::drop_memory(const std::string& fingerprint,
                                const ArtifactView& view) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(fingerprint);
  if (it == entries_.end() ||
      it->second.view.envelope.data() != view.envelope.data()) {
    return;  // already replaced by a fresh insert.
  }
  erase_memory_locked(it);
}

void ScheduleCache::evict_over_budget_locked() {
  while (memory_bytes_ > options_.max_memory_bytes) {
    erase_memory_locked(entries_.find(lru_.back()));
    ++stats_.memory_evictions;
    A2A_COUNTER("cache.memory_evictions").inc();
  }
  A2A_GAUGE("cache.memory_bytes")
      .set(static_cast<std::int64_t>(memory_bytes_));
}

ScheduleCache::EntryMap::iterator ScheduleCache::erase_memory_locked(
    EntryMap::iterator it) {
  memory_bytes_ -= it->second.view.envelope.size();
  lru_.erase(it->second.lru_it);
  A2A_GAUGE("cache.memory_bytes")
      .set(static_cast<std::int64_t>(memory_bytes_));
  return entries_.erase(it);
}

}  // namespace a2a
