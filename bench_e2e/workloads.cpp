// The three workloads: preparation, repeated set-up, and the measured
// phases (cold synthesis, hit serving, mixed traffic).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "container/schedbin.hpp"

namespace a2a::e2e {

namespace fs = std::filesystem;

namespace {

/// Fingerprint variants per warm base: 5 bases x 26 = 130 fingerprints,
/// about twice the broker's hot_capacity of 64.
constexpr int kVariantsPerBase = 26;
/// Popularity skew within a base (Zipf exponent over its variants).
constexpr double kZipfExponent = 1.0;
/// Share of hit requests that first open a fresh connection.
constexpr double kFreshConnectionShare = 1.0 / 16.0;
/// The write stream's pace: one miss per interval (a miss takes ~0.1 s), so
/// it loads the machine by the same amount whatever the machine's speed.
constexpr double kWriteInterval = 0.2;
/// Every n-th write-stream request is sent on every connection at once.
constexpr int kCoalesceEvery = 8;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
/// Cold misses per matrix fabric in every run (about 43 s on 4 vCPU):
/// enough for a median that a few seconds of load elsewhere on the machine
/// does not move. gk64_fptas outnumbers the rest, so miss_p50_ms of a
/// cold-synth run falls well inside its samples.
const std::pair<const char*, int> kColdPlan[] = {
    {"torus444_extp", 3}, {"gk14_tsmcf", 4}, {"gk27_pmcf", 5},
    {"gk27_unroll", 7},   {"gk64_fptas", 30}};
/// Alternating slices of the cold plan and of the hit phase per run.
constexpr int kSlices = 3;

}  // namespace

Bench::Bench(const Catalog& catalog, Options options)
    : catalog_(catalog), options_(std::move(options)) {
  knob_base_ = 1'000'000 + static_cast<int>(options_.seed % 1000) * 10'000;
  double total = 0.0;
  for (int r = 0; r < kVariantsPerBase; ++r) {
    total += 1.0 / std::pow(r + 1.0, kZipfExponent);
    zipf_cdf_.push_back(total);
  }
  for (double& x : zipf_cdf_) x /= total;
}

Bench::~Bench() {
  service_.reset();
  cold_service_.reset();
  for (const std::string& dir : dirs_) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
}

void Bench::prepare() {
  // Direct synthesis of every fabric the warm set and the write stream use:
  // the references their served bytes, kind and F are checked against.
  std::vector<const FabricCase*> fabrics = catalog_.warm_bases();
  for (const FabricCase* c : catalog_.write_fabrics()) {
    if (std::find(fabrics.begin(), fabrics.end(), c) == fabrics.end()) {
      fabrics.push_back(c);
    }
  }
  for (const FabricCase* c : fabrics) {
    auto base = std::make_unique<PreparedBase>();
    base->fabric = c;
    base->schedule =
        synthesize_schedule(c->topology, c->fabric, c->request.options);
    const std::string envelope = generated_schedule_to_bytes(base->schedule);
    base->envelope_bytes = envelope.size();
    base->schedbin = std::make_shared<const std::string>(
        parse_schedule_envelope(envelope).schedbin());
    std::string error = checker_.set_reference(*c, base->schedule);
    if (error.empty()) error = checker_.check_content(*c, *base->schedbin);
    if (!error.empty()) throw std::runtime_error("reference " + error);
    bases_.push_back(std::move(base));
  }

  // The warm set: variants of each base under knobs its branch never reads,
  // disjoint from the defaults and from the fresh knobs misses use.
  Rng rng(options_.seed);
  const int warm_knob = 2000 + static_cast<int>(options_.seed % 1000) * 100;
  for (std::size_t b = 0; b < catalog_.warm_bases().size(); ++b) {
    const PreparedBase& base = *bases_[b];
    std::vector<std::size_t> ranks;
    for (int v = 0; v < kVariantsPerBase; ++v) {
      WarmEntry e;
      e.base = &base;
      e.request = with_knob(*base.fabric, warm_knob + v);
      e.target = http_target(e.request);
      e.fingerprint = fingerprint_of(*base.fabric, e.request);
      ranks.push_back(warm_.size());
      warm_.push_back(std::move(e));
    }
    rng.shuffle(ranks);  // which variants are popular is the seed's choice
    by_rank_.push_back(std::move(ranks));
  }
}

std::size_t Bench::disk_budget() const {
  if (options_.workload != "serve-mixed") return 0;
  // Room for the warm set's artifacts and the largest write-only artifact,
  // but not for every write-only artifact at once: the write stream keeps
  // the GC evicting its own (least recently used) artifacts.
  std::size_t warm = 0, largest = 0, smallest = SIZE_MAX;
  for (const auto& base : bases_) {
    const auto& w = catalog_.warm_bases();
    if (std::find(w.begin(), w.end(), base->fabric) != w.end()) {
      warm += base->envelope_bytes;
    } else {
      largest = std::max(largest, base->envelope_bytes);
      smallest = std::min(smallest, base->envelope_bytes);
    }
  }
  return warm + largest + smallest / 2;
}

double Bench::setup_once(int index) {
  const std::string dir =
      (fs::path(options_.scratch_dir) / ("cache-" + std::to_string(index)))
          .string();
  fs::remove_all(dir);
  dirs_.push_back(dir);
  // One serving service at a time, so the set-ups do not set the peak RSS.
  service_.reset();
  release_free_memory();
  const double t0 = now_seconds();
  auto service = std::make_unique<Service>(dir, disk_budget());
  for (const WarmEntry& e : warm_) {
    (void)service->cache.insert(e.fingerprint, e.base->schedule);
  }
  HttpClient client(service->server.port());
  client.connect();
  HttpResponse response;
  for (const WarmEntry& e : warm_) {
    if (!client.get(e.target, response) || response.status != 200 ||
        !response.hit || response.body != *e.base->schedbin) {
      throw std::runtime_error("set-up: warm fingerprint of " +
                               e.base->fabric->name +
                               " was not served as a hit with its bytes");
    }
  }
  const double seconds = now_seconds() - t0;
  client.close();
  service_ = std::move(service);
  return seconds;
}

std::size_t Bench::pick_warm(Rng& rng) const {
  const std::size_t base = rng.next_below(by_rank_.size());
  const double u = rng.next_double();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - zipf_cdf_.begin()), zipf_cdf_.size() - 1);
  return by_rank_[base][rank];
}

bool Bench::request_miss(const Service& service, HttpClient& client,
                         const FabricCase& c, const service::ServiceRequest& r,
                         ClientTally& tally, HttpResponse& response,
                         double& seconds) {
  const std::string target = http_target(r);
  ++tally.attempted;
  bool ok = false;
  const double t0 = now_seconds();
  try {
    ok = client.get(target, response);
  } catch (const std::exception& e) {
    tally.fail(c.name + ": " + e.what());
    return false;
  }
  seconds = now_seconds() - t0;
  if (!ok) {
    tally.fail(c.name + ": transport error on a miss");
    return false;
  }
  std::string error;
  try {
    error = checker_.check_miss(service.cache, c, response);
  } catch (const std::exception& e) {
    error = c.name + ": miss check threw: " + e.what();
  }
  if (!error.empty()) {
    tally.fail(error);
    return false;
  }
  if (!response.hit) {
    tally.miss_s.add(seconds);
    tally.missed_fingerprints.push_back(response.fingerprint);
  }
  return true;
}

void Bench::read_stream(int stream, double deadline, ClientTally& tally) {
  Rng rng(options_.seed * 0x9e3779b97f4a7c15ULL + 101 + stream);
  HttpClient client(service_->server.port());
  HttpResponse response;
  std::uint64_t seen = coalesce_generation_.load();
  while (now_seconds() < deadline) {
    try {
      if (const std::uint64_t gen = coalesce_generation_.load(); gen != seen) {
        seen = gen;
        service::ServiceRequest r;
        {
          std::lock_guard lock(coalesce_mutex_);
          r = coalesce_request_;
        }
        double seconds = 0.0;
        (void)request_miss(*service_, client, catalog_.coalesce_fabric(), r,
                           tally, response, seconds);
        continue;
      }
      if (rng.next_double() < kFreshConnectionShare) {
        tally.connect_s.add(client.connect());
      }
      const WarmEntry& e = warm_[pick_warm(rng)];
      ++tally.attempted;
      const double t0 = now_seconds();
      const bool ok = client.get(e.target, response);
      const double seconds = now_seconds() - t0;
      if (!ok) {
        tally.fail(e.base->fabric->name + ": transport error on a hit");
      } else if (response.status != 200) {
        tally.fail(e.base->fabric->name + ": HTTP " +
                   std::to_string(response.status) + " on a warm request");
      } else if (response.body != *e.base->schedbin) {
        tally.fail(e.base->fabric->name +
                   ": served bytes differ from the first serve");
      } else if (response.hit) {
        tally.hit_s.add(seconds);
        tally.hit_bytes += response.body.size();
      } else {
        tally.miss_s.add(seconds);
        tally.missed_fingerprints.push_back(response.fingerprint);
      }
    } catch (const std::exception& e) {
      tally.fail(std::string("read stream: ") + e.what());
    }
  }
}

void Bench::write_stream(double deadline, ClientTally& tally) {
  HttpClient client(service_->server.port());
  HttpResponse response;
  const auto& fabrics = catalog_.write_fabrics();
  double next = now_seconds();
  for (int i = 0; next < deadline; ++i) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(next - now_seconds()));
    next = std::max(now_seconds(), next + kWriteInterval);
    try {
      double seconds = 0.0;
      if (i % kCoalesceEvery == kCoalesceEvery - 1) {
        const FabricCase& c = catalog_.coalesce_fabric();
        const service::ServiceRequest r = with_knob(c, next_knob());
        {
          std::lock_guard lock(coalesce_mutex_);
          coalesce_request_ = r;
        }
        coalesce_generation_.fetch_add(1);
        (void)request_miss(*service_, client, c, r, tally, response,
                           seconds);
      } else {
        const FabricCase& c =
            *fabrics[static_cast<std::size_t>(i) % fabrics.size()];
        (void)request_miss(*service_, client, c, with_knob(c, next_knob()),
                           tally, response, seconds);
      }
      release_free_memory();
    } catch (const std::exception& e) {
      tally.fail(std::string("write stream: ") + e.what());
    }
  }
}

void Bench::serve_phase(double seconds, int readers, bool writer,
                        WorkloadResult& out) {
  std::vector<ClientTally> tallies(static_cast<std::size_t>(readers) + 1);
  const double t0 = now_seconds();
  const double deadline = t0 + seconds;
  std::vector<std::thread> threads;
  for (int i = 0; i < readers; ++i) {
    threads.emplace_back([this, i, deadline, &tallies] {
      read_stream(i, deadline, tallies[static_cast<std::size_t>(i)]);
    });
  }
  if (writer) {
    threads.emplace_back(
        [this, deadline, &tallies] { write_stream(deadline, tallies.back()); });
  }
  // Misses in service at once, sampled every millisecond.
  while (now_seconds() < deadline) {
    const std::size_t pending = service_->admission.pending();
    if (pending > pending_max_) pending_max_ = pending;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : threads) t.join();
  out.serve_seconds += now_seconds() - t0;
  for (const ClientTally& t : tallies) out.serve.merge(t);
  release_free_memory();
}

std::vector<const FabricCase*> Bench::cold_plan() const {
  // Each fabric's misses are spread evenly over the plan, so a burst of load
  // on the machine lands on few of any one fabric's samples. The order is
  // the same for every seed: the cold service keeps every schedule it made,
  // so the order sets which synthesis runs on top of the most retained
  // memory, and with it peak_rss_mb.
  std::vector<std::pair<double, const FabricCase*>> spread;
  double phase = 0.0;
  for (const auto& [name, count] : kColdPlan) {
    phase = std::fmod(phase + 0.618034, 1.0);  // golden-ratio offsets
    for (int i = 0; i < count; ++i) {
      spread.emplace_back((i + phase) / count, &catalog_.get(name));
    }
  }
  std::sort(spread.begin(), spread.end());
  std::vector<const FabricCase*> plan;
  for (const auto& [position, fabric] : spread) plan.push_back(fabric);
  return plan;
}

void Bench::cold_phase(const std::vector<const FabricCase*>& misses,
                       WorkloadResult& out) {
  ClientTally tally;
  HttpClient client(cold_service_->server.port());
  HttpResponse response;
  for (const FabricCase* fabric : misses) {
    const FabricCase& c = *fabric;
    Samples& samples = out.cold_s[c.name];
    // A fabric's first miss is its default request, the reference its
    // later fresh fingerprints must match.
    const service::ServiceRequest r =
        samples.empty() ? c.request : with_knob(c, next_knob());
    double seconds = 0.0;
    const bool ok =
        request_miss(*cold_service_, client, c, r, tally, response, seconds);
    release_free_memory();
    if (!ok) continue;
    if (response.hit) {
      tally.fail(c.name + ": a cold request was served as a hit");
      continue;
    }
    samples.add(seconds);
  }
  out.cold.merge(tally);
}

WorkloadResult Bench::run() {
  WorkloadResult out;
  prepare();
  for (int i = 0; i < kSetups; ++i) out.setup_s.add(setup_once(i));
  out.total.attempted += static_cast<std::uint64_t>(kSetups) * warm_.size();

  // Cold misses go to a second, idle service with an empty cache, so they
  // neither disturb the serving service's cache (nor its disk GC) nor wait
  // behind its traffic.
  const std::string cold_dir =
      (fs::path(options_.scratch_dir) / "cache-cold").string();
  dirs_.push_back(cold_dir);
  cold_service_ = std::make_unique<Service>(cold_dir, 0);

  const auto before = metrics_snapshot();
  const ScheduleCacheStats stats_before = service_->cache.stats();
  const std::size_t memory_before = service_->cache.memory_bytes();

  const std::string& w = options_.workload;
  if (w != "cold-synth" && w != "serve-mixed") {
    throw std::invalid_argument("unknown workload: " + w);
  }
  // The cold plan and the hit phase alternate in slices, so both sets of
  // figures span the whole run and drift in the machine's speed over it
  // reaches them alike.
  const std::vector<const FabricCase*> plan = cold_plan();
  for (int slice = 0; slice < kSlices; ++slice) {
    const auto at = [&](int s) {
      return plan.begin() +
             static_cast<std::ptrdiff_t>(plan.size() * s / kSlices);
    };
    const std::vector<const FabricCase*> part(at(slice), at(slice + 1));
    const double seconds = options_.seconds / kSlices;
    if (w == "cold-synth") {
      cold_phase(part, out);
      serve_phase(seconds, 3, /*writer=*/false, out);
    } else {
      serve_phase(seconds, 2, /*writer=*/true, out);
      cold_phase(part, out);
    }
  }
  out.total.merge(out.serve);
  out.total.merge(out.cold);

  const auto after = metrics_snapshot();
  const ScheduleCacheStats stats = service_->cache.stats();
  auto& m = out.counters;
  const double hot = delta(before, after, "service.hot_hits");
  const double fall = delta(before, after, "service.artifact_hits");
  m["admission.pending_max"] = static_cast<double>(pending_max_);
  m["admission.rejected"] = delta(before, after, "service.rejected_queue_full");
  m["admission.shed"] = delta(before, after, "service.shed_deadline");
  m["broker.hot_hit_ratio"] = hot + fall > 0 ? hot / (hot + fall) : 0.0;
  std::vector<std::string> missed = out.total.missed_fingerprints;
  std::sort(missed.begin(), missed.end());
  missed.erase(std::unique(missed.begin(), missed.end()), missed.end());
  m["broker.syntheses_per_miss"] =
      missed.empty() ? 0.0
                     : delta(before, after, "service.syntheses") /
                           static_cast<double>(missed.size());
  m["broker.coalesced_waiters"] = delta(before, after, "service.coalesced");
  m["cache.disk_writes"] =
      static_cast<double>(stats.disk_writes - stats_before.disk_writes);
  m["cache.disk_dedups"] =
      static_cast<double>(stats.disk_dedups - stats_before.disk_dedups);
  m["cache.disk_evictions"] =
      static_cast<double>(stats.disk_evictions - stats_before.disk_evictions);
  m["cache.memory_bytes"] =
      static_cast<double>(service_->cache.memory_bytes()) -
      static_cast<double>(memory_before);
  const Samples& hits = out.serve.hit_s;
  m["server.bytes_per_hit"] =
      hits.empty() ? 0.0
                   : static_cast<double>(out.serve.hit_bytes) /
                         static_cast<double>(hits.count());
  m["server.connect_us"] = out.serve.connect_s.median() * 1e6;
  m["server.hit_p99_us"] = hits.quantile(0.99) * 1e6;
  return out;
}

}  // namespace a2a::e2e
