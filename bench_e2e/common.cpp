// Fabric catalog, raw-sample statistics and metrics-registry snapshots.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <stdexcept>

#include "bench.hpp"
#include "obs/metrics.hpp"

namespace a2a::e2e {

namespace {

std::unique_ptr<FabricCase> make_case(std::string name, std::string topology,
                                      int nodes, std::string dims,
                                      std::string fabric, ScheduleKind kind,
                                      bool exact, std::string demand = {},
                                      std::string collective = {}) {
  auto c = std::make_unique<FabricCase>();
  c->name = std::move(name);
  std::string query = "topology=" + topology + "&fabric=" + fabric;
  if (topology == "torus3d") {
    query += "&dims=" + dims;
  } else {
    query += "&nodes=" + std::to_string(nodes) + "&degree=4";
  }
  if (!demand.empty()) query += "&demand=" + demand;
  if (!collective.empty()) query += "&collective=" + collective;
  c->request = service::parse_service_request(query);
  c->kind = kind;
  c->flow_tolerance =
      exact ? 1e-9 : c->request.options.mcf.fptas_epsilon;
  c->topology = service::build_topology(c->request.spec);
  c->fabric = service::build_fabric(c->request.fabric);
  return c;
}

}  // namespace

Catalog::Catalog() {
  using K = ScheduleKind;
  // The cold-synthesis matrix: each takes a different Fig. 1 branch.
  cases_.push_back(make_case("gk27_pmcf", "genkautz", 27, "", "cerio",
                             K::kPathPMcf, true));
  cases_.push_back(make_case("torus444_extp", "torus3d", 0, "4x4x4", "cerio",
                             K::kPathExtracted, false));
  cases_.push_back(make_case("gk14_tsmcf", "genkautz", 14, "", "oneccl",
                             K::kLinkTsMcf, true));
  cases_.push_back(make_case("gk27_unroll", "genkautz", 27, "", "oneccl",
                             K::kLinkUnrolled, true));
  cases_.push_back(make_case("gk64_fptas", "genkautz", 64, "", "cerio",
                             K::kPathPMcf, false));
  // Cheap extras for the warm set and the write stream.
  cases_.push_back(make_case("gk16_pmcf", "genkautz", 16, "", "cerio",
                             K::kPathPMcf, true));
  cases_.push_back(make_case("gk27_zipf06", "genkautz", 27, "", "cerio",
                             K::kPathPMcf, true, "zipf:0.6"));
  cases_.push_back(make_case("gk27_zipf12", "genkautz", 27, "", "cerio",
                             K::kPathPMcf, true, "zipf:1.2"));
  cases_.push_back(make_case("gk64_zipf06", "genkautz", 64, "", "cerio",
                             K::kPathPMcf, false, "zipf:0.6"));
  cases_.push_back(make_case("gk64_allreduce", "genkautz", 64, "", "cerio",
                             K::kPathPMcf, false, "", "allreduce"));
  for (const char* n : {"gk27_pmcf", "torus444_extp", "gk14_tsmcf",
                        "gk27_unroll", "gk64_fptas"}) {
    matrix_.push_back(&get(n));
  }
  // An odd count of equally popular bases puts the median hit inside one
  // base's latency band (gk64_fptas, 54 KB) rather than between two.
  for (const char* n : {"gk16_pmcf", "gk27_zipf06", "gk64_fptas",
                        "gk64_zipf06", "gk27_unroll"}) {
    warm_.push_back(&get(n));
  }
  for (const char* n : {"gk64_fptas", "gk27_zipf06", "gk27_zipf12",
                        "gk64_allreduce"}) {
    write_.push_back(&get(n));
  }
}

const FabricCase& Catalog::get(std::string_view name) const {
  for (const auto& c : cases_) {
    if (c->name == name) return *c;
  }
  throw std::invalid_argument("unknown fabric case: " + std::string(name));
}

service::ServiceRequest with_knob(const FabricCase& c, int knob) {
  service::ServiceRequest r = c.request;
  if (c.fabric.nic_forwarding) {
    r.options.exact_tsmcf_limit = knob;
  } else {
    r.options.path_diversity_threshold = knob;
  }
  return r;
}

std::string http_target(const service::ServiceRequest& r) {
  return "/schedule?" + service::canonical_query(r);
}

std::string fingerprint_of(const FabricCase& c,
                           const service::ServiceRequest& r) {
  return schedule_fingerprint(c.topology, c.fabric, r.options);
}

// ------------------------------------------------------------- samples ---

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::median() const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower = *std::max_element(v.begin(), v.begin() + mid);
  return 0.5 * (lower + upper);
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  const auto n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double Samples::tail_level() const {
  double best = 0.0;
  for (const double q : {0.9, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(values_.size()) * (1.0 - q) >= 10.0) best = q;
  }
  return best;
}

std::string Samples::json(double scale) const {
  char buf[192];
  const double tail = tail_level();
  if (tail > 0.0) {
    std::snprintf(buf, sizeof buf,
                  "{\"n\": %zu, \"p50\": %.6g, \"tail\": \"p%g\", "
                  "\"tail_value\": %.6g}",
                  count(), median() * scale, tail * 100.0,
                  quantile(tail) * scale);
  } else {
    std::snprintf(buf, sizeof buf, "{\"n\": %zu, \"p50\": %.6g}", count(),
                  median() * scale);
  }
  return buf;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void release_free_memory() {
#if defined(__GLIBC__)
  (void)malloc_trim(0);
#endif
}

std::map<std::string, double> metrics_snapshot() {
  std::map<std::string, double> out;
  for (const obs::MetricSample& s : obs::MetricsRegistry::global().snapshot()) {
    out[s.name] = s.kind == obs::MetricKind::kHistogram
                      ? static_cast<double>(s.sum_ns)
                      : static_cast<double>(s.value);
  }
  return out;
}

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0.0;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0.0 : b->second);
}

void ClientTally::merge(const ClientTally& other) {
  hit_s.append(other.hit_s);
  miss_s.append(other.miss_s);
  connect_s.append(other.connect_s);
  hit_bytes += other.hit_bytes;
  attempted += other.attempted;
  failed += other.failed;
  missed_fingerprints.insert(missed_fingerprints.end(),
                             other.missed_fingerprints.begin(),
                             other.missed_fingerprints.end());
  errors.insert(errors.end(), other.errors.begin(), other.errors.end());
}

void ClientTally::fail(std::string why) {
  ++failed;
  // Keep the first few messages; the count is what the result reports.
  if (errors.size() < 16) errors.push_back(std::move(why));
}

}  // namespace a2a::e2e
