// The live service and the correctness checker.
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "collectives/collective.hpp"
#include "container/schedbin.hpp"
#include "mcf/concurrent_flow.hpp"
#include "runtime/ct_simulator.hpp"
#include "runtime/sf_simulator.hpp"
#include "schedule/validate.hpp"

namespace a2a::e2e {

namespace {

ScheduleCacheOptions cache_options(const std::string& disk_dir,
                                   std::size_t max_disk_bytes) {
  ScheduleCacheOptions options;
  options.disk_dir = disk_dir;
  options.max_disk_bytes = max_disk_bytes;
  return options;
}

service::ServerOptions server_options() {
  service::ServerOptions options;
  options.port = 0;     // ephemeral
  options.threads = 4;  // schedserved's default
  return options;
}

const char* kind_name(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kLinkTsMcf: return "link-tsMCF";
    case ScheduleKind::kLinkUnrolled: return "link-unrolled";
    case ScheduleKind::kPathPMcf: return "path-pMCF";
    case ScheduleKind::kPathExtracted: return "path-MCF-extP";
  }
  return "?";
}

bool is_link(ScheduleKind kind) {
  return kind == ScheduleKind::kLinkTsMcf ||
         kind == ScheduleKind::kLinkUnrolled;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

Service::Service(const std::string& disk_dir, std::size_t max_disk_bytes)
    : cache(cache_options(disk_dir, max_disk_bytes)),
      broker(&cache, &pool),
      admission(&broker),
      server(&admission, server_options()) {
  server.start();
}

std::string Checker::set_reference(const FabricCase& c,
                                   const GeneratedSchedule& s) {
  std::lock_guard lock(mutex_);
  return check_flow_locked(c, s.kind, s.concurrent_flow, c.flow_tolerance);
}

std::string Checker::check_flow_locked(const FabricCase& c, ScheduleKind kind,
                                       double flow, double tolerance) {
  if (kind != c.kind) {
    return c.name + ": served a " + kind_name(kind) + " schedule, expected " +
           kind_name(c.kind) + " (the Fig. 1 branch changed)";
  }
  if (!(flow > 0.0) || !std::isfinite(flow)) {
    return c.name + ": non-positive concurrent flow " + std::to_string(flow);
  }
  // The first schedule checked for a fabric is its default request's.
  const auto [it, inserted] = reference_flow_.emplace(c.name, flow);
  if (inserted) return {};
  const double ref = it->second;
  if (std::abs(flow - ref) > tolerance * ref) {
    std::ostringstream os;
    os.precision(17);
    os << c.name << ": F = " << flow << " differs from the default request's "
       << ref << " by more than " << tolerance << " relative";
    return os.str();
  }
  return {};
}

std::string Checker::check_miss(const ScheduleCache& cache,
                                const FabricCase& c, const HttpResponse& r) {
  if (r.status != 200) {
    return c.name + ": HTTP " + std::to_string(r.status) + " on a miss";
  }
  // The stored envelope carries the kind and F at full precision. The disk
  // GC of serve-mixed can drop the ref before we look; the response's
  // six-digit X-A2A-Flow header is the fallback.
  const std::string path = cache.entry_path(r.fingerprint);
  std::optional<std::string> envelope;
  if (!path.empty()) envelope = read_file(path);
  std::string error;
  if (envelope) {
    const ArtifactView view = parse_schedule_envelope(*envelope);
    if (view.schedbin() != r.body) {
      return c.name + ": served bytes differ from the cached artifact";
    }
    std::lock_guard lock(mutex_);
    error = check_flow_locked(c, view.kind, view.concurrent_flow,
                              c.flow_tolerance);
  } else {
    const SchedBinInfo info = schedbin_inspect(r.body);
    const bool link = info.kind == SchedBinKind::kLink;
    if (link != is_link(c.kind)) {
      return c.name + ": served schedule has the wrong kind";
    }
    std::lock_guard lock(mutex_);
    error = check_flow_locked(c, c.kind, std::stod(r.flow),
                              std::max(c.flow_tolerance, 1e-5));
  }
  if (!error.empty()) return error;
  return check_content(c, r.body);
}

std::string Checker::check_content(const FabricCase& c,
                                   std::string_view schedbin) {
  const std::string key = c.name + "/" + schedule_content_key(schedbin);
  {
    std::lock_guard lock(mutex_);
    if (const auto it = content_.find(key); it != content_.end()) {
      return it->second;
    }
  }
  std::string error;
  double algbw = 0.0;
  try {
    const DiGraph& g = c.topology;
    const int n = g.num_nodes();
    // Link schedules of host-bottlenecked fabrics address the augmented
    // graph; the catalog has none, so the topology is the schedule graph.
    A2A_REQUIRE(c.fabric.nic_forwarding ||
                    c.fabric.injection_GBps >=
                        g.max_out_degree() * c.fabric.link_GBps,
                c.name, ": host-bottlenecked link fabrics are not supported");
    const std::vector<NodeId> terminals = all_nodes(g);
    std::optional<DemandMatrix> demand;
    if (!c.request.options.workload.is_default()) {
      demand = effective_demand(c.request.options.workload, n);
    }
    const DemandMatrix* d = demand ? &*demand : nullptr;
    const SchedBinReader reader = SchedBinReader::from_bytes(schedbin);
    ValidationResult v;
    if (is_link(c.kind)) {
      const LinkSchedule s = reader.read_link();
      v = validate_link_schedule(g, s, terminals, d);
      algbw = simulate_link_schedule(g, s, kShardBytes, n, c.fabric)
                  .algo_throughput_GBps;
    } else {
      const PathSchedule s = reader.read_path(g);
      v = validate_path_schedule(g, s, terminals, d);
      algbw = simulate_path_schedule(g, s, kShardBytes, n, c.fabric)
                  .algo_throughput_GBps;
    }
    if (!v.ok) {
      error = c.name + ": schedule fails validation: " +
              (v.errors.empty() ? std::string("?") : v.errors.front());
    }
  } catch (const std::exception& e) {
    error = c.name + ": served artifact does not decode: " + e.what();
  }
  std::lock_guard lock(mutex_);
  content_.emplace(key, error);
  if (error.empty()) algbw_.emplace(c.name, algbw);
  return error;
}

double Checker::algbw(const std::string& fabric) const {
  std::lock_guard lock(mutex_);
  const auto it = algbw_.find(fabric);
  return it == algbw_.end() ? 0.0 : it->second;
}

}  // namespace a2a::e2e
