// The traced run: times calls into each layer's public functions, each
// wrapped in one of the benchmark's own spans, on a fresh service; stage
// and solver self times come from the spans the program already emits.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "collectives/collective.hpp"
#include "container/schedbin.hpp"
#include "mcf/concurrent_flow.hpp"
#include "obs/trace.hpp"
#include "runtime/ct_simulator.hpp"
#include "runtime/sf_simulator.hpp"
#include "schedule/validate.hpp"

namespace a2a::e2e {

namespace {

/// Fabrics synthesized three times untraced and three times traced for the
/// tracing overhead: the most spans per second of pipeline time.
const char* const kOverheadFabrics[] = {"gk64_fptas", "gk27_unroll"};
constexpr int kOverheadReps = 3;
/// Repeats of the warm set in the hit-path probes.
constexpr int kHitProbeRounds = 4;

double seconds_of(const obs::TraceEvent& e) {
  return static_cast<double>(e.dur_ns) * 1e-9;
}
std::uint64_t end_of(const obs::TraceEvent& e) { return e.start_ns + e.dur_ns; }
bool named(const obs::TraceEvent& e, const char* name) {
  return std::strcmp(e.name, name) == 0;
}
bool within(const obs::TraceEvent& e, const obs::TraceEvent& outer) {
  return e.start_ns >= outer.start_ns && end_of(e) <= end_of(outer);
}

/// Durations (seconds) of every span with this name.
Samples spans(const std::vector<obs::TraceEvent>& events, const char* name) {
  Samples out;
  for (const auto& e : events) {
    if (named(e, name)) out.add(seconds_of(e));
  }
  return out;
}

/// Self times of the pipeline stages inside one traced synthesize call.
void stage_times(const std::vector<obs::TraceEvent>& events,
                 const obs::TraceEvent& call, const std::string& f,
                 std::map<std::string, double>& m) {
  const obs::TraceEvent* pipeline = nullptr;
  for (const auto& e : events) {
    if (e.tid == call.tid && named(e, "pipeline.generate_schedule") &&
        within(e, call)) {
      pipeline = &e;
    }
  }
  if (pipeline == nullptr) throw std::runtime_error("no pipeline span");
  double solve = 0, extract = 0, compile = 0, chunk = 0, staged = 0;
  double master = 0;
  std::uint64_t child_start = UINT64_MAX, child_end = 0;
  for (const auto& e : events) {
    if (named(e, "mcf.child") && within(e, *pipeline)) {
      child_start = std::min(child_start, e.start_ns);
      child_end = std::max(child_end, end_of(e));
    }
    if (e.tid != pipeline->tid || !within(e, *pipeline)) continue;
    if (named(e, "stage.chunk")) chunk += seconds_of(e);
    if (named(e, "mcf.master")) master += seconds_of(e);
    if (e.depth != pipeline->depth + 1) continue;
    if (std::strncmp(e.name, "stage.", 6) == 0) staged += seconds_of(e);
    if (named(e, "stage.solve")) solve += seconds_of(e);
    if (named(e, "stage.extract")) extract += seconds_of(e);
    if (named(e, "stage.compile")) compile += seconds_of(e);
  }
  const double total = seconds_of(*pipeline);
  m["pipeline.synthesize_s." + f] = seconds_of(call);
  m["stage.solve_s." + f] = solve;
  m["stage.extract_s." + f] = extract;
  // stage.chunk runs nested inside stage.compile.
  m["stage.compile_s." + f] = compile - chunk;
  m["stage.chunk_s." + f] = chunk;
  m["stage.other_s." + f] = total - staged;
  m["stage.solve_share." + f] = solve / seconds_of(call);
  if (f == "torus444_extp" || f == "gk27_unroll") {
    m["mcf.master_s." + f] = master;
    m["mcf.child_s." + f] =
        child_end > child_start
            ? static_cast<double>(child_end - child_start) * 1e-9
            : 0.0;
  }
}

}  // namespace

std::map<std::string, double> Bench::probe_layers(ClientTally& tally) {
  std::map<std::string, double> m;

  // Tracing overhead: the same syntheses with tracing off and on,
  // alternated so drift in the machine's speed cancels.
  double untraced = 0.0, traced = 0.0;
  for (const char* name : kOverheadFabrics) {
    const FabricCase& c = catalog_.get(name);
    Samples off, on;
    for (int i = 0; i < kOverheadReps; ++i) {
      double t0 = now_seconds();
      (void)synthesize_schedule(c.topology, c.fabric, c.request.options);
      off.add(now_seconds() - t0);
      obs::TraceSession overhead_session;
      t0 = now_seconds();
      (void)synthesize_schedule(c.topology, c.fabric, c.request.options);
      on.add(now_seconds() - t0);
    }
    untraced += off.median();
    traced += on.median();
  }
  m["obs.trace_overhead"] = traced / untraced;

  (void)setup_once(static_cast<int>(dirs_.size()));
  tally.attempted += warm_.size();
  Service& svc = *service_;
  obs::TraceSession session;

  // ---- core.api / mcf / lp / container / schedule / runtime, per fabric.
  for (const FabricCase* c : catalog_.matrix()) {
    GeneratedSchedule schedule;
    const auto before = metrics_snapshot();
    {
      obs::TraceSpan span("bench.synthesize_schedule", c->name);
      schedule =
          synthesize_schedule(c->topology, c->fabric, c->request.options);
    }
    const auto after = metrics_snapshot();
    if (c->name != "torus444_extp" && c->name != "gk64_fptas") {
      m["lp.iterations." + c->name] = delta(before, after, "lp.iterations");
      m["lp.refactorizations." + c->name] =
          delta(before, after, "lp.refactorizations");
      m["lp.solve_s." + c->name] =
          delta(before, after, "lp.solve.seconds") * 1e-9;
    }
    std::string envelope;
    {
      obs::TraceSpan span("bench.generated_schedule_to_bytes", c->name);
      envelope = generated_schedule_to_bytes(schedule);
    }
    const std::string schedbin(parse_schedule_envelope(envelope).schedbin());
    m["container.encoded_bytes." + c->name] =
        static_cast<double>(schedbin.size());
    const std::vector<NodeId> terminals = all_nodes(c->topology);
    const int n = c->topology.num_nodes();
    std::optional<LinkSchedule> link;
    std::optional<PathSchedule> path;
    {
      obs::TraceSpan span("bench.schedbin_decode", c->name);
      const SchedBinReader reader = SchedBinReader::from_bytes(schedbin);
      if (schedule.link) {
        link = reader.read_link();
      } else {
        path = reader.read_path(c->topology);
      }
    }
    ValidationResult v;
    {
      obs::TraceSpan span("bench.validate", c->name);
      v = link ? validate_link_schedule(c->topology, *link, terminals)
               : validate_path_schedule(c->topology, *path, terminals);
    }
    if (!v.ok) tally.fail(c->name + ": probe schedule fails validation");
    double algbw = 0.0;
    {
      obs::TraceSpan span("bench.simulate", c->name);
      algbw = link ? simulate_link_schedule(c->topology, *link,
                                            Checker::kShardBytes, n, c->fabric)
                         .algo_throughput_GBps
                   : simulate_path_schedule(c->topology, *path,
                                            Checker::kShardBytes, n, c->fabric)
                         .algo_throughput_GBps;
    }
    m["runtime.algbw_GBps." + c->name] = algbw;
    m["runtime.concurrent_flow." + c->name] = schedule.concurrent_flow;
    if (link) {
      long long deliveries = 0;
      for (const Transfer& t : link->transfers) {
        if (t.to == t.chunk.dst) ++deliveries;
      }
      m["schedule.chunks." + c->name] = static_cast<double>(deliveries);
      m["schedule.routes." + c->name] =
          static_cast<double>(link->transfers.size());
    } else {
      m["schedule.chunks." + c->name] =
          static_cast<double>(path->total_chunks());
      m["schedule.routes." + c->name] =
          static_cast<double>(path->entries.size());
    }
  }

  // ---- core.cache: inserts of fresh fingerprints, zero-copy lookups.
  for (int round = 0; round < kHitProbeRounds; ++round) {
    for (const auto& base : bases_) {
      const auto& w = catalog_.warm_bases();
      if (std::find(w.begin(), w.end(), base->fabric) == w.end()) continue;
      const auto r = with_knob(*base->fabric, next_knob());
      obs::TraceSpan span("bench.cache_insert", base->fabric->name);
      (void)svc.cache.insert(fingerprint_of(*base->fabric, r), base->schedule);
    }
  }
  for (int round = 0; round < 2; ++round) {
    for (const WarmEntry& e : warm_) {
      obs::TraceSpan span("bench.lookup_artifact");
      if (!svc.cache.lookup_artifact(e.fingerprint)) {
        tally.fail("probe: lookup_artifact missed a warm fingerprint");
      }
    }
  }

  // ---- service.broker: a one-entry hot tier makes every first lookup of a
  // fingerprint fall through to the cache and every second one hot.
  {
    service::BrokerOptions options;
    options.hot_capacity = 1;
    service::ScheduleBroker broker(&svc.cache, nullptr, options);
    for (const WarmEntry& e : warm_) {
      bool ok = true;
      {
        obs::TraceSpan span("bench.try_lookup.fallthrough");
        ok = broker.try_lookup(e.fingerprint).has_value() && ok;
      }
      {
        obs::TraceSpan span("bench.try_lookup.hot");
        ok = broker.try_lookup(e.fingerprint).has_value() && ok;
      }
      if (!ok) tally.fail("probe: try_lookup missed a warm fingerprint");
    }
  }

  // ---- service.admission and service.server: the same hit sequence
  // in-process and over HTTP.
  for (int round = 0; round < kHitProbeRounds; ++round) {
    for (const WarmEntry& e : warm_) {
      const FabricCase& c = *e.base->fabric;
      obs::TraceSpan span("bench.admission_serve");
      const service::ServiceReply reply =
          svc.admission.serve(c.topology, c.fabric, e.request.options);
      if (reply.outcome != service::ServiceOutcome::kServed || !reply.hit) {
        tally.fail("probe: admission did not serve a warm hit");
      }
    }
  }
  {
    HttpClient client(svc.server.port());
    HttpResponse response;
    for (int round = 0; round < kHitProbeRounds; ++round) {
      for (const WarmEntry& e : warm_) {
        ++tally.attempted;
        bool ok = false;
        {
          obs::TraceSpan span("bench.http_get");
          ok = client.get(e.target, response);
        }
        if (!ok || response.status != 200 || !response.hit ||
            response.body != *e.base->schedbin) {
          tally.fail("probe: HTTP warm request not served as a hit");
        }
      }
    }
  }

  session.stop();
  const std::vector<obs::TraceEvent> events = session.events();

  for (const FabricCase* c : catalog_.matrix()) {
    const auto one = [&](const char* span_name) {
      for (const auto& e : events) {
        if (named(e, span_name) && e.args == c->name) return seconds_of(e);
      }
      return 0.0;
    };
    for (const auto& e : events) {
      if (named(e, "bench.synthesize_schedule") && e.args == c->name) {
        stage_times(events, e, c->name, m);
      }
    }
    m["container.encode_ms." + c->name] =
        one("bench.generated_schedule_to_bytes") * 1e3;
    m["container.decode_ms." + c->name] = one("bench.schedbin_decode") * 1e3;
    m["schedule.validate_ms." + c->name] = one("bench.validate") * 1e3;
  }
  m["cache.insert_ms"] = spans(events, "bench.cache_insert").median() * 1e3;
  m["cache.lookup_artifact_us"] =
      spans(events, "bench.lookup_artifact").median() * 1e6;
  m["broker.try_lookup_hot_us"] =
      spans(events, "bench.try_lookup.hot").median() * 1e6;
  m["broker.try_lookup_fallthrough_us"] =
      spans(events, "bench.try_lookup.fallthrough").median() * 1e6;
  const double serve_us = spans(events, "bench.admission_serve").median() * 1e6;
  m["admission.serve_hit_us"] = serve_us;
  m["server.http_overhead_us"] =
      spans(events, "bench.http_get").median() * 1e6 - serve_us;
  return m;
}

}  // namespace a2a::e2e
