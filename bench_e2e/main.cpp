// bench_e2e — one benchmark of record for the schedule service.
//
//   bench_e2e --workload cold-synth|serve-mixed --seed N --seconds S
//             --trace 0|1 [--scratch-dir DIR]
//
// Every run builds the service in-process (ScheduleCache -> ThreadPool ->
// ScheduleBroker -> AdmissionQueue -> ScheduleServer on an ephemeral
// loopback port), synthesizes the references of the warm working set
// directly, then sets the service up five times (construction, insert of
// the 130-fingerprint warm set, one HTTP GET of each; setup_s is the
// median). A second, idle service takes the cold misses: a fixed plan over
// the fabric matrix (gk27_pmcf exact pMCF, torus444_extp MCF-extP,
// gk14_tsmcf exact tsMCF, gk27_unroll decomposed MCF + unroll, gk64_fptas
// pMCF via FPTAS), one connection, closed loop. The plan and S seconds of
// the workload's traffic alternate in three slices:
//
//   cold-synth   the hit traffic is three connections, closed loop, over
//                the warm set (skewed popularity, 1 in 16 requests on a
//                fresh connection): the solvers do the cold work, the
//                service and cache the hits, never at the same time.
//   serve-mixed  that read stream on two connections beside a write stream
//                on a third: fresh-fingerprint misses paced at 5/s, every
//                8th sent on all three connections at once, and a disk byte
//                budget that keeps the cache GC running.
//
// Every served schedule is checked (see Checker); failures count in the
// result's `failed`. With --trace 1 the run then opens a TraceSession on a
// fresh service and times each layer's public calls (probes.cpp).
//
// Output: a record line with the environment stamp, the hit throughput
// (not gated: on a shared 4-vCPU host it spreads 16-30% from run to run)
// and raw-sample quantiles, then, as the last line, one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1), each as {"value": .., "unit": ..}.
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "obs/metrics.hpp"

#ifndef A2A_BENCH_BUILD_TYPE
#define A2A_BENCH_BUILD_TYPE "unknown"
#endif

using namespace a2a;
using namespace a2a::e2e;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const char* const kMatrix[] = {"gk27_pmcf", "torus444_extp", "gk14_tsmcf",
                               "gk27_unroll", "gk64_fptas"};

/// The per-layer metrics, in BENCHMARK.json's order. Per-fabric names get
/// a ".<fabric>" suffix for every fabric in `fabrics`.
struct LayerSpec {
  const char* name;
  const char* unit;
  std::vector<std::string> fabrics;
};

std::vector<LayerSpec> layer_specs() {
  const std::vector<std::string> all(std::begin(kMatrix), std::end(kMatrix));
  const std::vector<std::string> none;
  return {
      {"server.http_overhead_us", "us", none},
      {"server.bytes_per_hit", "bytes", none},
      {"server.connect_us", "us", none},
      {"server.hit_p99_us", "us", none},
      {"admission.serve_hit_us", "us", none},
      {"admission.pending_max", "count", none},
      {"admission.rejected", "count", none},
      {"admission.shed", "count", none},
      {"broker.try_lookup_hot_us", "us", none},
      {"broker.try_lookup_fallthrough_us", "us", none},
      {"broker.hot_hit_ratio", "ratio", none},
      {"broker.syntheses_per_miss", "ratio", none},
      {"broker.coalesced_waiters", "count", none},
      {"cache.lookup_artifact_us", "us", none},
      {"cache.insert_ms", "ms", none},
      {"cache.disk_writes", "count", none},
      {"cache.disk_dedups", "count", none},
      {"cache.disk_evictions", "count", none},
      {"cache.memory_bytes", "bytes", none},
      {"pipeline.synthesize_s", "s", all},
      {"stage.solve_s", "s", all},
      {"stage.extract_s", "s", all},
      {"stage.compile_s", "s", all},
      {"stage.chunk_s", "s", all},
      {"stage.other_s", "s", all},
      {"stage.solve_share", "ratio", all},
      {"mcf.master_s", "s", {"torus444_extp", "gk27_unroll"}},
      {"mcf.child_s", "s", {"torus444_extp", "gk27_unroll"}},
      {"lp.iterations", "count", {"gk27_pmcf", "gk14_tsmcf", "gk27_unroll"}},
      {"lp.refactorizations", "count",
       {"gk27_pmcf", "gk14_tsmcf", "gk27_unroll"}},
      {"lp.solve_s", "s", {"gk27_pmcf", "gk14_tsmcf", "gk27_unroll"}},
      {"container.encode_ms", "ms", all},
      {"container.encoded_bytes", "bytes", all},
      {"container.decode_ms", "ms", all},
      {"schedule.validate_ms", "ms", all},
      {"schedule.chunks", "count", all},
      {"schedule.routes", "count", all},
      {"runtime.algbw_GBps", "GB/s", all},
      {"runtime.concurrent_flow", "ratio", all},
      {"obs.trace_overhead", "ratio", none},
  };
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "bench_e2e: " << why
            << "\nusage: bench_e2e --workload cold-synth|serve-mixed --seed N "
               "--seconds S --trace 0|1 [--scratch-dir DIR]\n";
  std::exit(2);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned i = 0; i < 3; ++i) {
      unsigned r[4] = {};
      __get_cpuid(0x80000002u + i, &r[0], &r[1], &r[2], &r[3]);
      std::memcpy(brand + 16 * i, r, sizeof r);
    }
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string trace_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") trace_flag = value;
      else if (flag == "--scratch-dir") options.scratch_dir = value;
      else usage("unknown flag " + flag);
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload != "cold-synth" && options.workload != "serve-mixed") {
    usage("unknown workload '" + options.workload + "'");
  }
  if (trace_flag != "0" && trace_flag != "1") usage("--trace takes 0 or 1");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  options.trace = trace_flag == "1";
  if (options.scratch_dir.empty()) options.scratch_dir = ".bench_build";
  options.scratch_dir = (std::filesystem::path(options.scratch_dir) /
                         ("bench_e2e-run-" + std::to_string(::getpid())))
                            .string();

  try {
    std::filesystem::create_directories(options.scratch_dir);
    const Catalog catalog;
    std::map<std::string, double> metrics;
    std::map<std::string, double> layers;
    WorkloadResult result;
    {
      Bench bench(catalog, options);
      result = bench.run();
      layers = result.counters;
      if (options.trace) {
        for (const auto& [k, v] : bench.probe_layers(result.total)) {
          layers[k] = v;
        }
      }
      Checker& checker = bench.checker();
      double log_sum = 0.0;
      for (const char* f : kMatrix) {
        metrics[std::string("synth_s.") + f] = result.cold_s[f].median();
        log_sum += std::log(std::max(checker.algbw(f), 1e-300));
      }
      metrics["algbw_GBps"] = std::exp(log_sum / std::size(kMatrix));
    }
    std::filesystem::remove_all(options.scratch_dir);

    const Samples& hits = result.serve.hit_s;
    metrics["hit_p50_us"] = hits.median() * 1e6;
    metrics["miss_p50_ms"] = result.total.miss_s.median() * 1e3;
    metrics["setup_s"] = result.setup_s.median();
    metrics["peak_rss_mb"] = peak_rss_mb();

    const MetricSpec e2e[] = {
        {"synth_s.gk27_pmcf", "s"},   {"synth_s.torus444_extp", "s"},
        {"synth_s.gk14_tsmcf", "s"},  {"synth_s.gk27_unroll", "s"},
        {"synth_s.gk64_fptas", "s"},  {"algbw_GBps", "GB/s"},
        {"hit_p50_us", "us"},         {"miss_p50_ms", "ms"},
        {"setup_s", "s"},             {"peak_rss_mb", "MB"}};

    // Every end-to-end metric must have been measured: a zero means a phase
    // produced no sample, which is itself a failure of the run.
    bool complete = true;
    for (const MetricSpec& s : e2e) {
      if (!(metrics[s.name] > 0.0)) {
        std::cerr << "bench_e2e: no measurement for " << s.name << "\n";
        complete = false;
      }
    }
    for (const std::string& e : result.total.errors) {
      std::cerr << "bench_e2e: check failed: " << e << "\n";
    }

    // ---- the record: environment stamp and raw-sample quantiles.
    std::ostringstream record;
    record << "{\"record\": \"bench_e2e\", \"workload\": "
           << quoted(options.workload) << ", \"seed\": " << options.seed
           << ", \"seconds\": " << number(options.seconds)
           << ", \"trace\": " << (options.trace ? 1 : 0)
           << ", \"env\": {\"nproc\": " << std::thread::hardware_concurrency()
           << ", \"cpu\": " << quoted(cpu_model())
           << ", \"compiler\": " << quoted(compiler())
           << ", \"build_type\": " << quoted(A2A_BENCH_BUILD_TYPE)
           << ", \"a2a_obs\": " << (obs::compiled_in() ? 1 : 0)
           << "}, \"hit_rps\": "
           << number(result.serve_seconds > 0.0
                         ? static_cast<double>(hits.count()) /
                               result.serve_seconds
                         : 0.0)
           << ", \"samples\": {\"hit_us\": " << hits.json(1e6)
           << ", \"miss_ms\": " << result.total.miss_s.json(1e3)
           << ", \"connect_us\": " << result.serve.connect_s.json(1e6)
           << ", \"setup_s\": " << result.setup_s.json(1.0);
    for (const char* f : kMatrix) {
      record << ", \"synth_s." << f << "\": " << result.cold_s[f].json(1.0);
    }
    record << "}}";
    std::cout << record.str() << "\n";

    // ---- the result line.
    std::ostringstream out;
    out << "{\"correct\": "
        << (complete && result.total.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << result.total.attempted
        << ", \"failed\": " << result.total.failed << ", \"metrics\": {";
    const char* sep = "";
    const auto emit = [&](const std::string& name, const char* unit,
                          double value) {
      out << sep << quoted(name) << ": {\"value\": " << number(value)
          << ", \"unit\": " << quoted(unit) << "}";
      sep = ", ";
    };
    if (options.trace) {
      for (const LayerSpec& s : layer_specs()) {
        if (s.fabrics.empty()) {
          emit(s.name, s.unit, layers[s.name]);
        } else {
          for (const std::string& f : s.fabrics) {
            emit(std::string(s.name) + "." + f, s.unit,
                 layers[std::string(s.name) + "." + f]);
          }
        }
      }
    } else {
      for (const MetricSpec& s : e2e) emit(s.name, s.unit, metrics[s.name]);
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: error: " << e.what() << "\n";
    std::error_code ec;
    std::filesystem::remove_all(options.scratch_dir, ec);
    return 1;
  }
}
