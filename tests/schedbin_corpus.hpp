// SchedBin golden corpus, shared by the golden-stability tests and the fuzz
// harness.
//
// The checked-in files under tests/corpus/schedbin/ pin the wire format.
// Every v2 frame is a pure function of fixed Rng seeds and the codecs — no
// LP/MCF pipeline involved — so corpus_v2_frames() must regenerate the v2
// files byte-identically on any compiler: a writer change that alters any
// emitted byte fails the golden test instead of silently orphaning every
// artifact in the fleet's caches. The v1 files come from the retired v1
// writer; they stay on disk as the read-compatibility fixture, and
// corpus_v1_seeds() names the generator schedule each one decodes to.
#pragma once

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "container/schedbin.hpp"
#include "graph/topologies.hpp"
#include "schedule/schedule.hpp"

#ifndef A2A_SOURCE_DIR
#define A2A_SOURCE_DIR "."
#endif

namespace a2a::corpus {

inline std::filesystem::path corpus_dir() {
  return std::filesystem::path(A2A_SOURCE_DIR) / "tests" / "corpus" /
         "schedbin";
}

/// Bytes of one checked-in corpus file; empty when it is missing.
inline std::string read_corpus_file(const std::string& name) {
  std::ifstream in(corpus_dir() / name, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A random (not necessarily valid) link schedule exercising negative ids,
/// large rationals, and repeated values.
inline LinkSchedule random_link_schedule(Rng& rng, int transfers) {
  LinkSchedule s;
  s.num_nodes = rng.next_int(1, 1000);
  s.num_steps = rng.next_int(1, 100);
  for (int i = 0; i < transfers; ++i) {
    Transfer t;
    t.chunk.src = rng.next_int(0, s.num_nodes);
    t.chunk.dst = rng.next_int(0, s.num_nodes);
    const std::int64_t den = rng.next_int(1, 360);
    const std::int64_t lo = rng.next_int(0, static_cast<int>(den));
    t.chunk.lo = Rational(lo, den);
    t.chunk.hi = Rational(lo + rng.next_int(1, 24), den * rng.next_int(1, 4));
    t.from = rng.next_int(0, s.num_nodes);
    t.to = rng.next_int(0, s.num_nodes);
    t.step = rng.next_int(1, s.num_steps + 1);
    s.transfers.push_back(t);
  }
  return s;
}

/// A random path schedule on `g` whose routes are real random walks, so the
/// node-sequence -> edge-id resolution on decode is exercised. Weights are
/// drawn from a small set so the dict codec sees realistic repetition.
inline PathSchedule random_path_schedule(const DiGraph& g, Rng& rng,
                                         int routes) {
  PathSchedule s;
  s.num_nodes = g.num_nodes();
  s.chunk_unit = Rational(1, rng.next_int(1, 48));
  for (int i = 0; i < routes; ++i) {
    RouteEntry e;
    NodeId u = rng.next_int(0, g.num_nodes());
    e.src = u;
    const int hops = rng.next_int(1, 5);
    for (int h = 0; h < hops; ++h) {
      const auto& out = g.out_edges(u);
      if (out.empty()) break;
      const EdgeId edge =
          out[static_cast<std::size_t>(rng.next_int(0, static_cast<int>(out.size())))];
      e.path.push_back(edge);
      u = g.edge(edge).to;
    }
    if (e.path.empty()) continue;
    e.dst = u;
    e.weight = 1.0 / rng.next_int(1, 8);
    e.num_chunks = rng.next_int(1, 64);
    e.layer = rng.next_int(0, 4);
    s.entries.push_back(std::move(e));
  }
  return s;
}

/// The schedules the corpus frames carry.
inline LinkSchedule corpus_link_schedule() {
  Rng rng(101);
  return random_link_schedule(rng, 300);
}
inline DiGraph corpus_path_graph() { return make_hypercube(4); }
inline PathSchedule corpus_path_schedule() {
  Rng rng(202);
  return random_path_schedule(corpus_path_graph(), rng, 200);
}

struct CorpusFrame {
  std::string name;   ///< file basename under tests/corpus/schedbin/.
  std::string bytes;  ///< the container.
};

/// The v2 seed frames: both kinds, every codec, single- and multi-chunk,
/// empty, and metadata-carrying.
inline std::vector<CorpusFrame> corpus_v2_frames() {
  std::vector<CorpusFrame> frames;
  const auto add = [&](std::string name, std::string bytes) {
    frames.push_back({std::move(name), std::move(bytes)});
  };
  {
    SchedBinOptions o;
    o.codec = SchedBinCodec::kDict;
    o.chunk_words = 256;
    o.metadata = {{"origin", "corpus"}, {"note", "seed frame"}};
    add("link_v2_dict.schedbin",
        link_schedule_to_schedbin(corpus_link_schedule(), o));
  }
  {
    Rng big_rng(103);
    const LinkSchedule big = random_link_schedule(big_rng, 2000);
    SchedBinOptions o;
    o.codec = SchedBinCodec::kDelta;
    o.chunk_words = 512;
    add("link_v2_delta_multichunk.schedbin", link_schedule_to_schedbin(big, o));
  }
  {
    LinkSchedule empty;
    empty.num_nodes = 8;
    empty.num_steps = 3;
    SchedBinOptions o;
    o.codec = SchedBinCodec::kRaw;
    add("link_v2_raw_empty.schedbin", link_schedule_to_schedbin(empty, o));
  }
  {
    SchedBinOptions o;
    o.codec = SchedBinCodec::kDict;
    o.chunk_words = 128;
    o.metadata = {{"origin", "corpus"}};
    add("path_v2_dict.schedbin",
        path_schedule_to_schedbin(corpus_path_graph(), corpus_path_schedule(),
                                  o));
  }
  return frames;
}

/// A checked-in v1 frame and the v1 writer settings it was made with.
struct V1Seed {
  std::string name;   ///< file basename under tests/corpus/schedbin/.
  SchedBinKind kind;  ///< decodes to corpus_{link,path}_schedule().
  SchedBinCodec codec;
  std::uint32_t chunk_words;
};

inline std::vector<V1Seed> corpus_v1_seeds() {
  return {
      {"link_v1_delta.schedbin", SchedBinKind::kLink, SchedBinCodec::kDelta,
       256},
      {"link_v1_rle.schedbin", SchedBinKind::kLink, SchedBinCodec::kRle, 256},
      {"path_v1_delta.schedbin", SchedBinKind::kPath, SchedBinCodec::kDelta,
       128},
  };
}

}  // namespace a2a::corpus
