// Seeded inputs of the query-service benchmark: graphs, query families,
// request streams and the open-loop writer's mutations. Every input is a
// pure function of (workload, seed); the service under test only ever sees
// the request lines built from them.
#ifndef SERVICEBENCH_GENERATOR_H_
#define SERVICEBENCH_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graphdb/graph_db.h"

namespace servicebench {

// Symbol-skewed random graph over {a, b, c} (MakeGraph). A symbol of
// degree 1 or more is dense: random permutations' worth of edges, so every
// seed has the same out-degree sequence. A symbol of degree below 1 is rare:
// disjoint 4-edge chains, so starred languages over it stay short-lived
// and reach sets small, while the a-edges give the searches real fan-out.
struct GraphSpec {
  std::string name;  // Name the graph is registered under in the service.
  int vertices = 0;
  double degree_a = 0;
  double degree_b = 0;
  double degree_c = 0;
};

ecrpq::GraphDb MakeGraph(const GraphSpec& spec, uint64_t seed);

struct QuerySpec {
  std::string family;  // Query family (cold/parallel) or shape name (warm).
  std::string graph;
  std::string text;
  uint64_t max_answers = 0;  // 0: all answers, or a Boolean head.
};

struct Mutation {
  bool add_vertex = false;  // Else add_edge(from, symbol, to).
  ecrpq::VertexId from = 0;
  ecrpq::VertexId to = 0;
  char symbol = 'a';
  bool noop = false;  // Re-adds an edge the graph already has.
};

// Wire request lines (service/protocol.h).
std::string QueryLine(const std::string& id, const QuerySpec& query);
std::string MutationLine(const std::string& id, const std::string& graph,
                         const Mutation& mutation);
std::string CreateGraphLine(const std::string& id, const std::string& name,
                            const ecrpq::GraphDb& db);

enum class Workload { kColdMixed, kWarmRepeat, kReadWrite, kParallelBoolean };

// One workload of the benchmark (README.md says why each exists).
struct WorkloadDef {
  const char* name;
  Workload kind;
  int pool_threads;  // ServiceConfig::pool_threads.
  int readers;       // Closed-loop query clients.
  double think_ms;   // Pause between a reader's response and next request.
};

// nullptr for an unknown name.
const WorkloadDef* FindWorkload(std::string_view name);

// warm_repeat and read_write share graph, shapes and priming.
inline bool IsWarm(Workload kind) {
  return kind == Workload::kWarmRepeat || kind == Workload::kReadWrite;
}

// The workload's graphs in load order; read_write's writer mutates the
// first one.
std::vector<GraphSpec> GraphsOf(Workload kind);

// Distinct queries drawn round-robin from a fixed family schedule, each
// with fresh languages from a seeded regex grammar: all four planner routes
// for cold_mixed, generic-routed stars (Boolean or max_answers 1) for
// parallel_boolean. The stream is unbounded; Next() never repeats a text.
class DistinctQueryStream {
 public:
  DistinctQueryStream(Workload kind, uint64_t seed);
  QuerySpec Next();
  // Queries per round of the family schedule; a closed loop that stops on
  // a round boundary has sent every family its scheduled share.
  size_t period() const;
  size_t position() const { return position_; }

 private:
  QuerySpec Make(std::string_view family, bool boolean);

  Workload kind_;
  ecrpq::Rng rng_;
  size_t position_ = 0;
  std::unordered_set<std::string> seen_;
};

// One selective CRPQ shape of the warm workloads and its alpha-renamed /
// atom-permuted texts; every variant has the same answers.
struct WarmShape {
  std::string name;
  std::vector<QuerySpec> variants;
};

std::vector<WarmShape> WarmShapes(uint64_t seed);

// Zipf-skewed draws of (shape, variant), one independent stream per client.
class WarmDraws {
 public:
  WarmDraws(uint64_t seed, int client, size_t num_shapes,
            size_t num_variants);
  std::pair<size_t, size_t> Next();

 private:
  ecrpq::Rng rng_;
  std::vector<double> cdf_;
  size_t num_variants_;
};

// The read_write writer's mutations against a graph it tracks itself:
// about half re-add an edge the graph already has (service-side no-ops),
// the rest add new edges, and one in twenty adds a vertex.
class WriterStream {
 public:
  WriterStream(uint64_t seed, const ecrpq::GraphDb& initial);
  Mutation Next();

  // Edge set and vertex count after every mutation returned so far.
  const std::vector<std::pair<ecrpq::VertexId, ecrpq::VertexId>>& edges(
      char symbol) const;
  uint32_t num_vertices() const { return num_vertices_; }

 private:
  ecrpq::Rng rng_;
  uint32_t num_vertices_ = 0;
  // Per symbol a..c: the edge list (for uniform re-add draws) and a set
  // of packed (from, to) keys (for no-op detection).
  std::vector<std::pair<ecrpq::VertexId, ecrpq::VertexId>> edges_[3];
  std::unordered_set<uint64_t> edge_keys_[3];
};

// Byte-exact serialization of a workload's inputs for `seed`: every graph
// in wire form plus the first `stream_length` request lines of every
// stream. Equal bytes <=> equal inputs; the run records its hash.
std::string SerializeInputs(const WorkloadDef& workload, uint64_t seed,
                            size_t stream_length);

}  // namespace servicebench

#endif  // SERVICEBENCH_GENERATOR_H_
