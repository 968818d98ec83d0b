#include "generator.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"
#include "graphdb/io.h"
#include "service/protocol.h"

namespace servicebench {
namespace {

using ecrpq::Rng;
using ecrpq::VertexId;

// ---------------------------------------------------------------------------
// Regex grammar: a concatenation of units. Stars only ever range over the
// rare symbols b and c, and at most two units may read the dense symbol a,
// so every language has short-lived product searches on the skewed graphs.
struct Unit {
  const char* text;
  int weight;
  bool reads_a;
  bool nullable;
};

constexpr std::array<Unit, 10> kUnits = {{
    {"a", 3, true, false},
    {"b", 2, false, false},
    {"c", 2, false, false},
    {"(a|b)", 1, true, false},
    {"(b|c)", 1, false, false},
    {"(a|c)", 1, true, false},
    {"b*", 1, false, true},
    {"c*", 1, false, true},
    {"b+", 1, false, false},
    {"a?", 1, true, true},
}};

constexpr int kUnitWeightTotal = [] {
  int total = 0;
  for (const Unit& u : kUnits) total += u.weight;
  return total;
}();

std::string RandomRegex(Rng* rng, int min_units, int max_units) {
  const int length = static_cast<int>(rng->Range(min_units, max_units));
  std::string out;
  int a_units = 0;
  bool nullable = true;
  for (int i = 0; i < length;) {
    int pick = static_cast<int>(rng->Below(kUnitWeightTotal));
    const Unit* unit = kUnits.data();
    while (pick >= unit->weight) pick -= (unit++)->weight;
    if (unit->reads_a && a_units == 2) continue;
    a_units += unit->reads_a ? 1 : 0;
    nullable = nullable && unit->nullable;
    out += unit->text;
    ++i;
  }
  // Keep every language away from the empty word: a reach atom whose
  // language holds only short or empty words degenerates to x = y.
  if (nullable) out += (rng->Below(2) == 0) ? "b" : "c";
  return out;
}

// A star-free language whose words all have `length` letters, one unit
// per letter. Star paths drawn this way always agree on length, so the
// eqlen / eq coupling leaves most stars satisfiable at some source.
std::string FixedLengthRegex(Rng* rng, int length) {
  static constexpr std::array<const char*, 6> kLetters = {
      "a", "(a|b)", "a", "(a|c)", "b", "(b|c)"};
  std::string out;
  for (int i = 0; i < length; ++i) out += kLetters[rng->Below(kLetters.size())];
  return out;
}

// The x5/x6-style warm language: an (a|b)* sweep that saturates the graph
// during the cold BFS, then a run of the rarest symbol. The warm graph has
// a single 4-edge c-chain, so a c^k suffix ends at exactly 5 - k vertices
// under every seed: the memoized reach sets and the join stay small and
// fixed, and the per-source memo lookups dominate a warm query. The seed
// picks one of several equivalent sweeps.
std::string RareSuffixRegex(Rng* rng, int c_run, bool optional_b) {
  static constexpr std::array<const char*, 4> kSweeps = {
      "(a|b)*", "a(a|b)*", "b?(a|b)*", "(b|a)*"};
  return kSweeps[rng->Below(kSweeps.size())] +
         std::string(optional_b ? "b?" : "") + std::string(c_run, 'c');
}

std::string Lang(const std::string& regex, const std::string& path) {
  return "lang(/" + regex + "/, " + path + ")";
}

std::string Reach(const std::string& from, const std::string& regex,
                  const std::string& to) {
  return from + " -[/" + regex + "/]-> " + to;
}

std::string Join(const std::vector<std::string>& atoms) {
  std::string out;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += atoms[i];
  }
  return out;
}

// Cold families: what each builds is documented in README.md. The schedule
// is a fixed round-robin so every run sends the same family mix; the
// Boolean / max_answers split alternates per family occurrence.
constexpr uint64_t kColdMaxAnswers = 16;

// Edges per chain of a rare symbol (MakeGraph).
constexpr uint32_t kRareChainEdges = 4;

// Per round of 20: 12 CRPQs on the big graph, three generic-routed stars,
// two NP-regime cliques, one eqlen pair and two treewidth-3 CRPQ cliques.
// The two slowest families fill the top 15% of latencies, so the tail
// sample (ten beyond it) stays inside them for 4 to 10 rounds a run.
constexpr std::array<const char*, 20> kColdSchedule = {
    "crpq_chain", "crpq_star",  "star3",      "k4_eqlen",  "crpq_chain",
    "k4_crpq",    "crpq_star",  "crpq_chain", "star3",     "crpq_star",
    "eqlen2",     "crpq_chain", "crpq_star",  "k4_eqlen",  "crpq_chain",
    "k4_crpq",    "crpq_star",  "star3",      "crpq_chain", "crpq_star",
};

constexpr std::array<const char*, 2> kParallelSchedule = {"star3", "star4"};
// parallel_boolean spreads its stars over this many 64-vertex graphs, one
// after another, so no single graph's wiring sets the run's cost.
constexpr size_t kParallelGraphs = 4;

}  // namespace

// ---------------------------------------------------------------------------

ecrpq::GraphDb MakeGraph(const GraphSpec& spec, uint64_t seed) {
  Rng rng(ecrpq::HashCombine(seed, ecrpq::HashBytes(spec.name)));
  ecrpq::GraphDb db(ecrpq::Alphabet::OfChars("abc"));
  db.AddVertices(spec.vertices);
  const auto n = static_cast<uint32_t>(spec.vertices);
  auto shuffled = [&] {
    std::vector<VertexId> order(n);
    for (VertexId v = 0; v < n; ++v) order[v] = v;
    for (uint32_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.Below(i)]);
    }
    return order;
  };
  const std::array<double, 3> degrees = {spec.degree_a, spec.degree_b,
                                         spec.degree_c};
  for (ecrpq::Symbol s = 0; s < 3; ++s) {
    if (degrees[s] < 1) {
      // A rare symbol: disjoint chains of kRareChainEdges edges through a
      // seeded vertex order. Every seed gets the same number of runs of
      // each length, so what a b- or c-suffix can match does not hinge on
      // whether the seed happened to draw a cycle or a long path.
      const std::vector<VertexId> order = shuffled();
      const auto chains = std::min<uint32_t>(
          static_cast<uint32_t>(std::lround(degrees[s] * n / kRareChainEdges)),
          n / (kRareChainEdges + 1));
      for (uint32_t c = 0; c < chains; ++c) {
        const uint32_t first = c * (kRareChainEdges + 1);
        for (uint32_t i = 0; i < kRareChainEdges; ++i) {
          db.AddEdge(order[first + i], s, order[first + i + 1]);
        }
      }
      continue;
    }
    // A dense symbol: each whole unit of degree is one random permutation
    // of the vertices, the fractional part that share of the vertices as
    // tails of one more. Every seed gets the same out-degree sequence.
    for (double left = degrees[s]; left > 0; left -= 1) {
      const auto count =
          static_cast<uint32_t>(std::lround(std::min(left, 1.0) * n));
      const std::vector<VertexId> tails = shuffled();
      const std::vector<VertexId> heads = shuffled();
      for (uint32_t i = 0; i < count; ++i) db.AddEdge(tails[i], s, heads[i]);
    }
  }
  db.Finalize();
  return db;
}

std::string QueryLine(const std::string& id, const QuerySpec& query) {
  std::string line = "{\"id\":\"" + id + "\",\"op\":\"query\",\"graph\":\"" +
                     query.graph + "\",\"query\":\"" +
                     ecrpq::JsonEscape(query.text) + "\"";
  if (query.max_answers > 0) {
    line += ",\"max_answers\":" + std::to_string(query.max_answers);
  }
  return line + "}";
}

std::string MutationLine(const std::string& id, const std::string& graph,
                         const Mutation& mutation) {
  std::string line = "{\"id\":\"" + id + "\",\"graph\":\"" + graph + "\"";
  if (mutation.add_vertex) return line + ",\"op\":\"add_vertex\",\"count\":1}";
  return line + ",\"op\":\"add_edge\",\"from\":" +
         std::to_string(mutation.from) + ",\"symbol\":\"" + mutation.symbol +
         "\",\"to\":" + std::to_string(mutation.to) + "}";
}

std::string CreateGraphLine(const std::string& id, const std::string& name,
                            const ecrpq::GraphDb& db) {
  return "{\"id\":\"" + id + "\",\"op\":\"create_graph\",\"graph\":\"" + name +
         "\",\"text\":\"" + ecrpq::JsonEscape(ecrpq::GraphDbToString(db)) +
         "\"}";
}

// ---------------------------------------------------------------------------

// read_write's readers pause 10 ms between requests, a client's own work
// between calls. Back-to-back readers almost never leave the graph
// unclaimed, so the writer would starve until the window ends and how many
// writes slip in would decide the run; with shorter pauses a write still
// waits out the rare moment all three readers are idle, which makes the
// write latency swing from run to run.
constexpr WorkloadDef kWorkloads[] = {
    {"cold_mixed", Workload::kColdMixed, 1, 1, 0},
    {"warm_repeat", Workload::kWarmRepeat, 1, 4, 0},
    {"read_write", Workload::kReadWrite, 1, 3, 10},
    {"parallel_boolean", Workload::kParallelBoolean, 4, 1, 0},
};

const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

std::vector<GraphSpec> GraphsOf(Workload kind) {
  switch (kind) {
    case Workload::kColdMixed:
      // "big" carries the CRPQ chains and stars; "small" the families
      // whose routed engines enumerate |V|^2 or more source tuples.
      return {{"big", 1024, 2.0, 0.5, 0.25}, {"small", 64, 1.5, 0.5, 0.25}};
    case Workload::kParallelBoolean: {
      std::vector<GraphSpec> specs;
      for (size_t g = 0; g < kParallelGraphs; ++g) {
        specs.push_back({"small" + std::to_string(g), 64, 1.5, 0.5, 0.25});
      }
      return specs;
    }
    case Workload::kWarmRepeat:
    case Workload::kReadWrite:
      break;
  }
  // The x6 service-load graph shape at the size where the warm floor was
  // measured: dense a-edges, half a b-edge per vertex; plus one c-chain for
  // the warm languages' suffixes.
  return {{"warm", 256, 2.5, 0.5, 4.0 / 256}};
}

DistinctQueryStream::DistinctQueryStream(Workload kind, uint64_t seed)
    : kind_(kind), rng_(ecrpq::HashCombine(seed, static_cast<int>(kind))) {
  ECRPQ_CHECK(kind == Workload::kColdMixed ||
              kind == Workload::kParallelBoolean);
}

size_t DistinctQueryStream::period() const {
  return kind_ == Workload::kColdMixed
             ? kColdSchedule.size()
             : kParallelSchedule.size() * kParallelGraphs;
}

QuerySpec DistinctQueryStream::Next() {
  const size_t slot = position_++;
  const size_t period = this->period();
  const bool cold = kind_ == Workload::kColdMixed;
  const char* family =
      cold ? kColdSchedule[slot % kColdSchedule.size()]
           : kParallelSchedule[slot % kParallelSchedule.size()];
  // Boolean and max_answers alternate along the schedule and swap every
  // round, so two rounds send every slot in both forms.
  const bool boolean = (slot + slot / period) % 2 == 0;
  for (;;) {
    QuerySpec query = Make(family, boolean);
    if (!cold) {
      query.graph += std::to_string((slot / kParallelSchedule.size()) %
                                    kParallelGraphs);
    }
    if (seen_.insert(query.text).second) return query;
  }
}

QuerySpec DistinctQueryStream::Make(std::string_view family, bool boolean) {
  Rng* rng = &rng_;
  QuerySpec q;
  q.family = std::string(family);
  q.graph = "small";
  std::string head;
  std::vector<std::string> atoms;
  if (family == "crpq_chain") {
    q.graph = "big";
    const int length = static_cast<int>(rng->Range(2, 3));
    for (int i = 0; i < length; ++i) {
      atoms.push_back(Reach("x" + std::to_string(i), RandomRegex(rng, 2, 3),
                            "x" + std::to_string(i + 1)));
    }
    head = "x0, x" + std::to_string(length);
  } else if (family == "crpq_star") {
    q.graph = "big";
    for (int i = 1; i <= 3; ++i) {
      atoms.push_back(
          Reach("x", RandomRegex(rng, 2, 3), "y" + std::to_string(i)));
    }
    head = "x";
  } else if (family == "eqlen2") {
    // Example 2.1 with languages: cc_vertex 2, so `auto` routes it to the
    // Lemma 4.3 reduction (|V|^2 source tuples).
    atoms = {"x -[p1]-> y", "w -[p2]-> y", "eqlen(p1, p2)",
             Lang(RandomRegex(rng, 2, 3), "p1"),
             Lang(RandomRegex(rng, 2, 3), "p2")};
    head = "x, w";
  } else if (family == "k4_crpq") {
    // A 4-clique of reach atoms: a CRPQ of treewidth 3.
    const char* pairs[6][2] = {{"a1", "a2"}, {"a1", "a3"}, {"a1", "a4"},
                               {"a2", "a3"}, {"a2", "a4"}, {"a3", "a4"}};
    for (const auto& p : pairs) {
      atoms.push_back(Reach(p[0], RandomRegex(rng, 1, 2), p[1]));
    }
    head = "a1";
  } else if (family == "k4_eqlen") {
    // The same clique with two edges coupled by eqlen: bounded cc,
    // treewidth 3, not a CRPQ, so the NP-regime reduction runs.
    atoms = {"a1 -[p1]-> a2", "a2 -[p2]-> a3", "eqlen(p1, p2)",
             Lang(RandomRegex(rng, 1, 2), "p1"),
             Lang(RandomRegex(rng, 1, 2), "p2")};
    const char* pairs[4][2] = {
        {"a1", "a3"}, {"a1", "a4"}, {"a2", "a4"}, {"a3", "a4"}};
    for (const auto& p : pairs) {
      atoms.push_back(Reach(p[0], RandomRegex(rng, 1, 2), p[1]));
    }
    head = "a1";
  } else {
    // star3 / star4: k paths out of x under one k-ary eqlen or eq, so
    // cc_vertex = k >= 3 and `auto` routes to the generic engine.
    const int k = family == "star4" ? 4 : 3;
    const bool eq = rng->Below(4) == 0;
    std::string relation = eq ? "eq(" : "eqlen(";
    for (int i = 1; i <= k; ++i) {
      const std::string p = "p" + std::to_string(i);
      atoms.push_back("x -[" + p + "]-> y" + std::to_string(i));
      relation += (i > 1 ? ", " : "") + p;
    }
    atoms.push_back(relation + ")");
    // With eq all paths spell one word, so one language constrains all.
    const int languages = eq ? 1 : k;
    // Four paths of three letters would multiply out to thousands of
    // product states per branch; star4 keeps to two letters.
    const int length = k == 4 ? 2 : static_cast<int>(rng->Range(2, 3));
    for (int i = 1; i <= languages; ++i) {
      atoms.push_back(
          Lang(FixedLengthRegex(rng, length), "p" + std::to_string(i)));
    }
    head = "x";
  }
  if (boolean) {
    head.clear();
  } else {
    q.max_answers =
        kind_ == Workload::kParallelBoolean ? 1 : kColdMaxAnswers;
  }
  q.text = "q(" + head + ") := " + Join(atoms);
  return q;
}

// ---------------------------------------------------------------------------

std::vector<WarmShape> WarmShapes(uint64_t seed) {
  constexpr int kShapes = 32;
  constexpr int kVariants = 4;
  // Variable-name sets for the alpha-renamed variants.
  const char* names[kVariants][3] = {
      {"x", "y", "z"}, {"u", "v", "w"}, {"s", "m", "t"}, {"a0", "a1", "a2"}};
  Rng rng(ecrpq::HashCombine(seed, 0x3a11));
  std::vector<WarmShape> shapes;
  std::unordered_set<std::string> seen;
  while (shapes.size() < kShapes) {
    const size_t index = shapes.size();
    // Kinds cycle: one atom with a head, one Boolean atom, a two-atom
    // chain, a two-atom star. Each Zipf rank gets the same kind and suffix
    // shape under every seed, so seeds change texts and wiring, not the
    // cost profile.
    const int kind = static_cast<int>(index % 4);
    const int cls = static_cast<int>(index / 4);
    const std::string r1 = RareSuffixRegex(&rng, 1 + cls % 4, cls >= 4);
    const std::string r2 = RareSuffixRegex(&rng, 1 + (cls + 1) % 4, cls < 4);
    if (!seen.insert(r1 + "/" + r2 + "/" + std::to_string(kind)).second) {
      continue;
    }
    WarmShape shape;
    shape.name = "shape" + std::to_string(index);
    for (int v = 0; v < kVariants; ++v) {
      const std::string x = names[v][0], y = names[v][1], z = names[v][2];
      QuerySpec q;
      q.family = shape.name;
      q.graph = "warm";
      q.max_answers = kColdMaxAnswers;
      std::vector<std::string> atoms;
      std::string head;
      switch (kind) {
        case 0:
          atoms = {Reach(x, r1, y)};
          head = x;
          break;
        case 1:
          atoms = {Reach(x, r1, y)};
          q.max_answers = 0;
          break;
        case 2:
          atoms = {Reach(x, r1, y), Reach(y, r2, z)};
          head = x + ", " + z;
          break;
        default:
          atoms = {Reach(x, r1, y), Reach(x, r2, z)};
          head = x;
          break;
      }
      // Odd variants list their atoms in reverse order.
      if (v % 2 == 1) std::reverse(atoms.begin(), atoms.end());
      q.text = "q(" + head + ") := " + Join(atoms);
      shape.variants.push_back(std::move(q));
    }
    shapes.push_back(std::move(shape));
  }
  return shapes;
}

WarmDraws::WarmDraws(uint64_t seed, int client, size_t num_shapes,
                     size_t num_variants)
    : rng_(ecrpq::HashCombine(ecrpq::HashCombine(seed, 0x21bf), client)),
      num_variants_(num_variants) {
  ECRPQ_CHECK(num_shapes > 0 && num_variants > 0);
  // Zipf, exponent 1: shape k is drawn with weight 1 / (k + 1).
  double total = 0;
  for (size_t k = 0; k < num_shapes; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::pair<size_t, size_t> WarmDraws::Next() {
  const double u = static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53;
  const size_t shape = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
  return {shape, static_cast<size_t>(rng_.Below(num_variants_))};
}

// ---------------------------------------------------------------------------

namespace {

uint64_t EdgeKey(VertexId from, VertexId to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

}  // namespace

WriterStream::WriterStream(uint64_t seed, const ecrpq::GraphDb& initial)
    : rng_(ecrpq::HashCombine(seed, 0x5717e)),
      num_vertices_(static_cast<uint32_t>(initial.NumVertices())) {
  for (VertexId v = 0; v < num_vertices_; ++v) {
    for (const ecrpq::LabeledEdge& e : initial.OutEdges(v)) {
      const std::string& name = initial.alphabet().Name(e.symbol);
      ECRPQ_CHECK(name.size() == 1 && name[0] >= 'a' && name[0] <= 'c');
      const int s = name[0] - 'a';
      edges_[s].emplace_back(v, e.to);
      edge_keys_[s].insert(EdgeKey(v, e.to));
    }
  }
}

Mutation WriterStream::Next() {
  Mutation m;
  if (rng_.Below(20) == 0) {
    m.add_vertex = true;
    ++num_vertices_;
    return m;
  }
  if (rng_.Below(2) == 0) {
    // Re-add an existing edge, drawn uniformly from the a/b edges.
    const uint64_t total = edges_[0].size() + edges_[1].size();
    const uint64_t pick = rng_.Below(total);
    const int s = pick < edges_[0].size() ? 0 : 1;
    const auto& e = edges_[s][s == 0 ? pick : pick - edges_[0].size()];
    m.symbol = static_cast<char>('a' + s);
    m.from = e.first;
    m.to = e.second;
    m.noop = true;
    return m;
  }
  const int s = rng_.Below(4) == 0 ? 1 : 0;
  m.symbol = static_cast<char>('a' + s);
  m.from = static_cast<VertexId>(rng_.Below(num_vertices_));
  m.to = static_cast<VertexId>(rng_.Below(num_vertices_));
  m.noop = !edge_keys_[s].insert(EdgeKey(m.from, m.to)).second;
  if (!m.noop) edges_[s].emplace_back(m.from, m.to);
  return m;
}

const std::vector<std::pair<VertexId, VertexId>>& WriterStream::edges(
    char symbol) const {
  ECRPQ_CHECK(symbol >= 'a' && symbol <= 'c');
  return edges_[symbol - 'a'];
}

// ---------------------------------------------------------------------------

std::string SerializeInputs(const WorkloadDef& workload, uint64_t seed,
                            size_t stream_length) {
  std::string out;
  const std::vector<GraphSpec> specs = GraphsOf(workload.kind);
  for (const GraphSpec& spec : specs) {
    out += CreateGraphLine("g", spec.name, MakeGraph(spec, seed)) + "\n";
  }
  if (!IsWarm(workload.kind)) {
    DistinctQueryStream stream(workload.kind, seed);
    for (size_t i = 0; i < stream_length; ++i) {
      out += QueryLine("q" + std::to_string(i), stream.Next()) + "\n";
    }
    return out;
  }
  const std::vector<WarmShape> shapes = WarmShapes(seed);
  for (int c = 0; c < workload.readers; ++c) {
    WarmDraws draws(seed, c, shapes.size(), shapes.front().variants.size());
    for (size_t i = 0; i < stream_length; ++i) {
      const auto [shape, variant] = draws.Next();
      out += QueryLine("q" + std::to_string(i),
                       shapes[shape].variants[variant]) +
             "\n";
    }
  }
  if (workload.kind == Workload::kReadWrite) {
    const GraphSpec& spec = specs.front();
    WriterStream writer(seed, MakeGraph(spec, seed));
    for (size_t i = 0; i < stream_length; ++i) {
      out += MutationLine("w" + std::to_string(i), spec.name, writer.Next()) +
             "\n";
    }
  }
  return out;
}

}  // namespace servicebench
