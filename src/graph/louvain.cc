#include "graph/louvain.h"

#include "check/check.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace cad::graph {

namespace {

// Renumbers community ids densely; communities are ordered by their smallest
// member so the labeling is canonical and deterministic. `remap` is an
// old-id -> dense-id table; ids are always < community->size() here (they
// start as vertex ids and only ever shrink through aggregation).
int CanonicalizeWith(std::vector<int>* community, std::vector<int>* remap) {
  const int n = static_cast<int>(community->size());
  remap->assign(n, -1);
  int next = 0;
  for (int v = 0; v < n; ++v) {
    CAD_DCHECK((*community)[v] >= 0 && (*community)[v] < n,
               "community id out of dense range");
    int& slot = (*remap)[(*community)[v]];
    if (slot < 0) slot = next++;
    (*community)[v] = slot;
  }
  return next;
}

// Modularity over a pre-sorted edge list (u < v, lexicographic) so callers
// that hold the graph's edges can amortize the sort. The arithmetic — intra
// sum in sorted-edge order, k_c^2 in dense label order — is exactly the
// public Modularity's (cad_lint CL003: hash-order FP accumulation is
// forbidden on this path).
double ModularityOverEdges(const Graph& graph,
                           const std::vector<int>& community,
                           const std::vector<Edge>& sorted_edges,
                           std::vector<double>* community_degree) {
  CAD_CHECK(static_cast<int>(community.size()) == graph.n_vertices(),
            "community size mismatch");
  const double m = graph.TotalWeight();
  if (m <= 0.0) return 0.0;
  double intra = 0.0;
  for (const Edge& e : sorted_edges) {
    if (community[e.u] == community[e.v]) intra += std::abs(e.weight);
  }
  int max_label = -1;
  for (int c : community) max_label = std::max(max_label, c);
  community_degree->assign(static_cast<size_t>(max_label + 1), 0.0);
  for (int v = 0; v < graph.n_vertices(); ++v) {
    (*community_degree)[static_cast<size_t>(community[static_cast<size_t>(v)])] +=
        graph.WeightedDegree(v);
  }
  double degree_term = 0.0;
  for (double k : *community_degree) degree_term += k * k;
  return intra / m - degree_term / (4.0 * m * m);
}

// One Louvain level: local moving on `graph`, writing the found community per
// vertex into `community`. Returns true if any vertex moved. `self_weight`
// carries the intra-community mass folded into each aggregated vertex: it
// adds 2*s to the vertex's weighted degree and s to the total weight (the
// standard self-loop convention), but never to w(v -> c) since it moves with
// the vertex.
bool LocalMoving(const Graph& graph, const std::vector<double>& self_weight,
                 const LouvainOptions& options, std::vector<int>* community,
                 LouvainWorkspace* ws) {
  const int n = graph.n_vertices();
  double total_weight = graph.TotalWeight();  // m
  for (double s : self_weight) total_weight += s;
  if (total_weight <= 0.0) return false;
  const double two_m = 2.0 * total_weight;

  std::vector<double>& vertex_weight = ws->vertex_weight;  // k_i
  vertex_weight.resize(n);
  for (int v = 0; v < n; ++v) {
    vertex_weight[v] = graph.WeightedDegree(v) + 2.0 * self_weight[v];
  }

  // Sum of k_i over members of each community.
  std::vector<double>& community_total = ws->community_total;
  community_total.assign(n, 0.0);
  for (int v = 0; v < n; ++v) community_total[(*community)[v]] += vertex_weight[v];

  bool any_move = false;
  std::vector<double>& weight_to_community = ws->weight_to_community;
  weight_to_community.assign(n, 0.0);
  std::vector<int>& touched = ws->touched;

  for (int pass = 0; pass < options.max_passes_per_level; ++pass) {
    int moves = 0;
    for (int v = 0; v < n; ++v) {
      const int old_community = (*community)[v];

      // Accumulate |w|(v -> community) over v's neighbours.
      touched.clear();
      for (const Graph::Neighbor& nb : graph.neighbors(v)) {
        const int c = (*community)[nb.vertex];
        // cad-lint: allow(CL007) LouvainWorkspace buffer with clear()-and-reuse semantics, bounded by the community count
        if (weight_to_community[c] == 0.0) touched.push_back(c);
        weight_to_community[c] += std::abs(nb.weight);
      }

      community_total[old_community] -= vertex_weight[v];

      // Gain of joining community c (relative to staying isolated):
      //   dQ = w(v->c)/m - k_v * tot_c / (2 m^2); comparing across c we can
      // drop the common 1/m factor.
      int best_community = old_community;
      double best_gain = weight_to_community[old_community] -
                         vertex_weight[v] * community_total[old_community] / two_m;
      for (int c : touched) {
        const double gain =
            weight_to_community[c] - vertex_weight[v] * community_total[c] / two_m;
        if (gain > best_gain + 1e-12 ||
            (std::abs(gain - best_gain) <= 1e-12 && c < best_community)) {
          best_gain = gain;
          best_community = c;
        }
      }

      community_total[best_community] += vertex_weight[v];
      if (best_community != old_community) {
        (*community)[v] = best_community;
        ++moves;
        any_move = true;
      }

      for (int c : touched) weight_to_community[c] = 0.0;
      weight_to_community[old_community] = 0.0;
    }
    if (moves == 0) break;
  }
  return any_move;
}

// Builds the aggregated graph whose vertices are the communities of the
// level whose sorted edges are `level_edges`. Intra-community weight becomes
// self-loop mass which Graph cannot store; the caller re-derives it into the
// companion self_weight vector (see LouvainInto). Inter-community mass is
// accumulated per community pair in sorted-edge order: entries are tagged
// with their edge sequence number and sorted by (key, seq), so each pair's
// FP sum adds contributions in exactly the order the map-based
// implementation did, and edges are emitted in ascending key order exactly
// as the sorted map emit did.
void AggregateInto(const std::vector<Edge>& level_edges,
                   const std::vector<int>& community, int n_communities,
                   LouvainWorkspace* ws, Graph* out) {
  std::vector<LouvainWorkspace::AggEntry>& agg = ws->agg;
  agg.clear();
  int seq = 0;
  for (const Edge& e : level_edges) {
    const int cu = community[e.u];
    const int cv = community[e.v];
    if (cu == cv) continue;
    const int a = std::min(cu, cv), b = std::max(cu, cv);
    // cad-lint: allow(CL007) LouvainWorkspace buffer with clear()-and-reuse semantics, bounded by the level's edge count
    agg.push_back({static_cast<int64_t>(a) * n_communities + b, seq++,
                   std::abs(e.weight)});
  }
  std::sort(agg.begin(), agg.end(),
            [](const LouvainWorkspace::AggEntry& x,
               const LouvainWorkspace::AggEntry& y) {
              return x.key != y.key ? x.key < y.key : x.seq < y.seq;
            });

  out->Reset(n_communities);
  size_t i = 0;
  while (i < agg.size()) {
    const int64_t key = agg[i].key;
    double w = 0.0;
    for (; i < agg.size() && agg[i].key == key; ++i) w += agg[i].weight;
    out->AddEdge(static_cast<int>(key / n_communities),
                 static_cast<int>(key % n_communities), w);
  }
}

}  // namespace

double Modularity(const Graph& graph, const std::vector<int>& community) {
  std::vector<Edge> edges;
  graph.SortedEdgesInto(&edges);
  std::vector<double> community_degree;
  return ModularityOverEdges(graph, community, edges, &community_degree);
}

void LouvainInto(const Graph& graph, const LouvainOptions& options,
                 LouvainWorkspace* ws, Partition* out) CAD_REALTIME_AUDITED {
  const int n = graph.n_vertices();
  out->community.resize(n);
  std::iota(out->community.begin(), out->community.end(), 0);
  if (n == 0) {
    out->n_communities = 0;
    out->modularity = 0.0;
    return;
  }

  // The original graph never changes, so its sorted edges — consumed by the
  // per-level true-modularity gate — are materialized once.
  graph.SortedEdgesInto(&ws->mod_edges);

  // level_graph points at the graph of the current level; aggregation
  // ping-pongs between the two workspace graphs. mapping[v] tracks each
  // original vertex's current-level vertex.
  const Graph* level_graph = &graph;
  ws->mapping.resize(n);
  std::iota(ws->mapping.begin(), ws->mapping.end(), 0);
  // Self-loop weights accumulated by aggregation (not representable in
  // Graph); they only add to a vertex's weighted degree and to the total
  // weight, never to inter-community moves, so we thread them explicitly.
  // Aggregation swaps the two buffers, so both are sized to n up front:
  // otherwise a warm workspace reallocates whichever one the swap left here
  // (the fleet's pooled arenas hit this after a tenant's warm-up). assign,
  // not reserve: it reuses retained capacity, which is what CL007 permits.
  ws->self_weight.assign(n, 0.0);
  ws->next_self.assign(n, 0.0);

  double previous_modularity = ModularityOverEdges(
      graph, out->community, ws->mod_edges, &ws->community_degree);

  for (int level = 0; level < options.max_levels; ++level) {
    const int n_level = level_graph->n_vertices();
    ws->level_community.resize(n_level);
    std::iota(ws->level_community.begin(), ws->level_community.end(), 0);

    const bool moved = LocalMoving(*level_graph, ws->self_weight, options,
                                   &ws->level_community, ws);
    if (!moved) break;

    const int n_level_communities =
        CanonicalizeWith(&ws->level_community, &ws->remap);

    // Tentatively project onto original vertices; keep the level only if it
    // improves true modularity on the original graph.
    ws->candidate.resize(n);
    for (int v = 0; v < n; ++v) {
      ws->candidate[v] = ws->level_community[ws->mapping[v]];
    }
    const double modularity = ModularityOverEdges(
        graph, ws->candidate, ws->mod_edges, &ws->community_degree);
    if (modularity <= previous_modularity + options.min_modularity_gain) {
      break;  // out->community keeps the previous (better) level
    }
    out->community.assign(ws->candidate.begin(), ws->candidate.end());
    previous_modularity = modularity;

    // Aggregate for the next level.
    level_graph->SortedEdgesInto(&ws->level_edges);
    Graph* next =
        (level_graph == &ws->level_graph) ? &ws->next_graph : &ws->level_graph;
    AggregateInto(ws->level_edges, ws->level_community, n_level_communities,
                  ws, next);
    ws->next_self.assign(n_level_communities, 0.0);
    for (const Edge& e : ws->level_edges) {
      if (ws->level_community[e.u] == ws->level_community[e.v]) {
        ws->next_self[ws->level_community[e.u]] += std::abs(e.weight);
      }
    }
    for (int v = 0; v < n_level; ++v) {
      ws->next_self[ws->level_community[v]] += ws->self_weight[v];
    }
    std::swap(ws->self_weight, ws->next_self);
    level_graph = next;
    for (int v = 0; v < n; ++v) ws->mapping[v] = out->community[v];

    if (level_graph->n_vertices() <= 1) break;
  }

  out->n_communities = CanonicalizeWith(&out->community, &ws->remap);
  out->modularity = previous_modularity;  // relabeling cannot change it
}

Partition Louvain(const Graph& graph, const LouvainOptions& options) {
  Partition result;
  LouvainWorkspace workspace;
  LouvainInto(graph, options, &workspace, &result);
  return result;
}

Partition ConnectedComponents(const Graph& graph) {
  const int n = graph.n_vertices();
  Partition result;
  result.community.assign(n, -1);
  std::vector<int> stack;
  int next_component = 0;
  for (int start = 0; start < n; ++start) {
    if (result.community[start] != -1) continue;
    stack.push_back(start);
    result.community[start] = next_component;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (const Graph::Neighbor& nb : graph.neighbors(v)) {
        if (result.community[nb.vertex] == -1) {
          result.community[nb.vertex] = next_component;
          stack.push_back(nb.vertex);
        }
      }
    }
    ++next_component;
  }
  result.n_communities = next_component;
  return result;
}

}  // namespace cad::graph
