/// \file generators.hpp
/// \brief Graph families used as radio-network workloads.
///
/// The paper's algorithms are universal (topology-independent), so the
/// experiment sweeps draw from structurally diverse families: worst-case
/// chains (paths achieve the 2n-3 bound), dense graphs, trees, grids/tori
/// (the §5 one-bit claims), unit-disk graphs (the classical radio-network
/// geometry and the paper's IoT motivation), series-parallel graphs, and
/// clustered topologies.  Every generator returns a connected graph; the
/// random families restore connectivity explicitly and deterministically.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace radiocast::par {
class ThreadPool;
}  // namespace radiocast::par

namespace radiocast::graph {

/// Path 0-1-…-(n-1).  n >= 1.
Graph path(std::uint32_t n);

/// Cycle on n >= 3 vertices.
Graph cycle(std::uint32_t n);

/// Star with centre 0 and n-1 leaves.  n >= 2.
Graph star(std::uint32_t n);

/// Complete graph K_n.  n >= 1.
Graph complete(std::uint32_t n);

/// Complete bipartite K_{a,b}; side A = 0..a-1, side B = a..a+b-1.
Graph complete_bipartite(std::uint32_t a, std::uint32_t b);

/// rows x cols grid; vertex (r, c) has id r*cols + c.  rows, cols >= 1.
Graph grid(std::uint32_t rows, std::uint32_t cols);

/// rows x cols torus (grid with wraparound).  rows, cols >= 3.
Graph torus(std::uint32_t rows, std::uint32_t cols);

/// d-dimensional hypercube, n = 2^d.  d >= 1.
Graph hypercube(std::uint32_t dim);

/// Wheel: hub 0 joined to a cycle 1..n-1.  n >= 4.
Graph wheel(std::uint32_t n);

/// The Petersen graph (10 vertices, 3-regular, girth 5).
Graph petersen();

/// Complete `arity`-ary tree of the given depth (root = 0, depth 0 = root
/// only).
Graph balanced_tree(std::uint32_t arity, std::uint32_t depth);

/// Uniform random recursive tree: vertex i >= 1 attaches to a uniform j < i.
Graph random_tree(std::uint32_t n, Rng& rng);

/// Caterpillar: a spine path with `legs` pendant leaves per spine vertex.
Graph caterpillar(std::uint32_t spine, std::uint32_t legs);

/// Lollipop: K_k joined to a path of `tail` extra vertices.
Graph lollipop(std::uint32_t clique, std::uint32_t tail);

/// Erdős–Rényi G(n, p) conditioned on connectivity: after sampling, the
/// components are chained together with one deterministic-random edge each, so
/// the result is connected for every seed.  Costs n(n-1)/2 draws, one per
/// pair in (u, v) order, each an integer compare against a hoisted
/// threshold.  When `pool` is non-null and the graph has at least about a
/// million pairs, the rows split into chunks of equal pair count drawn in
/// parallel, each from a copy of `rng` jumped to its first pair (see
/// `Rng::jump`), so the graph and the state `rng` is left in are exactly
/// those of the serial loop at any pool width.  Safe to call from inside a
/// task on `pool` (see parallel_for.hpp).
Graph gnp_connected(std::uint32_t n, double p, Rng& rng,
                    par::ThreadPool* pool = nullptr);

/// Sparse Erdős–Rényi G(n, p) with p = avg_degree / (n - 1), sampled by
/// geometric skips (Batagelj–Brandes) so construction costs O(m + components)
/// instead of n(n-1)/2 Bernoulli trials, then stitched to connectivity the
/// same way as `gnp_connected`.  Hits stream into the builder as presorted
/// runs, so peak memory stays O(m) — this is the million-node workload
/// generator.  Distinct RNG consumption from `gnp_connected`, so the two
/// families produce different graphs for the same seed.
Graph sparse_gnp_connected(std::uint32_t n, double avg_degree, Rng& rng);

/// Random geometric (unit-disk) graph: n points in the unit square, edges
/// within `radius`.  Components are chained via their closest point pairs, so
/// the result stays geometrically plausible and connected: while more than
/// one remains, the cross-component pair least in (squared distance, u, v)
/// order is joined.  Costs O(n + m) expected time: pairs are tested only
/// between neighbouring cells of a grid at least `radius` wide, rows stream
/// into the builder as presorted runs, and the stitch is one Kruskal pass
/// over cross-component pairs within a reach that doubles until one
/// component is left.  The output and the RNG draws (two per point) are
/// exactly those of the all-pairs definition.
Graph random_geometric(std::uint32_t n, double radius, Rng& rng);

/// Random 2-terminal series-parallel graph with approximately `edges` edges
/// (duplicates arising from parallel composition are merged, so the final
/// count can be lower).  Always connected.
Graph series_parallel(std::uint32_t edges, Rng& rng);

/// "IoT campus": `clusters` dense G(size, p_intra) clusters whose gateways
/// (vertex 0 of each cluster) form a random tree backbone.
Graph clustered(std::uint32_t clusters, std::uint32_t size, double p_intra,
                Rng& rng);

/// The 13-node graph reconstructed from the paper's Figure 1 (see DESIGN.md
/// and EXPERIMENTS.md for the reconstruction argument).  Vertex 0 is the
/// source; ids are chosen so the ascending-id DOM policy reproduces the
/// figure's dominating-set choices exactly.
Graph figure1();

/// Materializes a graph from a colon-separated generator descriptor — the
/// portable half of a `runtime::GraphRef`, letting a process (the sweep
/// daemon in particular) rebuild a deterministic workload graph it has
/// never been sent explicitly.  Grammar: `family[:arg...]` with
///   path:N | cycle:N | star:N | complete:N | bipartite:A:B | grid:R:C |
///   torus:R:C | hypercube:D | wheel:N | petersen | tree:N:SEED |
///   balanced-tree:ARITY:DEPTH | caterpillar:SPINE:LEGS | lollipop:K:TAIL |
///   gnp:N:P:SEED | sgnp:N:DEG:SEED | disk:N:RADIUS:SEED | sp:EDGES:SEED |
///   clustered:CLUSTERS:SIZE:P:SEED | figure1
/// Randomized families are deterministic in their SEED argument.  Integer
/// arguments must be whole decimal numbers below 2^32 and real arguments
/// whole finite numbers; anything else (junk, signs, trailing characters,
/// overflow) and any other malformed descriptor violates a precondition
/// (ContractViolation).  A non-null `pool` is passed to the generators that
/// can use one (`gnp`); the graph is the same with or without it.
Graph from_descriptor(const std::string& descriptor,
                      par::ThreadPool* pool = nullptr);

}  // namespace radiocast::graph
