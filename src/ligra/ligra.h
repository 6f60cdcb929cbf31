// Umbrella header: the full Ligra public API.
//
//   #include "ligra/ligra.h"
//
// brings in the graph types, generators, I/O, the vertex_subset /
// edge_map / vertex_map core, and the parallel primitives they build on.
// The applications (BFS, PageRank, ...) live in "apps/…" and are included
// individually.
#pragma once

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/stats.h"
#include "ligra/bucket.h"
#include "ligra/edge_map.h"
#include "ligra/point_bfs.h"
#include "ligra/vertex_map.h"
#include "ligra/vertex_subset.h"
#include "parallel/atomics.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"
#include "parallel/sort.h"
