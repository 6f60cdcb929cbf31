// Umbrella header for the concurrent query engine: graph registry,
// admission-controlled executor, result cache, stats, and the status
// table (the one error taxonomy). See
// docs/ENGINE.md for the architecture.
#pragma once

#include "engine/cancel.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "engine/registry.h"
#include "engine/result_cache.h"
#include "engine/stats.h"
#include "engine/status.h"
