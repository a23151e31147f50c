// Umbrella header: the full public API of the VOR scheduling library.
//
// Quick tour (see examples/quickstart.cpp for runnable code):
//
//   auto scenario = vor::workload::MakeScenario({});      // Table-4 world
//   vor::core::VorScheduler scheduler(scenario.topology, scenario.catalog);
//   auto result = scheduler.Solve(scenario.requests);
//   std::cout << result->final_cost.value();
#pragma once

#include "baseline/exhaustive.hpp"       // IWYU pragma: export
#include "baseline/network_only.hpp"     // IWYU pragma: export
#include "baseline/online_lru.hpp"       // IWYU pragma: export
#include "core/bounds.hpp"               // IWYU pragma: export
#include "core/cost_model.hpp"           // IWYU pragma: export
#include "core/diff.hpp"                 // IWYU pragma: export
#include "core/heat.hpp"                 // IWYU pragma: export
#include "core/ivsp.hpp"                 // IWYU pragma: export
#include "core/overflow.hpp"             // IWYU pragma: export
#include "core/rejective_greedy.hpp"     // IWYU pragma: export
#include "core/report.hpp"               // IWYU pragma: export
#include "core/schedule.hpp"             // IWYU pragma: export
#include "core/scheduler.hpp"            // IWYU pragma: export
#include "core/shootout.hpp"             // IWYU pragma: export
#include "core/sorp.hpp"                 // IWYU pragma: export
#include "media/catalog.hpp"             // IWYU pragma: export
#include "media/video.hpp"               // IWYU pragma: export
#include "net/generators.hpp"            // IWYU pragma: export
#include "net/routing.hpp"               // IWYU pragma: export
#include "net/topology.hpp"              // IWYU pragma: export
#include "io/serialize.hpp"              // IWYU pragma: export
#include "sim/playback_sim.hpp"          // IWYU pragma: export
#include "sim/validator.hpp"             // IWYU pragma: export
#include "storage/load.hpp"              // IWYU pragma: export
#include "util/interval.hpp"             // IWYU pragma: export
#include "util/piecewise.hpp"            // IWYU pragma: export
#include "util/result.hpp"               // IWYU pragma: export
#include "util/rng.hpp"                  // IWYU pragma: export
#include "util/stats.hpp"                // IWYU pragma: export
#include "util/table.hpp"                // IWYU pragma: export
#include "util/thread_pool.hpp"          // IWYU pragma: export
#include "util/units.hpp"                // IWYU pragma: export
#include "util/zipf.hpp"                 // IWYU pragma: export
#include "workload/generator.hpp"        // IWYU pragma: export
#include "workload/request.hpp"          // IWYU pragma: export
#include "workload/scenario.hpp"         // IWYU pragma: export
