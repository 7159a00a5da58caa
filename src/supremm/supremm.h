// Umbrella header for the SUPReMM/C++ library.
//
// A reproduction of "Enabling Comprehensive Data-Driven System Management
// for Large Computational Facilities" (SC13). Typical flow:
//
//   using namespace supremm;
//   auto spec = facility::scaled(facility::ranger(), 0.05);
//   auto catalogue = facility::standard_catalogue();
//   auto pop = facility::UserPopulation::generate(spec, catalogue, seed);
//   auto reqs = facility::generate_workload(spec, catalogue, pop, wl_cfg);
//   auto wins = facility::standard_maintenance(start, span, seed);
//   auto execs = facility::Scheduler::run(spec, reqs, wins);
//   facility::FacilityEngine engine(spec, execs, wins, start, start + span, seed);
//   auto outputs = taccstats::run_all_agents(engine, {});             // collect
//   auto acct = accounting::from_executions(spec, pop, engine.executions());
//   auto lrt = lariat::from_executions(spec, catalogue, pop, engine.executions());
//   etl::IngestPipeline pipeline(ingest_cfg);                         // ingest
//   auto result = pipeline.run(files, acct, lrt, catalogue,
//                              etl::project_science_map(pop));
//   xdmod::ProfileAnalyzer profiles(result.jobs);                     // analyze
//   auto table1 = xdmod::persistence_analysis(result.series);
#pragma once

#include "accounting/accounting.h"      // IWYU pragma: export
#include "archive/archive.h"            // IWYU pragma: export
#include "archive/tables.h"             // IWYU pragma: export
#include "common/ascii_table.h"         // IWYU pragma: export
#include "common/csv.h"                 // IWYU pragma: export
#include "common/error.h"               // IWYU pragma: export
#include "common/rng.h"                 // IWYU pragma: export
#include "common/time.h"                // IWYU pragma: export
#include "etl/ingest.h"                 // IWYU pragma: export
#include "etl/job_summary.h"            // IWYU pragma: export
#include "etl/quality.h"                // IWYU pragma: export
#include "etl/system_series.h"         // IWYU pragma: export
#include "etl/trace.h"          // IWYU pragma: export
#include "facility/apps.h"              // IWYU pragma: export
#include "faultsim/faultsim.h"          // IWYU pragma: export
#include "facility/engine.h"            // IWYU pragma: export
#include "facility/hardware.h"          // IWYU pragma: export
#include "facility/scheduler.h"         // IWYU pragma: export
#include "facility/users.h"             // IWYU pragma: export
#include "facility/workload.h"          // IWYU pragma: export
#include "federation/catalog.h"         // IWYU pragma: export
#include "federation/executor.h"        // IWYU pragma: export
#include "federation/federation.h"      // IWYU pragma: export
#include "federation/transport.h"       // IWYU pragma: export
#include "federation/wire.h"            // IWYU pragma: export
#include "lariat/lariat.h"              // IWYU pragma: export
#include "loglib/loglib.h"              // IWYU pragma: export
#include "pipeline/pipeline.h"          // IWYU pragma: export
#include "procsim/counters.h"           // IWYU pragma: export
#include "service/request.h"            // IWYU pragma: export
#include "service/service.h"            // IWYU pragma: export
#include "procsim/perf.h"               // IWYU pragma: export
#include "stats/correlation.h"          // IWYU pragma: export
#include "stats/descriptive.h"          // IWYU pragma: export
#include "stats/kde.h"                  // IWYU pragma: export
#include "stats/regression.h"           // IWYU pragma: export
#include "stats/structure.h"            // IWYU pragma: export
#include "taccstats/agent.h"            // IWYU pragma: export
#include "taccstats/reader.h"           // IWYU pragma: export
#include "taccstats/writer.h"           // IWYU pragma: export
#include "warehouse/partial.h"          // IWYU pragma: export
#include "warehouse/query.h"            // IWYU pragma: export
#include "warehouse/rollup.h"           // IWYU pragma: export
#include "warehouse/table.h"            // IWYU pragma: export
#include "xdmod/advisor.h"              // IWYU pragma: export
#include "xdmod/distributions.h"        // IWYU pragma: export
#include "xdmod/efficiency.h"         // IWYU pragma: export
#include "xdmod/export.h"             // IWYU pragma: export
#include "xdmod/faults.h"           // IWYU pragma: export
#include "xdmod/persistence.h"          // IWYU pragma: export
#include "xdmod/profiles.h"           // IWYU pragma: export
#include "xdmod/realm.h"             // IWYU pragma: export
#include "xdmod/reports.h"              // IWYU pragma: export
#include "xdmod/selector.h"             // IWYU pragma: export
#include "xdmod/timeseries.h"           // IWYU pragma: export
