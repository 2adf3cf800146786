// caldb.h — the stable public facade of caldb.
//
// Applications include this single header and program against:
//
//   caldb::Engine        the thread-safe run-time (engine/engine.h):
//                        owns the database, the CALENDARS catalog, the
//                        temporal-rule manager and the DBCRON daemon;
//                        executes statements concurrently on a thread
//                        pool under per-table locks.  Set
//                        EngineOptions::data_dir to make it durable —
//                        WAL + snapshot recovery, docs/DURABILITY.md.
//   caldb::Session       a per-client handle (engine/session.h): window,
//                        `today`, a private evaluator with a warm
//                        gen-cache, and the uniform Execute() entry point
//                        (database statements, calendar scripts, EXPLAIN/
//                        PROFILE, catalog and rule DDL, clock control).
//   caldb::PreparedStatement
//                        the prepared-execution handle (engine/session.h):
//                        Session::Prepare(text) compiles once through the
//                        engine-wide statement cache; handle.Execute({...})
//                        binds $1..$n placeholder values and runs parse-
//                        free (db/compiled_statement.h).  This is the
//                        one prepared path; it and Session::Execute(text)
//                        share one engine statement path (bind check,
//                        lock, WAL append).
//   caldb::QueryResult   columns + rows, or a DML/DDL summary message.
//   caldb::Status        error model (common/status.h): caldb never
//   caldb::Result<T>     throws across this facade; every fallible call
//                        returns Status or Result<T> (common/result.h).
//
// Typical use:
//
//   #include "caldb.h"
//
//   auto engine = caldb::Engine::Create().value();
//   auto session = engine->CreateSession();
//   session->Execute("create table alerts (day int, what text)");
//   session->Execute("define calendar Tuesdays as [2]/DAYS:during:WEEKS");
//   session->Execute("declare rule t on Tuesdays do "
//                    "append alerts (day = $1, what = 'tuesday')");
//   session->Execute("advance to 1993-02-01");
//   auto stmt = session->Prepare(
//       "retrieve (a.what) from a in alerts where a.day = $1").value();
//   auto rows = stmt.Execute({caldb::Value::Int(32)});
//
// The subsystem headers pulled in below remain public for library-level
// embedding (calendar algebra without a database, finance day counts,
// time-series patterns), but constructing Database / DbCron /
// TemporalRuleManager directly is deprecated for concurrent use — go
// through Engine, which serializes access correctly (see the threading
// contract in docs/API.md).

#ifndef CALDB_CALDB_H_
#define CALDB_CALDB_H_

// Error model and the CALDB_RETURN_IF_ERROR / CALDB_ASSIGN_OR_RETURN
// propagation macros, plus small string helpers.
#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"

// Time: civil dates, granularities, skip-zero points, the time system.
#include "time/civil.h"
#include "time/granularity.h"
#include "time/time_system.h"
#include "time/timepoint.h"

// Calendar values and the interval algebra of §3.
#include "core/calendar.h"
#include "core/generate.h"
#include "core/interval.h"

// The engine and sessions (the concurrent §4 architecture).
#include "engine/engine.h"
#include "engine/session.h"

// Library-level extras reachable through the facade: catalog persistence,
// market calendars / day counts (§5 workloads), time-series patterns.
#include "catalog/catalog_io.h"
#include "finance/day_count.h"
#include "finance/market_calendars.h"
#include "timeseries/pattern.h"
#include "timeseries/time_series.h"

// Observability: EXPLAIN/PROFILE reports come back through Execute();
// metric export and tracing for dashboards.
#include "obs/obs.h"

#endif  // CALDB_CALDB_H_
