// Literal lifting on the text execute path (Engine::Execute).
//
// The differential half runs seeded random statements twice: through
// Session::Execute, which lifts the literals of DML into $n slots and
// binds them to one cached shape, and through Database::Prepare + Run of
// the same text, which parses the literals in place.  Rows, affected
// counts, result column names, messages and error statuses must agree on
// every statement, and the tables must agree at the end.  The rest pins
// the cache (one entry per shape), the index scan of `a.id = -5`, the
// statements that are never lifted, and the text that logs and audit
// records name.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "caldb.h"
#include "common/macros.h"
#include "obs/audit.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace caldb {
namespace {

const char* const kSchema[] = {
    "create table t (id int, x int, f float, s text)",
    "create index on t (id)",
    "create table t2 (c1 int, s text)",
};

// Database::Prepare + Run: the literals stay in place.
Result<QueryResult> RunUnlifted(Database& db, const std::string& text) {
  CALDB_ASSIGN_OR_RETURN(CompiledStatementPtr compiled,
                         Database::Prepare(text));
  CALDB_ASSIGN_OR_RETURN(EvalScope bound, BindParams(*compiled, nullptr));
  return db.Run(*compiled, bound);
}

// PROFILE reports its own wall time; everything before it must agree.
std::string WithoutTiming(std::string message) {
  const size_t at = message.find(" time=");
  if (at != std::string::npos) message.erase(at);
  return message;
}

void ExpectSameOutcome(const Result<QueryResult>& lifted,
                       const Result<QueryResult>& plain,
                       const std::string& text) {
  ASSERT_EQ(lifted.ok(), plain.ok())
      << text << "\n  lifted: "
      << (lifted.ok() ? "ok" : lifted.status().ToString())
      << "\n  as written: " << (plain.ok() ? "ok" : plain.status().ToString());
  if (!plain.ok()) {
    EXPECT_EQ(lifted.status().code(), plain.status().code()) << text;
    EXPECT_EQ(lifted.status().message(), plain.status().message()) << text;
    return;
  }
  QueryResult got = *lifted;
  QueryResult want = *plain;
  got.message = WithoutTiming(got.message);
  want.message = WithoutTiming(want.message);
  EXPECT_EQ(got.columns, want.columns) << text;
  EXPECT_EQ(got.ToString(), want.ToString()) << text;
  EXPECT_EQ(got.affected, want.affected) << text;
  EXPECT_EQ(got.message, want.message) << text;
}

// Seeded draws of statement text with literals of every kind.
class StatementDraw {
 public:
  explicit StatementDraw(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    switch (Pick(18)) {
      case 0:
        return Verb("retrieve") + " (t.id, t.x) from t in t where t.id = " +
               Key();
      case 1:
        return Verb("retrieve") + " (t.s) from t in t where t.x > " + Int() +
               " and t.f <= " + Float();
      case 2:
        return "retrieve (t.id) from t in t where t.s = " + Str();
      case 3:  // target-list literals name result columns: never lifted
        return "retrieve (t.x + " + Int() + ", " + Str() + ", t.f * " +
               Float() + ") from t in t where t.id < " + Key();
      case 4:
        return "retrieve (t.x, t2.s) from t in t, t2 in t2 where t.id = "
               "t2.c1 and t2.c1 > " +
               Key();
      case 5:  // any literal type against an int column
        return "retrieve (t.id) from t in t where t.x = " + Literal();
      case 6:
        return Verb("append") + " t (id = " + Key() + ", x = " + Int() +
               ", f = " + Float() + ", s = " + Str() + ")";
      case 7:
        return "append t2 (c1 = " + Key() + ", s = " + Str() + ")";
      case 8:
        return Verb("replace") + " t in t (x = t.x + " + Int() +
               ", s = " + Str() + ") where t.id = " + Key();
      case 9:
        return "replace t in t (f = " + Float() + ") where t.s = " + Str() +
               " or t.x < " + Int();
      case 10:
        return Pick(2) == 0
                   ? Verb("delete") + " t in t where t.id = " + Key()
                   : "delete t2 in t2 where t2.c1 > " + Key();
      case 11:  // explicit placeholders: nothing is lifted, binding fails
        return "retrieve (t.x) from t in t where t.id = $1 and t.x > " +
               Int();
      case 12:  // past int64: a ParseError either way
        return "retrieve (t.x) from t in t where t.id = " +
               std::string(Pick(2) == 0 ? "99999999999999999999"
                                        : "-9223372036854775809");
      case 13:  // slots typed by a constant across an operator
        switch (Pick(4)) {
          case 0:
            return "retrieve (t.id) from t in t where t.x = " + Literal() +
                   " * -2";
          case 1:
            return "retrieve (t.id) from t in t where t.id = -(" + Key() +
                   ")";
          case 2:
            return "retrieve (t.id) from t in t where " + Literal() +
                   " = true";
          default:
            return "replace t in t (x = " + Literal() + " + -1) where t.id = " +
                   Key();
        }
      case 14:
        return std::string(Pick(2) == 0 ? "explain" : "profile") +
               " retrieve (t.x) from t in t where t.id = " + Key();
      case 15:  // malformed after a literal: the text's own error
        return "retrieve (t.x) from t in t where t.id = " + Key() + " " +
               Int();
      case 16:  // spacing variants of one shape
        return "retrieve   (t.x)\n from t in t\twhere  t.id=" + Key();
      default:
        return "delete t in t where t.x > " + Int() + " and t.s != " + Str();
    }
  }

 private:
  int Pick(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng_);
  }
  std::string Verb(const char* verb) {
    std::string out = verb;
    if (Pick(4) == 0) {
      for (char& c : out) c = static_cast<char>(c - 'a' + 'A');
    }
    return out;
  }
  // Row ids: a small range so reads hit, sometimes negative.
  std::string Key() {
    const int v = Pick(40);
    return Pick(8) == 0 ? "-" + std::to_string(v) : std::to_string(v);
  }
  std::string Int() {
    switch (Pick(4)) {
      case 0:
        return std::to_string(Pick(100));
      case 1:
        return "-" + std::to_string(Pick(100));
      case 2:
        return "9223372036854775807";
      default:
        return std::to_string(1000 + Pick(1000000));
    }
  }
  std::string Float() {
    const std::string v =
        std::to_string(Pick(100)) + "." + std::to_string(Pick(100));
    return Pick(3) == 0 ? "-" + v : v;
  }
  std::string Str() {
    static const char* const kStrings[] = {
        "'a'",         "\"b2\"",    "'costs $1'", "'x 42 y'", "\"it's\"",
        "'say \"hi\"'", "''",        "'  two  spaces '", "'$'", "'123'",
        "'-5'",        "\"t2.c1\""};
    return kStrings[Pick(static_cast<int>(std::size(kStrings)))];
  }
  std::string Literal() {
    switch (Pick(4)) {
      case 0:
        return Int();
      case 1:
        return Float();
      case 2:
        return Str();
      default:
        return Key();
    }
  }

  std::mt19937_64 rng_;
};

TEST(LiteralLifting, RandomStatementsMatchTheUnliftedPath) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  Database db;
  std::vector<std::string> setup(std::begin(kSchema), std::end(kSchema));
  for (int id = 0; id < 30; ++id) {
    setup.push_back("append t (id = " + std::to_string(id) + ", x = " +
                    std::to_string(id * 7 % 50 - 10) + ", f = " +
                    std::to_string(id) + ".5, s = '" +
                    std::to_string(id % 4) + "')");
  }
  setup.push_back("append t2 (c1 = 3, s = 'three')");
  // An event rule whose where clause carries literals: both sides fire it
  // on the appends below.
  setup.push_back(
      "define rule big on append to t where NEW.x > 500 and NEW.s != 'a' do "
      "append t2 (c1 = NEW.id, s = 'big')");
  for (const std::string& text : setup) {
    ExpectSameOutcome(session->Execute(text), RunUnlifted(db, text), text);
  }

  StatementDraw draw(/*seed=*/20261018);
  int lifted = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string text = draw.Next();
    if (!ShapeStatement(text, /*lift_literals=*/true).values.empty()) ++lifted;
    ExpectSameOutcome(session->Execute(text), RunUnlifted(db, text), text);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Most draws are lifted DML, and their shapes repeat.
  EXPECT_GT(lifted, 2000);
  EXPECT_GT(engine->StatementCacheStats().hits, 1500);
  for (const char* table : {"retrieve (t.id, t.x, t.f, t.s) from t in t",
                            "retrieve (t2.c1, t2.s) from t2 in t2"}) {
    ExpectSameOutcome(session->Execute(table), RunUnlifted(db, table), table);
  }
}

TEST(LiteralLifting, ShapeKeysAndBindLists) {
  StatementShape shape = ShapeStatement(
      "retrieve (a.balance) from a in accounts where a.id = 4711",
      /*lift_literals=*/true);
  EXPECT_EQ(shape.key,
            "retrieve (a.balance) from a in accounts where a.id = $1");
  ASSERT_EQ(shape.values.size(), 1u);
  EXPECT_EQ(shape.values[0].AsInt().value(), 4711);

  shape = ShapeStatement(
      "replace  a in t2 (s = 'x $1 \"y\"', f = 2.5)\n where a.c1 = -5 and "
      "a.n = 7",
      true);
  EXPECT_EQ(shape.key,
            "replace a in t2 (s = $1, f = $2) where a.c1 = -5 and a.n = $3");
  ASSERT_EQ(shape.values.size(), 3u);
  EXPECT_EQ(shape.values[0].AsText().value(), "x $1 \"y\"");
  EXPECT_EQ(shape.values[1].AsFloat().value(), 2.5);
  EXPECT_EQ(shape.values[2].AsInt().value(), 7);

  // Target-list literals stay; the where clause's are lifted.
  shape = ShapeStatement(
      "retrieve (t.x + 1, 'tag') from t in t where t.s = 'tag'", true);
  EXPECT_EQ(shape.key, "retrieve (t.x + 1, 'tag') from t in t where t.s = $1");

  // Never lifted: retrieve into, explain/profile, DDL, rules, explicit $n.
  for (const char* text :
       {"retrieve into c (t.x) from t in t where t.x = 1",
        "explain retrieve (t.x) from t in t where t.x = 1",
        "profile delete t in t where t.x = 1",
        "define rule r on append to t where NEW.x > 5 do delete t in t "
        "where t.x = 1",
        "create table t (x int)",
        "retrieve (t.x) from t in t where t.x = $1 and t.y = 2"}) {
    shape = ShapeStatement(text, true);
    EXPECT_TRUE(shape.values.empty()) << text;
    EXPECT_EQ(shape.key, NormalizeStatementText(text)) << text;
  }
  // Text that does not scan keys as itself.
  shape = ShapeStatement("retrieve (t.x) from t in t where t.x = 'open", true);
  EXPECT_TRUE(shape.values.empty());
  EXPECT_EQ(shape.key, "retrieve (t.x) from t in t where t.x = 'open");
}

TEST(LiteralLifting, DistinctPointReadsShareOneCacheEntry) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table acct (id int, bal int)").ok());
  ASSERT_TRUE(session->Execute("create index on acct (id)").ok());
  for (int id = 0; id < 100; ++id) {
    ASSERT_TRUE(session
                    ->Execute("append acct (id = " + std::to_string(id) +
                              ", bal = " + std::to_string(id * 10) + ")")
                    .ok());
  }
  const StatementCache::Stats before = engine->StatementCacheStats();
  for (int i = 0; i < 10000; ++i) {
    const int id = i % 100;
    auto rows = session->Execute(
        "retrieve (a.bal) from a in acct where a.id = " + std::to_string(i));
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->rows.size(), i < 100 ? 1u : 0u);
    if (i < 100) {
      EXPECT_EQ(rows->rows[0][0].AsInt().value(), id * 10);
    }
  }
  const StatementCache::Stats after = engine->StatementCacheStats();
  EXPECT_EQ(after.misses - before.misses, 1);
  EXPECT_EQ(after.hits - before.hits, 9999);
  EXPECT_EQ(after.evictions, before.evictions);
  int read_entries = 0;
  int append_entries = 0;
  for (const StatementCache::EntryInfo& entry :
       engine->StatementCacheEntries()) {
    if (entry.normalized_text.rfind("retrieve (a.bal)", 0) == 0) {
      ++read_entries;
      EXPECT_EQ(entry.normalized_text,
                "retrieve (a.bal) from a in acct where a.id = $1");
    }
    if (entry.normalized_text.rfind("append acct", 0) == 0) ++append_entries;
  }
  EXPECT_EQ(read_entries, 1);
  EXPECT_EQ(append_entries, 1);
}

TEST(LiteralLifting, NegativeKeyStillIndexScans) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (id int, x int)").ok());
  ASSERT_TRUE(session->Execute("create index on t (id)").ok());
  ASSERT_TRUE(session->Execute("append t (id = -5, x = 1)").ok());
  ASSERT_TRUE(session->Execute("append t (id = 5, x = 2)").ok());
  obs::Counter* index_scans = obs::Metrics().counter("caldb.db.index_scans");
  obs::Counter* full_scans = obs::Metrics().counter("caldb.db.full_scans");
  const int64_t index_before = index_scans->value();
  const int64_t full_before = full_scans->value();
  auto rows = session->Execute("retrieve (t.x) from t in t where t.id = -5");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsInt().value(), 1);
  EXPECT_EQ(index_scans->value() - index_before, 1);
  EXPECT_EQ(full_scans->value(), full_before);
  // EXPLAIN is never lifted and still shows the index scan.
  auto plan =
      session->Execute("explain retrieve (t.x) from t in t where t.id = 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->message.find("index scan on (id) range [5, 5]"),
            std::string::npos)
      << plan->message;
  auto profile =
      session->Execute("profile retrieve (t.x) from t in t where t.id = -5");
  ASSERT_TRUE(profile.ok());
  EXPECT_NE(profile->message.find("index_scans=1"), std::string::npos)
      << profile->message;
}

TEST(LiteralLifting, LiteralsPastInt64StayParseErrors) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (id int)").ok());
  for (const char* text :
       {"retrieve (t.id) from t in t where t.id = 99999999999999999999",
        "append t (id = 9223372036854775808)",
        "delete t in t where t.id = -9223372036854775809"}) {
    Result<QueryResult> r = session->Execute(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << text;
    EXPECT_NE(r.status().message().find("integer literal out of range"),
              std::string::npos)
        << r.status().ToString();
  }
  // The largest int64 lifts and comes back intact.
  ASSERT_TRUE(session->Execute("append t (id = 9223372036854775807)").ok());
  auto rows = session->Execute(
      "retrieve (t.id) from t in t where t.id = 9223372036854775807");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsInt().value(), INT64_MAX);
}

TEST(LiteralLifting, MalformedLiteralTextParsesOnce) {
  // The shape is parsed from the text's own tokens, so its error is the
  // text's: one cache miss and one parse per call, nothing cached.
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (id int, s text)").ok());
  obs::Counter* parses = obs::Metrics().counter("caldb.db.parses");
  for (const std::string text :
       {"retrieve (t.id) from t in t where t.id = 5 7",
        "append t (id = 1, s = 'a' 'b')",
        "delete t in t where t.id = 3 and"}) {
    const Status as_written = CompileStatement(text).status();
    ASSERT_EQ(as_written.code(), StatusCode::kParseError) << text;
    for (int call = 0; call < 2; ++call) {
      const StatementCache::Stats before = engine->StatementCacheStats();
      const int64_t parses_before = parses->value();
      Result<QueryResult> r = session->Execute(text);
      ASSERT_FALSE(r.ok()) << text;
      EXPECT_EQ(r.status().ToString(), as_written.ToString()) << text;
      const StatementCache::Stats after = engine->StatementCacheStats();
      EXPECT_EQ(after.misses - before.misses, 1) << text;
      EXPECT_EQ(after.hits, before.hits) << text;
      EXPECT_EQ(after.size, before.size) << text;
      EXPECT_EQ(parses->value() - parses_before, 1) << text;
    }
  }
}

TEST(LiteralLifting, RuleDefinitionsKeepTheirLiterals) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (x int)").ok());
  ASSERT_TRUE(session->Execute("create table hits (x int)").ok());
  const std::string rule =
      "define rule r on append to t where NEW.x > 10 do append hits (x = "
      "NEW.x)";
  ASSERT_TRUE(session->Execute(rule).ok());
  ASSERT_TRUE(session->Execute("append t (x = 5)").ok());
  ASSERT_TRUE(session->Execute("append t (x = 50)").ok());
  auto hits = session->Execute("retrieve (h.x) from h in hits");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->rows.size(), 1u);
  EXPECT_EQ(hits->rows[0][0].AsInt().value(), 50);
}

TEST(LiteralLifting, LogsAndAuditNameTheTextAsWritten) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (x int)").ok());
  ASSERT_TRUE(session->Execute("create table seen (x int)").ok());
  ASSERT_TRUE(session
                  ->Execute("define rule watch on append to t do append seen "
                            "(x = NEW.x)")
                  .ok());
  obs::Log().Clear();
  obs::Audit().Clear();
  const int64_t saved = Database::SlowStatementThresholdNs();
  Database::SetSlowStatementThresholdNs(1);  // everything is slow now
  const std::string append = "append t (x = 42)";
  const std::string read = "retrieve (t.x) from t in t where t.x = 42";
  ASSERT_TRUE(session->Execute(append).ok());
  ASSERT_TRUE(session->Execute(read).ok());
  Database::SetSlowStatementThresholdNs(saved);

  // Each statement's own slow-statement line carries the text as written
  // (the rule action's line names its command).
  std::vector<std::string> lines;
  for (const obs::LogRecord& r : obs::Log().Snapshot()) {
    if (r.event != "db.slow_statement") continue;
    EXPECT_EQ(r.session_id, session->id());
    EXPECT_TRUE(r.statement == append || r.statement == read) << r.statement;
    lines.push_back(obs::RenderLogLine(r));
    EXPECT_EQ(lines.back().find("$1"), std::string::npos) << lines.back();
  }
  for (const std::string& text : {append, read}) {
    const std::string field = "\"stmt\":\"" + text + "\"";
    EXPECT_TRUE(std::any_of(lines.begin(), lines.end(),
                            [&](const std::string& line) {
                              return line.find(field) != std::string::npos;
                            }))
        << field;
  }
  bool audited = false;
  for (const obs::AuditRecord& r : obs::Audit().Snapshot()) {
    if (r.rule != "watch") continue;
    audited = true;
    EXPECT_EQ(r.trigger, append);
  }
  EXPECT_TRUE(audited);
}

}  // namespace
}  // namespace caldb
