// Tests for the table store: values, schemas, tables, indexes, journal
// serialization and crash recovery.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>

#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "core/warehouse.hpp"
#include "db/database.hpp"
#include "db/encoding.hpp"
#include "db/journal.hpp"
#include "db/table.hpp"
#include "db/value.hpp"

namespace sphinx::db {
namespace {

/// Column position by name, resolved once per call like the code does.
std::size_t col(const Table& t, const std::string& name) {
  return t.schema().index_of(name);
}

/// One cell of a row that must exist.
const Value& cell(const Table& t, RowId id, const std::string& name) {
  const Row* row = t.find(id);
  EXPECT_NE(row, nullptr) << "row " << id << " missing";
  return row->cells.at(col(t, name));
}

Schema jobs_schema() {
  return Schema{{"name", ValueType::kText},
                {"state", ValueType::kText},
                {"site", ValueType::kInt},
                {"runtime", ValueType::kReal},
                {"done", ValueType::kBool}};
}

TEST(Value, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value(std::int64_t{5}).type(), ValueType::kInt);
  EXPECT_EQ(Value(2.5).type(), ValueType::kReal);
  EXPECT_EQ(Value("hi").type(), ValueType::kText);
  EXPECT_EQ(Value(true).type(), ValueType::kBool);

  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).as_real(), 2.5);
  EXPECT_DOUBLE_EQ(Value(3).as_real(), 3.0);  // int widens to real
  EXPECT_EQ(Value("x").as_text(), "x");
  EXPECT_TRUE(Value(true).as_bool());
}

TEST(Value, WrongAccessorThrows) {
  EXPECT_THROW((void)Value("text").as_int(), AssertionError);
  EXPECT_THROW((void)Value(1).as_text(), AssertionError);
  EXPECT_THROW((void)Value(1.0).as_bool(), AssertionError);
  EXPECT_THROW((void)Value("t").as_real(), AssertionError);
}

TEST(Value, EqualityIsTyped) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_FALSE(Value(1) == Value("1"));
  EXPECT_FALSE(Value(1) == Value(1.0));
  EXPECT_EQ(Value(), Value());
}

TEST(Schema, IndexOfAndHas) {
  const Schema s = jobs_schema();
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.index_of("state"), 1u);
  EXPECT_TRUE(s.has("runtime"));
  EXPECT_FALSE(s.has("nope"));
  EXPECT_THROW((void)s.index_of("nope"), AssertionError);
}

TEST(Schema, DuplicateColumnRejected) {
  EXPECT_THROW(Schema({{"a", ValueType::kInt}, {"a", ValueType::kInt}}),
               AssertionError);
}

TEST(Schema, AcceptsChecksArityAndTypes) {
  const Schema s = jobs_schema();
  EXPECT_TRUE(s.accepts({Value("j"), Value("ready"), Value(1), Value(2.0),
                         Value(false)}));
  EXPECT_TRUE(s.accepts({Value("j"), Value("ready"), Value(1), Value(2),
                         Value(false)}));  // int -> real ok
  EXPECT_TRUE(s.accepts({Value("j"), Value(), Value(), Value(), Value()}));
  EXPECT_FALSE(s.accepts({Value("j"), Value("ready")}));  // wrong arity
  EXPECT_FALSE(s.accepts({Value(1), Value("ready"), Value(1), Value(2.0),
                          Value(false)}));  // wrong type
}

TEST(Table, InsertFindUpdateErase) {
  Table t("jobs", jobs_schema());
  const RowId id =
      t.insert({Value("j1"), Value("ready"), Value(3), Value(1.5), Value(false)});
  EXPECT_NE(id, kInvalidRow);
  EXPECT_EQ(t.size(), 1u);

  ASSERT_NE(t.find(id), nullptr);
  EXPECT_EQ(cell(t, id, "state").as_text(), "ready");

  EXPECT_TRUE(t.update(id, col(t, "state"), Value("planned")));
  EXPECT_EQ(cell(t, id, "state").as_text(), "planned");

  EXPECT_TRUE(t.erase(id));
  EXPECT_EQ(t.find(id), nullptr);
  EXPECT_FALSE(t.erase(id));
  EXPECT_FALSE(t.update(id, col(t, "state"), Value("x")));
}

TEST(Table, SchemaEnforcedOnInsert) {
  Table t("jobs", jobs_schema());
  EXPECT_THROW(t.insert({Value(1)}), AssertionError);
}

TEST(Table, RowIdsAreMonotonic) {
  Table t("jobs", jobs_schema());
  RowId prev = 0;
  for (int i = 0; i < 10; ++i) {
    const RowId id = t.insert(
        {Value("j"), Value("s"), Value(i), Value(0.0), Value(false)});
    EXPECT_GT(id, prev);
    prev = id;
  }
}

TEST(Table, FindByScanAndIndexAgree) {
  Table scan("jobs", jobs_schema());
  Table indexed("jobs", jobs_schema());
  indexed.create_index("state");
  for (int i = 0; i < 30; ++i) {
    const std::string state = i % 3 == 0 ? "ready" : "running";
    scan.insert({Value("j"), Value(state), Value(i), Value(0.0), Value(false)});
    indexed.insert(
        {Value("j"), Value(state), Value(i), Value(0.0), Value(false)});
  }
  EXPECT_EQ(scan.find_by(col(scan, "state"), Value("ready")),
            indexed.find_by(col(indexed, "state"), Value("ready")));
  EXPECT_EQ(indexed.count_by(col(indexed, "state"), Value("ready")), 10u);

  // Keys whose equality is easy to get wrong: tiny and signed-zero reals,
  // NaN, and 1 vs "1" vs true vs 1.0 in an untyped column.  Each indexed
  // query must return exactly what the scan returns.
  const Schema mixed{{"r", ValueType::kReal}, {"any", ValueType::kNull}};
  Table plain("mixed", mixed);
  Table keyed("mixed", mixed);
  keyed.create_index("r");
  keyed.create_index("any");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> cells = {Value(1e-10), Value(-0.0), Value(2e-10),
                                    Value(nan),   Value(1),    Value("1"),
                                    Value(true),  Value(1.0),  Value()};
  for (const Value& v : cells) {
    const Value real = v.type() == ValueType::kReal ? v : Value(0.5);
    plain.insert({real, v});
    keyed.insert({real, v});
  }
  const std::vector<Value> probes = {Value(1e-10), Value(2e-10), Value(0.0),
                                     Value(-0.0),  Value(nan),   Value(1),
                                     Value("1"),   Value(true),  Value(1.0),
                                     Value(),      Value(0.5)};
  for (const char* name : {"r", "any"}) {
    const std::size_t column = col(plain, name);
    for (const Value& probe : probes) {
      SCOPED_TRACE(std::string(name) + " probe of type " +
                   to_string(probe.type()));
      const std::vector<RowId> expected = plain.find_by(column, probe);
      EXPECT_EQ(keyed.find_by(column, probe), expected);
      EXPECT_EQ(keyed.count_by(column, probe), expected.size());
      const Row* first = keyed.find_first(column, probe);
      EXPECT_EQ(first == nullptr ? kInvalidRow : first->id,
                expected.empty() ? kInvalidRow : expected.front());
    }
  }
  // The cases the %.9f-keyed index used to get wrong.
  EXPECT_TRUE(keyed.find_by(col(keyed, "r"), Value(2e-10)) ==
              std::vector<RowId>{3});
  EXPECT_TRUE(keyed.find_by(col(keyed, "r"), Value(0.0)) == std::vector<RowId>{2});
  // A NaN row stays reachable for updates and erases.
  EXPECT_TRUE(keyed.update(4, 0, Value(7.0)));
  EXPECT_TRUE(keyed.erase(4));
  keyed.check_invariants();
}

TEST(Table, IndexMaintainedAcrossUpdates) {
  Table t("jobs", jobs_schema());
  t.create_index("state");
  const RowId id =
      t.insert({Value("j"), Value("ready"), Value(1), Value(0.0), Value(false)});
  EXPECT_EQ(t.count_by(col(t, "state"), Value("ready")), 1u);
  t.update(id, col(t, "state"), Value("planned"));
  EXPECT_EQ(t.count_by(col(t, "state"), Value("ready")), 0u);
  EXPECT_EQ(t.count_by(col(t, "state"), Value("planned")), 1u);
  t.erase(id);
  EXPECT_EQ(t.count_by(col(t, "state"), Value("planned")), 0u);
}

TEST(Table, IndexCreatedAfterInsertsBackfills) {
  Table t("jobs", jobs_schema());
  for (int i = 0; i < 5; ++i) {
    t.insert({Value("j"), Value("ready"), Value(i), Value(0.0), Value(false)});
  }
  t.create_index("state");
  EXPECT_EQ(t.count_by(col(t, "state"), Value("ready")), 5u);
}

TEST(Table, SelectPredicate) {
  Table t("jobs", jobs_schema());
  for (int i = 0; i < 10; ++i) {
    t.insert({Value("j"), Value("s"), Value(i), Value(i * 1.0), Value(false)});
  }
  const auto big = t.select([&t](const Row& r) {
    return r.cells[t.schema().index_of("runtime")].as_real() >= 7.0;
  });
  EXPECT_EQ(big.size(), 3u);
}

TEST(Table, ForEachVisitsInInsertionOrder) {
  Table t("jobs", jobs_schema());
  for (int i = 0; i < 5; ++i) {
    t.insert({Value("j"), Value("s"), Value(i), Value(0.0), Value(false)});
  }
  std::int64_t expected = 0;
  t.for_each([&](const Row& r) {
    EXPECT_EQ(r.cells[2].as_int(), expected++);
  });
  EXPECT_EQ(expected, 5);
}

TEST(Database, CreateAndLookupTables) {
  Database d;
  d.create_table("jobs", jobs_schema());
  d.create_table("dags", Schema{{"name", ValueType::kText}});
  EXPECT_TRUE(d.has_table("jobs"));
  EXPECT_FALSE(d.has_table("nope"));
  EXPECT_EQ(d.table_count(), 2u);
  EXPECT_EQ(d.table_names(), (std::vector<std::string>{"jobs", "dags"}));
  EXPECT_THROW(d.create_table("jobs", jobs_schema()), AssertionError);
  EXPECT_THROW((void)d.table("nope"), AssertionError);
}

TEST(Database, JournalRecordsMutations) {
  Database d;
  Table& t = d.create_table("jobs", jobs_schema());
  const RowId id =
      t.insert({Value("j"), Value("ready"), Value(1), Value(0.0), Value(false)});
  t.update(id, col(t, "state"), Value("planned"));
  t.erase(id);
  // create + insert + update + erase
  EXPECT_EQ(d.journal().size(), 4u);
}

TEST(Database, RecoverRebuildsExactState) {
  Database original;
  Table& jobs = original.create_table("jobs", jobs_schema());
  std::vector<RowId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(jobs.insert({Value("job-" + std::to_string(i)),
                               Value("ready"), Value(i % 4), Value(60.0),
                               Value(false)}));
  }
  for (int i = 0; i < 20; i += 2) {
    jobs.update(ids[i], col(jobs, "state"), Value("completed"));
    jobs.update(ids[i], col(jobs, "done"), Value(true));
  }
  jobs.erase(ids[3]);
  jobs.erase(ids[5]);

  Database recovered;
  ASSERT_TRUE(recovered.recover(original.journal()).ok());
  const Table& r = recovered.table("jobs");
  EXPECT_EQ(r.size(), 18u);
  EXPECT_EQ(cell(r, ids[0], "state").as_text(), "completed");
  EXPECT_TRUE(cell(r, ids[0], "done").as_bool());
  EXPECT_EQ(cell(r, ids[1], "state").as_text(), "ready");
  EXPECT_EQ(r.find(ids[3]), nullptr);
}

TEST(Database, RecoveredDatabaseContinuesJournaling) {
  Database original;
  original.create_table("jobs", jobs_schema())
      .insert({Value("j"), Value("ready"), Value(1), Value(0.0), Value(false)});

  Database recovered;
  ASSERT_TRUE(recovered.recover(original.journal()).ok());
  // Insert post-recovery: new row ids must not collide with replayed ones.
  const RowId id2 = recovered.table("jobs").insert(
      {Value("k"), Value("ready"), Value(2), Value(0.0), Value(false)});
  EXPECT_EQ(recovered.table("jobs").size(), 2u);
  EXPECT_GT(id2, RowId{1});
  // And the recovered journal can recover a third instance.
  Database third;
  ASSERT_TRUE(third.recover(recovered.journal()).ok());
  EXPECT_EQ(third.table("jobs").size(), 2u);
}

TEST(Database, RecoverIntoNonEmptyFails) {
  Database d;
  d.create_table("jobs", jobs_schema());
  Journal empty;
  EXPECT_FALSE(d.recover(empty).ok());
}

/// A live warehouse over many tables: DAGs, jobs, inputs, dependencies,
/// site statistics and the drain ledger, with escaped text and reals in
/// the cells.
std::unique_ptr<core::DataWarehouse> sample_warehouse() {
  auto wh = std::make_unique<core::DataWarehouse>();
  for (std::uint64_t d = 0; d < 3; ++d) {
    const std::uint64_t base = 100 * (d + 1);
    workflow::Dag dag(DagId(base), "dag\t" + std::to_string(d));
    for (std::uint64_t j = 1; j <= 4; ++j) {
      workflow::JobSpec spec;
      spec.id = JobId(base + j);
      spec.name = "job\\" + std::to_string(j);
      spec.compute_time = 30.0 + static_cast<double>(j) / 3.0;
      spec.output = "lfn://out/" + std::to_string(base + j);
      spec.output_bytes = 1e6 * static_cast<double>(j);
      spec.inputs = {"lfn://in/" + std::to_string(j),
                     "lfn://in/shared\nline"};
      dag.add_job(spec);
      if (j > 1) dag.add_edge(JobId(base + j - 1), JobId(base + j));
    }
    wh->insert_dag(dag, "client-" + std::to_string(d), UserId(d + 1),
                  static_cast<double>(d));
  }
  wh->set_job_planned(JobId(101), SiteId(3), 4.5);
  wh->record_completion(SiteId(3), 301.25);
  wh->record_completion(SiteId(5), 0.1);
  return wh;
}

std::string warehouse_image() {
  const auto wh = sample_warehouse();
  wh->checkpoint(7.0);
  return *wh->checkpoint_image()->database;
}

TEST(Database, RecoverDetectsCorruptReplay) {
  Journal j;
  JournalEntry bad;
  bad.op = JournalEntry::Op::kUpdate;
  bad.table = "missing";
  bad.row = 1;
  bad.cells = {Value(1)};
  j.append(bad);
  Database d;
  const auto status = d.recover(j);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "recover_replay");

  // Parsed records that cannot apply are replay errors, not exceptions:
  // an insert short of a cell, a cell of the wrong type, a repeated or
  // zero row id, an update out of the schema, a schema naming a column
  // twice.
  const std::string create = "C\tjobs\tname=text\tsite=int\n";
  for (const std::string& tail :
       {std::string("I\tjobs\t1\ts:a\n"),
        std::string("I\tjobs\t1\ts:a\ts:b\n"),
        std::string("I\tjobs\t1\ts:a\ti:1\nI\tjobs\t1\ts:b\ti:2\n"),
        std::string("I\tjobs\t0\ts:a\ti:1\n"),
        std::string("I\tjobs\t18446744073709551615\ts:a\ti:1\n"),
        std::string("I\tjobs\t1\ts:a\ti:1\nU\tjobs\t1\t1\ts:x\n"),
        std::string("I\tjobs\t1\ts:a\ti:1\nU\tjobs\t1\t7\ti:2\n"),
        std::string("C\tdup\ta=int\ta=text\n")}) {
    const auto parsed = Journal::parse(create + tail);
    ASSERT_TRUE(parsed.has_value()) << tail;
    Database target;
    StatusOrError replayed;
    EXPECT_NO_THROW(replayed = target.recover(*parsed)) << tail;
    ASSERT_FALSE(replayed.ok()) << tail;
    EXPECT_EQ(replayed.error().code, "recover_replay") << tail;
  }

  // Every truncation and a few hundred seeded byte flips of a real
  // journal either fail to parse, replay, or return a replay error.
  const std::string text = sample_warehouse()->journal().serialize();
  const auto replay_returns = [](const std::string& bent, std::size_t at) {
    const auto parsed = Journal::parse(bent);
    if (!parsed.has_value()) return;
    Database target;
    EXPECT_NO_THROW({
      const auto status = target.recover(*parsed);
      if (!status.ok()) {
        EXPECT_EQ(status.error().code, "recover_replay");
      }
    }) << "at byte " << at;
  };
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    replay_returns(text.substr(0, cut), cut);
  }
  std::mt19937_64 rng(19);
  for (int flip = 0; flip < 400; ++flip) {
    std::string bent = text;
    const std::size_t at = rng() % bent.size();
    bent[at] = static_cast<char>(bent[at] ^ static_cast<char>(1 + rng() % 255));
    replay_returns(bent, at);
  }
}

TEST(Journal, SerializeParseRoundTrip) {
  Database d;
  Table& t = d.create_table("jobs", jobs_schema());
  const RowId id = t.insert({Value("has\ttab and \\slash\nnewline"),
                             Value("ready"), Value(-7), Value(3.25),
                             Value(true)});
  t.update(id, col(t, "state"), Value("planned"));
  t.erase(id);

  const std::string text = d.journal().serialize();
  const auto parsed = Journal::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), d.journal().size());

  Database recovered;
  ASSERT_TRUE(recovered.recover(*parsed).ok());
  EXPECT_EQ(recovered.table("jobs").size(), 0u);
  // Serialized journals of both databases agree record-for-record.
  EXPECT_EQ(recovered.journal().serialize(), text);
}

TEST(Journal, ParseRejectsGarbage) {
  EXPECT_FALSE(Journal::parse("X\tjobs\n").has_value());
  EXPECT_FALSE(Journal::parse("U\tjobs\t1\n").has_value());
  EXPECT_FALSE(Journal::parse("I\tjobs\t1\tz:9\n").has_value());
}

TEST(Journal, ParseEmptyIsEmpty) {
  const auto j = Journal::parse("");
  ASSERT_TRUE(j.has_value());
  EXPECT_TRUE(j->empty());
}

TEST(Database, TruncateJournalKeepsData) {
  Database d;
  Table& t = d.create_table("jobs", jobs_schema());
  t.insert({Value("j"), Value("ready"), Value(1), Value(0.0), Value(false)});
  d.truncate_journal();
  EXPECT_TRUE(d.journal().empty());
  EXPECT_EQ(d.table("jobs").size(), 1u);
}

TEST(Database, JournalingCanBeDisabled) {
  Database d;
  d.set_journaling(false);
  Table& t = d.create_table("jobs", jobs_schema());
  t.insert({Value("j"), Value("ready"), Value(1), Value(0.0), Value(false)});
  EXPECT_TRUE(d.journal().empty());
}

Schema indexed_jobs_schema() {
  return Schema{{{"name", ValueType::kText},
                 indexed("state", ValueType::kText),
                 {"site", ValueType::kInt},
                 {"runtime", ValueType::kReal},
                 {"done", ValueType::kBool}}};
}

TEST(Table, SchemaDeclaredIndexes) {
  Database d;
  Table& t = d.create_table("jobs", indexed_jobs_schema());
  t.insert({Value("a"), Value("ready"), Value(1), Value(0.0), Value(false)});
  t.insert({Value("b"), Value("done"), Value(2), Value(1.0), Value(true)});
  t.insert({Value("c"), Value("ready"), Value(1), Value(2.0), Value(false)});

  // The declared index serves the query: no scan fallback.
  EXPECT_EQ(t.find_by(col(t, "state"), Value("ready")).size(), 2u);
  EXPECT_EQ(t.full_scans(), 0u);
#if SPHINX_CONTRACTS_ENABLED
  // Querying an undeclared column falls back to a (counted) full scan.
  EXPECT_EQ(t.find_by(col(t, "name"), Value("b")).size(), 1u);
  EXPECT_EQ(t.full_scans(), 1u);
#endif
}

TEST(Table, FindFirstMatchesFindBy) {
  Database d;
  Table& t = d.create_table("jobs", indexed_jobs_schema());
  const RowId first =
      t.insert({Value("a"), Value("ready"), Value(1), Value(0.0),
                Value(false)});
  t.insert({Value("b"), Value("ready"), Value(2), Value(1.0), Value(false)});

  // Index path.
  const Row* row = t.find_first(col(t, "state"), Value("ready"));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->id, first);
  EXPECT_EQ(row->id, t.find_by(col(t, "state"), Value("ready")).front());
  EXPECT_EQ(t.find_first(col(t, "state"), Value("nope")), nullptr);
  // Scan path agrees.
  row = t.find_first(col(t, "name"), Value("b"));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->id, t.find_by(col(t, "name"), Value("b")).front());
  EXPECT_EQ(t.find_first(col(t, "name"), Value("zzz")), nullptr);
}

TEST(Journal, CreateTableCarriesIndexFlags) {
  Database d;
  Table& t = d.create_table("jobs", indexed_jobs_schema());
  t.insert({Value("a"), Value("ready"), Value(1), Value(0.0), Value(false)});

  // The schema line marks indexed columns with a trailing '!'.
  const std::string text = d.journal().serialize();
  EXPECT_NE(text.find("state=text!"), std::string::npos);
  EXPECT_NE(text.find("name=text\t"), std::string::npos);

  // Round trip: the parsed journal rebuilds the index, so the recovered
  // table answers the hot query without a scan fallback.
  const auto parsed = Journal::parse(text);
  ASSERT_TRUE(parsed.has_value());
  Database r;
  ASSERT_TRUE(r.recover(*parsed).ok());
  Table& rt = r.table("jobs");
  EXPECT_EQ(rt.find_by(col(rt, "state"), Value("ready")).size(), 1u);
  EXPECT_EQ(rt.full_scans(), 0u);

  // Journals written before the flag existed still parse (no '!').
  const auto legacy = Journal::parse("C\tlegacy\tname=text\tstate=text\n");
  ASSERT_TRUE(legacy.has_value());
  ASSERT_EQ(legacy->entries().size(), 1u);
  for (const Column& col : legacy->entries()[0].schema) {
    EXPECT_FALSE(col.indexed);
  }
}

TEST(Journal, SequenceNumbersSurviveTruncation) {
  Database d;
  Table& t = d.create_table("jobs", jobs_schema());
  std::vector<RowId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(t.insert({Value("j" + std::to_string(i)), Value("ready"),
                            Value(i), Value(0.0), Value(false)}));
  }
  // create + 5 inserts: sequences 0..5, next is 6.
  EXPECT_EQ(d.journal().base_seq(), 0u);
  EXPECT_EQ(d.journal().next_seq(), 6u);

  d.truncate_journal(4);
  EXPECT_EQ(d.journal().base_seq(), 4u);
  EXPECT_EQ(d.journal().next_seq(), 6u);
  EXPECT_EQ(d.journal().size(), 2u);

  // New mutations keep numbering from where the prefix left off.
  t.update(ids[0], col(t, "state"), Value("planned"));
  EXPECT_EQ(d.journal().next_seq(), 7u);

  // Truncating before the base or past the end clamps, never throws.
  Journal j = d.journal();
  j.truncate_before(1);
  EXPECT_EQ(j.base_seq(), 4u);
  j.truncate_before(99);
  EXPECT_EQ(j.base_seq(), 7u);
  EXPECT_TRUE(j.empty());
}

TEST(Journal, SerializedSizeMatchesAndHeaderRoundTrips) {
  Database d;
  Table& t = d.create_table("jobs", jobs_schema());
  const RowId id = t.insert({Value("tab\tand\nnewline"), Value("ready"),
                             Value(-3), Value(2.5), Value(true)});
  t.update(id, col(t, "state"), Value("planned"));
  EXPECT_EQ(d.journal().size_bytes(), d.journal().serialize().size());

  // Untruncated journals serialize headerless (legacy byte format).
  EXPECT_EQ(d.journal().serialize().front(), 'C');

  d.truncate_journal(2);
  const std::string text = d.journal().serialize();
  EXPECT_EQ(text.rfind("#seq\t2\n", 0), 0u);
  EXPECT_EQ(d.journal().size_bytes(), text.size());

  const auto parsed = Journal::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->base_seq(), 2u);
  EXPECT_EQ(parsed->next_seq(), d.journal().next_seq());
  EXPECT_EQ(parsed->serialize(), text);

  // A header anywhere but the very start is corruption.
  EXPECT_FALSE(Journal::parse("C\tjobs\tname=text\n#seq\t2\n").has_value());
  EXPECT_FALSE(Journal::parse("#seq\tnope\n").has_value());
}

TEST(Database, SnapshotRestoreRoundTripIsByteStable) {
  Database original;
  Table& jobs = original.create_table("jobs", jobs_schema());
  original.create_table("empty", jobs_schema());
  std::vector<RowId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(jobs.insert({Value("job-" + std::to_string(i)),
                               Value(i % 2 == 0 ? "ready" : "planned"),
                               Value(i), Value(1.5 * i), Value(false)}));
  }
  jobs.update(ids[2], col(jobs, "state"), Value("completed"));
  jobs.erase(ids[7]);  // tail erase: next_id exceeds the max live id

  const std::string image = original.snapshot();
  Database restored;
  ASSERT_TRUE(restored.restore(image).ok());

  // Restore is state, not history: the journal starts empty for the
  // caller to pair with a suffix.
  EXPECT_TRUE(restored.journal().empty());

  // The restored store is logically identical, snapshots to the same
  // bytes, and keeps allocating row ids past the erased tail.
  EXPECT_EQ(restored.snapshot(), image);
  EXPECT_EQ(restored.table("jobs").size(), 7u);
  EXPECT_EQ(cell(restored.table("jobs"), ids[2], "state").as_text(),
            "completed");
  const RowId fresh = restored.table("jobs").insert(
      {Value("new"), Value("ready"), Value(9), Value(0.0), Value(false)});
  EXPECT_GT(fresh, ids[7]);
  EXPECT_FALSE(restored.restore(image).ok());  // non-empty target refused
}

TEST(Database, SnapshotCarriesIndexDeclarations) {
  Database original;
  Table& t = original.create_table("jobs", indexed_jobs_schema());
  t.insert({Value("a"), Value("ready"), Value(1), Value(0.0), Value(false)});

  Database restored;
  ASSERT_TRUE(restored.restore(original.snapshot()).ok());
  Table& rt = restored.table("jobs");
  EXPECT_EQ(rt.find_by(col(rt, "state"), Value("ready")).size(), 1u);
  EXPECT_EQ(rt.full_scans(), 0u);  // the index came back with the schema
}

TEST(Database, SuffixRecoveryReproducesCrashedJournalBytes) {
  // The checkpoint + suffix path: snapshot mid-history, keep mutating,
  // truncate, then recover a new database from (image, suffix).  The
  // recovered journal must be byte-identical to the crashed one -- the
  // recovered server must itself remain recoverable.
  Database crashed;
  Table& jobs = crashed.create_table("jobs", jobs_schema());
  std::vector<RowId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(jobs.insert({Value("j" + std::to_string(i)), Value("ready"),
                               Value(i), Value(0.0), Value(false)}));
  }
  const std::string image = crashed.snapshot();
  const std::uint64_t seq = crashed.journal().next_seq();
  jobs.update(ids[1], col(jobs, "state"), Value("completed"));
  jobs.erase(ids[4]);
  crashed.truncate_journal(seq);

  Database recovered;
  ASSERT_TRUE(recovered.restore(image).ok());
  ASSERT_TRUE(recovered.recover(crashed.journal(), seq).ok());
  EXPECT_EQ(recovered.journal().serialize(), crashed.journal().serialize());
  EXPECT_EQ(recovered.snapshot(), crashed.snapshot());
  EXPECT_EQ(recovered.journal().base_seq(), seq);

  // The same suffix also replays from an *untruncated* crashed journal
  // (a crash between image publication and truncation): entries below
  // `seq` are skipped and the adopted journal is the compacted suffix.
  Database crashed_untruncated;
  Table& jobs2 = crashed_untruncated.create_table("jobs", jobs_schema());
  for (int i = 0; i < 6; ++i) {
    jobs2.insert({Value("j" + std::to_string(i)), Value("ready"), Value(i),
                  Value(0.0), Value(false)});
  }
  jobs2.update(ids[1], col(jobs2, "state"), Value("completed"));
  jobs2.erase(ids[4]);
  Database completed;
  ASSERT_TRUE(completed.restore(image).ok());
  ASSERT_TRUE(completed.recover(crashed_untruncated.journal(), seq).ok());
  EXPECT_EQ(completed.journal().serialize(), crashed.journal().serialize());
  EXPECT_EQ(completed.snapshot(), crashed.snapshot());

  // A suffix starting past the requested replay point is unusable.
  Journal too_new = crashed.journal();
  too_new.truncate_before(seq + 1);
  Database refused;
  ASSERT_TRUE(refused.restore(image).ok());
  const auto status = refused.recover(too_new, seq);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "recover_suffix");
}

/// Restores `image` into a fresh database; must return, never throw.
void expect_restore_returns(const std::string& image, const char* what,
                            std::size_t at) {
  Database d;
  EXPECT_NO_THROW({
    const auto status = d.restore(image);
    if (!status.ok()) {
      EXPECT_EQ(status.error().code, "restore_parse");
    }
  }) << what << " at byte " << at;
}

TEST(Database, RestoreRejectsCorruptImages) {
  Database d;
  EXPECT_FALSE(d.restore("not a snapshot").ok());
  EXPECT_FALSE(d.restore("#db\t9\n").ok());          // unknown version
  EXPECT_FALSE(d.restore("#db\t1\nR\t1\tn\n").ok()); // row before table

  // Records that parse but cannot be applied: a short row, a cell of the
  // wrong type, a repeated or zero row id, a cursor at or below a row
  // id, a repeated column name.
  const std::string table = "#db\t1\nT\tjobs\t5\tname=text\tsite=int\n";
  for (const std::string& tail :
       {std::string("R\t1\ts:a\n"), std::string("R\t1\ts:a\ts:b\n"),
        std::string("R\t1\ts:a\ti:1\nR\t1\ts:b\ti:2\n"),
        std::string("R\t0\ts:a\ti:1\n"), std::string("R\t5\ts:a\ti:1\n"),
        std::string("T\tdup\t1\ta=int\ta=text\n")}) {
    Database target;
    const auto status = target.restore(table + tail);
    ASSERT_FALSE(status.ok()) << tail;
    EXPECT_EQ(status.error().code, "restore_parse") << tail;
  }

  // Every truncation and a few hundred seeded byte flips of a real
  // multi-table image either restore or return an error.
  const std::string image = warehouse_image();
  ASSERT_GT(image.size(), 1000u);
  {
    Database whole;
    ASSERT_TRUE(whole.restore(image).ok());
    EXPECT_GE(whole.table_count(), 5u);
  }
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    expect_restore_returns(image.substr(0, cut), "truncation", cut);
  }
  std::mt19937_64 rng(20050404);
  for (int flip = 0; flip < 400; ++flip) {
    std::string bent = image;
    const std::size_t at = rng() % bent.size();
    bent[at] = static_cast<char>(bent[at] ^ static_cast<char>(1 + rng() % 255));
    expect_restore_returns(bent, "flip", at);
  }
}

TEST(Database, SubnormalRealsSurviveSnapshotAndJournal) {
  const double subnormals[] = {std::numeric_limits<double>::denorm_min(),
                               -std::numeric_limits<double>::denorm_min(),
                               1e-310, -2.5e-320};
  Database d;
  Table& t = d.create_table("reals", Schema{{"x", ValueType::kReal}});
  std::vector<RowId> ids;
  for (const double v : subnormals) ids.push_back(t.insert({Value(v)}));

  const auto bits_equal = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  const auto expect_same_cells = [&](const Database& copy) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_TRUE(bits_equal(cell(copy.table("reals"), ids[i], "x").as_real(),
                             subnormals[i]))
          << i;
    }
  };

  const std::string image = d.snapshot();
  EXPECT_NE(image.find("r:4.9406564584124654e-324"), std::string::npos);
  Database restored;
  const auto status = restored.restore(image);
  ASSERT_TRUE(status.ok()) << status.error().to_string();
  expect_same_cells(restored);
  EXPECT_EQ(restored.snapshot(), image);

  const std::string text = d.journal().serialize();
  const auto parsed = Journal::parse(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  Database replayed;
  ASSERT_TRUE(replayed.recover(*parsed).ok());
  expect_same_cells(replayed);
  EXPECT_EQ(replayed.journal().serialize(), text);

  const auto decoded = parse_value("r:4.9406564584124654e-324");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(bits_equal(decoded->as_real(), subnormals[0]));
}

TEST(Database, NumericCellsAreStrict) {
  // Exactly the writer's forms: no trailing bytes, no whitespace, no '+'.
  for (const char* bad :
       {"i:12abc", "i: 5", "i:+5", "i:", "i:99999999999999999999", "r:1.5x",
        "r: 1.5", "r:", "r:1e999", "r:0x1p3", "b:2", "b:", "n:x"}) {
    EXPECT_FALSE(parse_value(bad).has_value()) << bad;
  }
  EXPECT_FALSE(Journal::parse("E\tjobs\t1x\n").has_value());
  EXPECT_FALSE(Journal::parse("E\tjobs\t-1\n").has_value());
  EXPECT_FALSE(Journal::parse("#seq\t+2\n").has_value());
  Database d;
  EXPECT_FALSE(d.restore("#db\t1\nT\tjobs\t 2\tx=int\n").ok());

  EXPECT_EQ(parse_value("i:-9223372036854775808")->as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(std::isinf(parse_value("r:-inf")->as_real()));
  EXPECT_TRUE(std::isnan(parse_value("r:nan")->as_real()));
  EXPECT_TRUE(std::signbit(parse_value("r:-0")->as_real()));
}

// --- incremental images vs the full re-encode -------------------------

/// The encoder images and journals were written with before snapshots
/// became incremental: a fresh string per field, reals through a
/// precision-17 stream.  Kept here only as the differential oracle.
namespace oracle {

std::string escape_field(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string encode_value(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: return "n:";
    case ValueType::kInt: return "i:" + std::to_string(v.as_int());
    case ValueType::kReal: {
      std::ostringstream oss;
      oss.precision(17);
      oss << v.as_real();
      return "r:" + oss.str();
    }
    case ValueType::kText: return "s:" + escape_field(v.as_text());
    case ValueType::kBool: return std::string("b:") + (v.as_bool() ? "1" : "0");
  }
  return "n:";
}

std::string encode_column(const Column& column) {
  return escape_field(column.name) + "=" + to_string(column.type) +
         (column.indexed ? "!" : "");
}

std::string snapshot(const Database& d) {
  std::string out = "#db\t1\n";
  for (const std::string& name : d.table_names()) {
    const Table& t = d.table(name);
    out += "T\t" + escape_field(name) + "\t" + std::to_string(t.next_id());
    for (const Column& col : t.schema().columns()) {
      out += "\t" + encode_column(col);
    }
    out += "\n";
    t.for_each([&out](const Row& row) {
      out += "R\t" + std::to_string(row.id);
      for (const Value& v : row.cells) out += "\t" + encode_value(v);
      out += "\n";
    });
  }
  return out;
}

std::string journal(const Journal& j) {
  std::string out;
  if (j.base_seq() != 0) out += "#seq\t" + std::to_string(j.base_seq()) + "\n";
  for (const JournalEntry& e : j.entries()) {
    const std::string head = "\t" + escape_field(e.table);
    switch (e.op) {
      case JournalEntry::Op::kCreateTable:
        out += "C" + head;
        for (const Column& col : e.schema) out += "\t" + encode_column(col);
        break;
      case JournalEntry::Op::kInsert:
        out += "I" + head + "\t" + std::to_string(e.row);
        for (const Value& v : e.cells) out += "\t" + encode_value(v);
        break;
      case JournalEntry::Op::kUpdate:
        out += "U" + head + "\t" + std::to_string(e.row) + "\t" +
               std::to_string(e.column) + "\t" + encode_value(e.cells.at(0));
        break;
      case JournalEntry::Op::kErase:
        out += "E" + head + "\t" + std::to_string(e.row);
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace oracle

/// Seeded mutation mixes over a database, checking every image and
/// journal against the oracle.
class ImageFuzzer {
 public:
  explicit ImageFuzzer(std::uint64_t seed) : rng_(seed) {}

  Value random_value(ValueType type) {
    if (pick(8) == 0) return Value();
    if (type == ValueType::kNull) {
      type = static_cast<ValueType>(1 + pick(4));  // untyped: any cell
    }
    switch (type) {
      case ValueType::kInt: {
        constexpr std::int64_t kEdges[] = {
            std::numeric_limits<std::int64_t>::min(),
            std::numeric_limits<std::int64_t>::max(), 0, -1, 42};
        if (pick(3) == 0) return Value(kEdges[pick(5)]);
        return Value(static_cast<std::int64_t>(rng_()));
      }
      case ValueType::kReal: {
        constexpr double kEdges[] = {
            0.0, -0.0, std::numeric_limits<double>::denorm_min(),
            -std::numeric_limits<double>::denorm_min(), 1e-310,
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::quiet_NaN(),
            -std::numeric_limits<double>::quiet_NaN(), 0.1, 1.0 / 3.0,
            std::numeric_limits<double>::max()};
        if (pick(2) == 0) return Value(kEdges[pick(12)]);
        double bits_real = 0.0;
        const std::uint64_t bits = rng_();
        std::memcpy(&bits_real, &bits, sizeof bits);
        return Value(pick(2) == 0 ? bits_real
                                  : static_cast<double>(pick(100000)) / 7.0);
      }
      case ValueType::kText: {
        constexpr const char* kPieces[] = {"", "\t", "\n", "\\", "a",
                                           "state", "=", "\\t", " ", "x\ny"};
        std::string text;
        const std::size_t n = pick(4);
        for (std::size_t i = 0; i < n; ++i) text += kPieces[pick(10)];
        return Value(std::move(text));
      }
      case ValueType::kBool: return Value(pick(2) == 0);
      case ValueType::kNull: break;
    }
    return Value();
  }

  std::vector<Value> random_row(const Table& t) {
    std::vector<Value> cells;
    for (const Column& col : t.schema().columns()) {
      cells.push_back(random_value(col.type));
    }
    return cells;
  }

  /// One random mutation of a random table of `d`.
  void mutate(Database& d) {
    const std::vector<std::string> names = d.table_names();
    Table& t = d.table(names[pick(names.size())]);
    std::vector<RowId> live;
    t.for_each([&live](const Row& row) { live.push_back(row.id); });
    const std::size_t op = pick(10);
    if (op < 4 || live.empty()) {
      t.insert(random_row(t));
    } else if (op < 8) {
      const std::size_t column = pick(t.schema().size());
      t.update(live[pick(live.size())], column,
               random_value(t.schema().at(column).type));
    } else if (op < 9) {
      t.erase(live[pick(live.size())]);
    } else {
      // Re-insert under an erased id (what replay does).
      for (RowId id = 1; id < t.next_id(); ++id) {
        if (t.find(id) == nullptr) {
          t.insert_with_id(id, random_row(t));
          break;
        }
      }
    }
  }

  void create_table(Database& d) {
    const std::string name = "t" + std::to_string(tables_++) +
                             (pick(3) == 0 ? "\tesc\\aped" : "");
    Schema schema{{"name", ValueType::kText},
                  indexed("state", ValueType::kText),
                  {"n", ValueType::kInt},
                  indexed("k", ValueType::kInt),
                  {"x", ValueType::kReal},
                  {"any", ValueType::kNull},
                  {"flag", ValueType::kBool}};
    d.create_table(name, std::move(schema));
  }

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }

 private:
  std::mt19937_64 rng_;
  int tables_ = 0;
};

/// Takes an image of `d` and checks it and the journal against the
/// oracle, and that a restore of the image re-images to the same bytes.
std::string checked_image(Database& d) {
  const std::string image = d.snapshot();
  EXPECT_EQ(image, oracle::snapshot(d));
  const std::string journal = d.journal().serialize();
  EXPECT_EQ(journal, oracle::journal(d.journal()));
  const auto parsed = Journal::parse(journal);
  EXPECT_TRUE(parsed.has_value());
  if (parsed.has_value()) {
    EXPECT_EQ(parsed->serialize(), journal);
  }
  Database fresh;
  const auto status = fresh.restore(image);
  EXPECT_TRUE(status.ok()) << status.error().to_string();
  EXPECT_EQ(fresh.snapshot(), image);
  return image;
}

TEST(Database, IncrementalImageMatchesFullEncode) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ImageFuzzer fuzz(seed);
    auto live = std::make_unique<Database>();
    fuzz.create_table(*live);
    fuzz.create_table(*live);
    for (int image = 0; image < 24; ++image) {
      const std::size_t burst = fuzz.pick(40);
      const bool quiet = fuzz.pick(4) == 0;  // a stretch with journaling off
      if (quiet) live->set_journaling(false);
      for (std::size_t i = 0; i < burst; ++i) fuzz.mutate(*live);
      if (quiet) live->set_journaling(true);
      if (fuzz.pick(6) == 0) fuzz.create_table(*live);  // after an image
      const std::uint64_t seq = live->journal().next_seq();
      const std::string img = checked_image(*live);
      if (fuzz.pick(2) == 0) live->truncate_journal(seq);

      switch (fuzz.pick(5)) {
        case 0: {
          // Continue from a restore of the image.
          auto restored = std::make_unique<Database>();
          ASSERT_TRUE(restored->restore(img).ok());
          live = std::move(restored);
          break;
        }
        case 1: {
          // Replay a suffix onto a restored copy that has already imaged
          // (the replay runs with journaling off), then image both.  A
          // suffix from sequence 0 would be a full replay instead.
          if (seq == 0) break;
          for (int i = 0; i < 20; ++i) fuzz.mutate(*live);
          Database copy;
          ASSERT_TRUE(copy.restore(img).ok());
          EXPECT_EQ(copy.snapshot(), img);
          const auto status = copy.recover(live->journal(), seq);
          ASSERT_TRUE(status.ok()) << status.error().to_string();
          EXPECT_EQ(checked_image(copy), checked_image(*live));
          break;
        }
        default: break;
      }
    }
  }
}

TEST(Table, IndexBucketsStayInIdOrder) {
  // Updates must not move a row to the back of its index bucket: query
  // iteration order is a function of table state, not update history --
  // the property that makes snapshot/restore order-preserving.
  Table t("jobs", indexed_jobs_schema());
  std::vector<RowId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(t.insert({Value("j" + std::to_string(i)), Value("ready"),
                            Value(i), Value(0.0), Value(false)}));
  }
  t.update(ids[0], col(t, "site"), Value(9));  // unindexed: bucket untouched
  t.update(ids[2], col(t, "state"), Value("planned"));
  t.update(ids[2], col(t, "state"), Value("ready"));
  EXPECT_EQ(t.find_by(col(t, "state"), Value("ready")),
            (std::vector<RowId>{ids[0], ids[1], ids[2], ids[3]}));
}

TEST(Table, ErasesKeepCollidingIdsFindable) {
  // Ids 16 apart share a home slot in the (at least 16-slot) id map, so
  // they form one probe chain; erasing inside it must leave the rest of
  // the chain findable.
  Table t("jobs", indexed_jobs_schema());
  for (const RowId id : {RowId{1}, RowId{17}, RowId{33}, RowId{49}}) {
    t.insert_with_id(id, {Value("j"), Value("ready"), Value(1), Value(0.0),
                          Value(false)});
  }
  ASSERT_TRUE(t.erase(1));
  ASSERT_TRUE(t.erase(33));
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_EQ(t.find(33), nullptr);
  for (const RowId id : {RowId{17}, RowId{49}}) {
    const Row* row = t.find(id);
    ASSERT_NE(row, nullptr) << "row " << id;
    EXPECT_EQ(row->id, id);
  }
  EXPECT_EQ(t.find_by(col(t, "state"), Value("ready")),
            (std::vector<RowId>{17, 49}));
  t.check_invariants();
}

// --- dense value-keyed table vs the map-and-string-key table -------------

namespace oracle {

/// The table store as it was before rows went dense and index keys went
/// typed: rows in a std::map, index buckets keyed by "type:text" with
/// reals formatted "%.9f", and every update re-keying every index.  Kept
/// here only as the differential oracle.  Its indexed real-key lookups
/// are wrong (distinct reals share a key), so real probes go to scan().
class MapTable {
 public:
  MapTable(std::string name, Schema schema, Journal& journal)
      : name_(std::move(name)), schema_(std::move(schema)), journal_(journal) {
    for (std::size_t col = 0; col < schema_.size(); ++col) {
      if (schema_.at(col).indexed) indexes_[col];
    }
    JournalEntry entry;
    entry.op = JournalEntry::Op::kCreateTable;
    entry.table = name_;
    entry.schema = schema_.columns();
    journal_.append(std::move(entry));
  }

  RowId insert(std::vector<Value> cells) {
    const RowId id = next_id_++;
    put(id, std::move(cells));
    return id;
  }
  void insert_with_id(RowId id, std::vector<Value> cells) {
    next_id_ = std::max(next_id_, id + 1);
    put(id, std::move(cells));
  }
  bool update(RowId id, std::size_t column, Value value) {
    const auto it = rows_.find(id);
    if (it == rows_.end()) return false;
    index_erase(it->second);
    it->second.cells[column] = std::move(value);
    index_insert(it->second);
    JournalEntry entry;
    entry.op = JournalEntry::Op::kUpdate;
    entry.table = name_;
    entry.row = id;
    entry.column = column;
    entry.cells = {it->second.cells[column]};
    journal_.append(std::move(entry));
    return true;
  }
  bool erase(RowId id) {
    const auto it = rows_.find(id);
    if (it == rows_.end()) return false;
    index_erase(it->second);
    rows_.erase(it);
    JournalEntry entry;
    entry.op = JournalEntry::Op::kErase;
    entry.table = name_;
    entry.row = id;
    journal_.append(std::move(entry));
    return true;
  }
  [[nodiscard]] std::vector<RowId> find_by(std::size_t column,
                                           const Value& value) const {
    if (const auto it = indexes_.find(column); it != indexes_.end()) {
      const auto bucket = it->second.find(key(value));
      return bucket == it->second.end() ? std::vector<RowId>{}
                                        : bucket->second;
    }
    return scan(column, value);
  }
  [[nodiscard]] std::vector<RowId> scan(std::size_t column,
                                        const Value& value) const {
    std::vector<RowId> out;
    for (const auto& [id, row] : rows_) {
      if (row.cells[column] == value) out.push_back(id);
    }
    return out;
  }
  [[nodiscard]] std::vector<RowId> live() const {
    std::vector<RowId> out;
    for (const auto& [id, row] : rows_) out.push_back(id);
    return out;
  }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] RowId next_id() const { return next_id_; }

  /// The table's share of a snapshot image, in the pre-incremental encoder.
  [[nodiscard]] std::string image() const {
    std::string out = "#db\t1\nT\t" + escape_field(name_) + "\t" +
                      std::to_string(next_id_);
    for (const Column& col : schema_.columns()) {
      out += "\t" + encode_column(col);
    }
    out += "\n";
    for (const auto& [id, row] : rows_) {
      out += "R\t" + std::to_string(id);
      for (const Value& v : row.cells) out += "\t" + encode_value(v);
      out += "\n";
    }
    return out;
  }

 private:
  static std::string key(const Value& v) {
    std::string text;
    switch (v.type()) {
      case ValueType::kNull: text = "null"; break;
      case ValueType::kInt: text = std::to_string(v.as_int()); break;
      case ValueType::kReal: text = format_double(v.as_real(), 9); break;
      case ValueType::kText: text = v.as_text(); break;
      case ValueType::kBool: text = v.as_bool() ? "true" : "false"; break;
    }
    return std::string(to_string(v.type())) + ":" + text;
  }
  void put(RowId id, std::vector<Value> cells) {
    const auto [it, ok] = rows_.emplace(id, Row{id, std::move(cells)});
    ASSERT_TRUE(ok);
    index_insert(it->second);
    JournalEntry entry;
    entry.op = JournalEntry::Op::kInsert;
    entry.table = name_;
    entry.row = id;
    entry.cells = it->second.cells;
    journal_.append(std::move(entry));
  }
  void index_insert(const Row& row) {
    for (auto& [col, index] : indexes_) {
      auto& ids = index[key(row.cells[col])];
      ids.insert(std::upper_bound(ids.begin(), ids.end(), row.id), row.id);
    }
  }
  void index_erase(const Row& row) {
    for (auto& [col, index] : indexes_) {
      const auto it = index.find(key(row.cells[col]));
      if (it == index.end()) continue;
      std::erase(it->second, row.id);
      if (it->second.empty()) index.erase(it);
    }
  }

  std::string name_;
  Schema schema_;
  Journal& journal_;
  std::map<RowId, Row> rows_;
  RowId next_id_ = 1;
  std::map<std::size_t, std::unordered_map<std::string, std::vector<RowId>>>
      indexes_;
};

}  // namespace oracle

/// Values from small pools, so that keys collide and the equality corner
/// cases (signed zero, tiny reals, NaN, 1 vs "1" vs true) recur.
class PoolValues {
 public:
  explicit PoolValues(std::uint64_t seed) : rng_(seed) {}

  Value of(ValueType type) {
    if (pick(10) == 0) return Value();
    if (type == ValueType::kNull) type = static_cast<ValueType>(1 + pick(4));
    switch (type) {
      case ValueType::kInt: {
        constexpr std::int64_t kInts[] = {
            0, 1, -1, 7, std::numeric_limits<std::int64_t>::min()};
        return Value(kInts[pick(5)]);
      }
      case ValueType::kReal: {
        constexpr double kReals[] = {
            0.0, -0.0, 1e-10, 2e-10, 1.0, 0.1,
            std::numeric_limits<double>::quiet_NaN(),
            std::numeric_limits<double>::infinity()};
        return Value(kReals[pick(8)]);
      }
      case ValueType::kText: {
        constexpr const char* kTexts[] = {"", "1", "true", "ready", "a\tb"};
        return Value(kTexts[pick(5)]);
      }
      case ValueType::kBool: return Value(pick(2) == 0);
      case ValueType::kNull: break;
    }
    return Value();
  }

  std::vector<Value> row(const Schema& schema) {
    std::vector<Value> cells;
    for (const Column& col : schema.columns()) cells.push_back(of(col.type));
    return cells;
  }

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }

 private:
  std::mt19937_64 rng_;
};

/// Every query result, the iteration order and the table image of the
/// dense table agree with the oracle's (scan path for real probes).
void expect_same_table(Database& d, const Table& t,
                       const oracle::MapTable& o, PoolValues& values) {
  ASSERT_EQ(t.size(), o.size());
  std::vector<RowId> order;
  t.for_each([&order](const Row& row) { order.push_back(row.id); });
  ASSERT_EQ(order, o.live());
  for (std::size_t col = 0; col < t.schema().size(); ++col) {
    for (int probe = 0; probe < 6; ++probe) {
      const Value v = values.of(t.schema().at(col).type);
      const std::vector<RowId> expected = v.type() == ValueType::kReal
                                              ? o.scan(col, v)
                                              : o.find_by(col, v);
      ASSERT_EQ(t.find_by(col, v), expected)
          << "column " << col << ", probe of type " << to_string(v.type());
      ASSERT_EQ(t.count_by(col, v), expected.size());
      const Row* first = t.find_first(col, v);
      ASSERT_EQ(first == nullptr ? kInvalidRow : first->id,
                expected.empty() ? kInvalidRow : expected.front());
    }
  }
  ASSERT_EQ(d.snapshot(), o.image());
  t.check_invariants();
}

TEST(Table, DenseTableMatchesMapOracle) {
  const Schema schema{indexed("state", ValueType::kText),
                      indexed("k", ValueType::kInt),
                      {"n", ValueType::kInt},
                      indexed("x", ValueType::kReal),
                      {"y", ValueType::kReal},
                      indexed("any", ValueType::kNull),
                      indexed("flag", ValueType::kBool)};
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PoolValues values(seed);
    Database d;
    Table& t = d.create_table("t", schema);
    Journal expected_journal;
    oracle::MapTable o("t", schema, expected_journal);
    for (int round = 0; round < 12; ++round) {
      // Each round favours one pattern: a random mix, FIFO churn (insert
      // new, erase oldest -- the outbox and sample rings) or LIFO churn
      // (erase newest).
      const std::size_t pattern = values.pick(3);
      for (int step = 0; step < 60; ++step) {
        const std::vector<RowId> live = o.live();
        const std::size_t op = values.pick(10);
        if (live.empty() || op < 3) {
          std::vector<Value> cells = values.row(schema);
          ASSERT_EQ(t.insert(cells), o.insert(cells));
        } else if (op < 6 && pattern == 0) {
          const RowId id = live[values.pick(live.size())];
          const std::size_t col = values.pick(schema.size());
          const Value v = values.of(schema.at(col).type);
          ASSERT_EQ(t.update(id, col, v), o.update(id, col, v));
        } else if (op < 8) {
          const RowId id = pattern == 1   ? live.front()
                           : pattern == 2 ? live.back()
                                          : live[values.pick(live.size())];
          ASSERT_EQ(t.erase(id), o.erase(id));
        } else if (op < 9) {
          // Replay-style insert under an erased id, or past the cursor.
          RowId id = o.next_id() + values.pick(3);
          for (RowId gap = 1; gap < o.next_id(); ++gap) {
            if (t.find(gap) == nullptr && values.pick(2) == 0) {
              id = gap;
              break;
            }
          }
          std::vector<Value> cells = values.row(schema);
          t.insert_with_id(id, cells);
          o.insert_with_id(id, cells);
        } else {
          // Updates and misses on absent rows change nothing.
          ASSERT_EQ(t.update(o.next_id() + 5, 0, Value("x")), false);
          ASSERT_EQ(t.erase(o.next_id() + 5), false);
          ASSERT_EQ(t.find(o.next_id() + 5), nullptr);
        }
        ASSERT_EQ(t.next_id(), o.next_id());
      }
      expect_same_table(d, t, o, values);
      ASSERT_EQ(d.journal().serialize(), oracle::journal(expected_journal));
    }
  }
}

}  // namespace
}  // namespace sphinx::db
