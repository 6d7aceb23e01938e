#include <gtest/gtest.h>

#include "oodb/database.h"
#include "oodb/session.h"
#include "query/expr.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/query_pm.h"
#include "test_util.h"

namespace reach {
namespace {

using reach::testing::TempDir;

TEST(LexerTest, TokenKinds) {
  auto toks = Lex("select x, 42 3.5 \"str\\\"ing\" <= -> a.b // comment");
  ASSERT_TRUE(toks.ok());
  auto& t = *toks;
  EXPECT_TRUE(t[0].IsIdent("select"));
  EXPECT_TRUE(t[1].IsIdent("x"));
  EXPECT_TRUE(t[2].IsSymbol(","));
  EXPECT_EQ(t[3].int_value, 42);
  EXPECT_DOUBLE_EQ(t[4].double_value, 3.5);
  EXPECT_EQ(t[5].text, "str\"ing");
  EXPECT_TRUE(t[6].IsSymbol("<="));
  EXPECT_TRUE(t[7].IsSymbol("->"));
  EXPECT_TRUE(t[8].IsIdent("a"));
  EXPECT_TRUE(t[9].IsSymbol("."));
  EXPECT_TRUE(t[10].IsIdent("b"));
  EXPECT_EQ(t[11].type, TokenType::kEnd);
}

TEST(LexerTest, ErrorsOnBadInput) {
  EXPECT_FALSE(Lex("\"unterminated").ok());
  EXPECT_FALSE(Lex("what @ here").ok());
  EXPECT_FALSE(Lex("/* open comment").ok());
}

class FixedEnv : public EvalEnv {
 public:
  Result<Value> Resolve(const std::vector<std::string>& path) override {
    std::string key;
    for (size_t i = 0; i < path.size(); ++i) {
      if (i) key += ".";
      key += path[i];
    }
    auto it = vars.find(key);
    if (it == vars.end()) return Status::NotFound(key);
    return it->second;
  }
  std::unordered_map<std::string, Value> vars;
};

TEST(ExprTest, ArithmeticAndPrecedence) {
  FixedEnv env;
  auto eval = [&](const std::string& s) {
    auto e = ParseExpression(s);
    EXPECT_TRUE(e.ok()) << s;
    return *Evaluate(*e, &env);
  };
  EXPECT_EQ(eval("1 + 2 * 3"), Value(7));
  EXPECT_EQ(eval("(1 + 2) * 3"), Value(9));
  EXPECT_EQ(eval("10 / 4"), Value(2));       // int division
  EXPECT_EQ(eval("10.0 / 4"), Value(2.5));   // double division
  EXPECT_EQ(eval("10 % 3"), Value(1));
  EXPECT_EQ(eval("-3 + 1"), Value(-2));
  EXPECT_EQ(eval("\"a\" + \"b\""), Value("ab"));
}

TEST(ExprTest, ComparisonsAndLogic) {
  FixedEnv env;
  env.vars["x"] = Value(37);
  env.vars["river.waterTemp"] = Value(25.0);
  auto check = [&](const std::string& s, bool expected) {
    auto e = ParseExpression(s);
    ASSERT_TRUE(e.ok()) << s;
    auto r = EvaluateBool(*e, &env);
    ASSERT_TRUE(r.ok()) << s;
    EXPECT_EQ(*r, expected) << s;
  };
  check("x < 40", true);
  check("x < 37", false);
  check("x <= 37", true);
  check("x == 37 and river.waterTemp > 24.5", true);
  check("x != 37 or river.waterTemp > 24.5", true);
  check("not (x == 37)", false);
  check("x > 10 && x < 40", true);
  check("x = 37", true);  // OQL-style equality
}

TEST(ExprTest, NullSemantics) {
  FixedEnv env;
  env.vars["n"] = Value();
  auto check = [&](const std::string& s, bool expected) {
    auto e = ParseExpression(s);
    auto r = EvaluateBool(*e, &env);
    ASSERT_TRUE(r.ok()) << s;
    EXPECT_EQ(*r, expected) << s;
  };
  check("n == null", true);
  check("n != null", false);
  check("n < 5", false);
  check("n > 5", false);
}

TEST(ExprTest, ErrorsSurface) {
  FixedEnv env;
  auto e = ParseExpression("missing + 1");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(Evaluate(*e, &env).status().IsNotFound());
  auto div = ParseExpression("1 / 0");
  EXPECT_TRUE(Evaluate(*div, &env).status().IsInvalidArgument());
  EXPECT_FALSE(ParseExpression("1 +").ok());
  EXPECT_FALSE(ParseExpression("(1 + 2").ok());
}

TEST(ParserTest, SelectStatementForms) {
  auto s1 = ParseSelect("select * from Reactor");
  ASSERT_TRUE(s1.ok());
  EXPECT_TRUE(s1->items.empty());
  EXPECT_EQ(s1->class_name, "Reactor");
  EXPECT_EQ(s1->alias, "Reactor");
  EXPECT_EQ(s1->where, nullptr);

  auto s2 = ParseSelect(
      "select name, output from Reactor as r where r.output > 100 "
      "order by output desc limit 5");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2->items.size(), 2u);
  EXPECT_EQ(s2->alias, "r");
  EXPECT_NE(s2->where, nullptr);
  EXPECT_EQ(s2->order_by.size(), 1u);
  EXPECT_TRUE(s2->order_desc);
  EXPECT_EQ(s2->limit.value(), 5u);

  EXPECT_FALSE(ParseSelect("select from Reactor").ok());
  EXPECT_FALSE(ParseSelect("select * Reactor").ok());
  EXPECT_FALSE(ParseSelect("select * from Reactor trailing").ok());
}

class QueryPmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(dir_.DbPath());
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(db_->types()
                    ->RegisterClass(
                        ClassBuilder("Stock")
                            .Attribute("symbol", ValueType::kString, Value(""))
                            .Attribute("price", ValueType::kDouble, Value(0.0))
                            .Attribute("volume", ValueType::kInt, Value(0))
                            .Build())
                    .ok());
    session_ = std::make_unique<Session>(db_.get());
    ASSERT_TRUE(session_->Begin().ok());
    const char* symbols[] = {"TI", "IBM", "DEC", "SUN", "HP"};
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(session_
                      ->PersistNew("Stock",
                                   {{"symbol", Value(symbols[i])},
                                    {"price", Value(10.0 * (i + 1))},
                                    {"volume", Value(100 * i)}})
                      .ok());
    }
  }
  TempDir dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
  QueryPm qpm_;
};

TEST_F(QueryPmTest, SelectAll) {
  auto r = qpm_.Execute(*session_, "select * from Stock");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 5u);
  EXPECT_FALSE(r->used_index);
}

TEST_F(QueryPmTest, WhereFilters) {
  auto r = qpm_.Execute(*session_,
                        "select symbol from Stock as s where s.price >= 30");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 3u);
  for (const auto& row : r->rows) {
    ASSERT_EQ(row.values.size(), 1u);
    EXPECT_TRUE(row.values[0].is_string());
  }
}

TEST_F(QueryPmTest, OrderByAndLimit) {
  auto r = qpm_.Execute(
      *session_, "select symbol, price from Stock order by price desc limit 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0].values[0], Value("HP"));
  EXPECT_EQ(r->rows[1].values[0], Value("SUN"));
}

TEST_F(QueryPmTest, BareAttributeNamesWork) {
  auto r = qpm_.Execute(*session_,
                        "select symbol from Stock where volume == 200");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].values[0], Value("DEC"));
}

TEST_F(QueryPmTest, IndexAcceleratesEquality) {
  ASSERT_TRUE(db_->indexing()
                  ->CreateIndex(session_->current_txn(), "Stock", "symbol")
                  .ok());
  auto r = qpm_.Execute(
      *session_, "select price from Stock as s where s.symbol == \"IBM\"");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->used_index);
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].values[0], Value(20.0));
  EXPECT_EQ(r->scanned, 1u);  // only the index hit was examined
}

TEST_F(QueryPmTest, ReferenceTraversal) {
  ASSERT_TRUE(db_->types()
                  ->RegisterClass(
                      ClassBuilder("Position")
                          .Attribute("stock", ValueType::kRef, Value())
                          .Attribute("shares", ValueType::kInt, Value(0))
                          .Build())
                  .ok());
  auto ibm = qpm_.Execute(*session_,
                          "select * from Stock where symbol == \"IBM\"");
  ASSERT_TRUE(ibm.ok());
  ASSERT_EQ(ibm->rows.size(), 1u);
  ASSERT_TRUE(session_
                  ->PersistNew("Position", {{"stock", Value(ibm->rows[0].oid)},
                                            {"shares", Value(10)}})
                  .ok());
  auto r = qpm_.Execute(
      *session_,
      "select shares from Position as p where p.stock.symbol == \"IBM\"");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].values[0], Value(10));
}

TEST(ParserTest, AggregateAndGroupByForms) {
  auto s = ParseSelect(
      "select symbol, count(*), avg(price) from Stock group by symbol");
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->items.size(), 3u);
  EXPECT_EQ(s->items[0].kind, SelectItem::Kind::kAttr);
  EXPECT_EQ(s->items[1].kind, SelectItem::Kind::kCount);
  EXPECT_TRUE(s->items[1].attr.empty());
  EXPECT_EQ(s->items[2].kind, SelectItem::Kind::kAvg);
  EXPECT_EQ(s->items[2].attr, "price");
  EXPECT_EQ(s->group_by, "symbol");
  EXPECT_FALSE(ParseSelect("select nope(*) from Stock").ok());
  EXPECT_FALSE(ParseSelect("select sum(*) from Stock").ok());
}

TEST_F(QueryPmTest, AggregatesWithoutGrouping) {
  auto r = qpm_.Execute(
      *session_,
      "select count(*), sum(volume), avg(price), min(price), max(price) "
      "from Stock");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  const auto& v = r->rows[0].values;
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0], Value(5));           // count
  EXPECT_EQ(v[1], Value(1000.0));      // sum of volumes 0+100+...+400
  EXPECT_EQ(v[2], Value(30.0));        // avg of 10..50
  EXPECT_EQ(v[3], Value(10.0));        // min
  EXPECT_EQ(v[4], Value(50.0));        // max
}

TEST_F(QueryPmTest, AggregatesOverEmptySelection) {
  // No GROUP BY: exactly one row even when nothing matches — counts are 0,
  // the other aggregates null.
  auto r = qpm_.Execute(
      *session_,
      "select count(*), count(price), sum(volume), avg(price), min(price), "
      "max(price) from Stock where price > 1000.0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  const auto& v = r->rows[0].values;
  ASSERT_EQ(v.size(), 6u);
  EXPECT_EQ(v[0], Value(0));
  EXPECT_EQ(v[1], Value(0));
  for (size_t i = 2; i < v.size(); ++i) {
    EXPECT_TRUE(v[i].is_null()) << "column " << i;
  }
  EXPECT_EQ(r->scanned, 5u);

  // With GROUP BY an empty selection has no groups, hence no rows.
  auto grouped = qpm_.Execute(
      *session_,
      "select symbol, count(*) from Stock where price > 1000.0 "
      "group by symbol");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_TRUE(grouped->rows.empty());
}

TEST_F(QueryPmTest, GroupByAggregates) {
  // Two groups by price band: make a second object share a symbol.
  ASSERT_TRUE(session_
                  ->PersistNew("Stock", {{"symbol", Value("TI")},
                                         {"price", Value(60.0)},
                                         {"volume", Value(7)}})
                  .ok());
  auto r = qpm_.Execute(
      *session_,
      "select symbol, count(*), max(price) from Stock as s "
      "where s.symbol == \"TI\" group by symbol");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].values[0], Value("TI"));
  EXPECT_EQ(r->rows[0].values[1], Value(2));
  EXPECT_EQ(r->rows[0].values[2], Value(60.0));

  auto all = qpm_.Execute(*session_,
                          "select symbol, count(*) from Stock group by "
                          "symbol");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), 5u);  // five distinct symbols
}

TEST_F(QueryPmTest, LookupIntoReusesBufferAndMatchesCopyingOverloads) {
  ASSERT_TRUE(db_->indexing()
                  ->CreateIndex(session_->current_txn(), "Stock", "symbol")
                  .ok());
  ASSERT_TRUE(db_->indexing()
                  ->CreateIndex(session_->current_txn(), "Stock", "price",
                                IndexKind::kOrdered)
                  .ok());
  // Buffer with pre-existing garbage and capacity: Into variants must
  // clear before filling and may reuse the allocation across probes.
  std::vector<Oid> buf(64);
  const Oid* data_before = buf.data();
  ASSERT_TRUE(
      db_->indexing()->LookupInto("Stock", "symbol", Value("IBM"), &buf).ok());
  auto copied = db_->indexing()->Lookup("Stock", "symbol", Value("IBM"));
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(buf, *copied);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.data(), data_before);  // capacity reused, no realloc

  Value lo(20.0), hi(40.0);
  ASSERT_TRUE(db_->indexing()
                  ->RangeLookupInto("Stock", "price", &lo, true, &hi, true,
                                    &buf)
                  .ok());
  auto range =
      db_->indexing()->RangeLookup("Stock", "price", &lo, true, &hi, true);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(buf, *range);
  EXPECT_EQ(buf.size(), 3u);  // prices 20, 30, 40
  EXPECT_EQ(buf.data(), data_before);

  // Missing index surfaces NotFound without disturbing the buffer's use.
  EXPECT_TRUE(db_->indexing()
                  ->LookupInto("Stock", "volume", Value(0), &buf)
                  .IsNotFound());
}

TEST_F(QueryPmTest, OrderedIndexServesRangePredicates) {
  ASSERT_TRUE(db_->indexing()
                  ->CreateIndex(session_->current_txn(), "Stock", "price",
                                IndexKind::kOrdered)
                  .ok());
  auto r = qpm_.Execute(*session_,
                        "select symbol from Stock as s where s.price >= 30");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->used_index);
  EXPECT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->scanned, 3u);  // range pruned the scan

  auto lt = qpm_.Execute(*session_,
                         "select symbol from Stock where price < 20");
  ASSERT_TRUE(lt.ok());
  EXPECT_TRUE(lt->used_index);
  ASSERT_EQ(lt->rows.size(), 1u);
  EXPECT_EQ(lt->rows[0].values[0], Value("TI"));

  // Flipped literal side normalizes the operator: 40 <= price.
  auto flipped = qpm_.Execute(
      *session_, "select symbol from Stock as s where 40 <= s.price");
  ASSERT_TRUE(flipped.ok());
  EXPECT_TRUE(flipped->used_index);
  EXPECT_EQ(flipped->rows.size(), 2u);

  // Maintenance: a price change moves the object between ranges.
  auto hp = qpm_.Execute(*session_,
                         "select * from Stock where symbol == \"HP\"");
  ASSERT_TRUE(hp.ok());
  ASSERT_EQ(hp->rows.size(), 1u);
  ASSERT_TRUE(session_->SetAttr(hp->rows[0].oid, "price", Value(5.0)).ok());
  auto cheap = qpm_.Execute(*session_,
                            "select symbol from Stock where price < 10");
  ASSERT_TRUE(cheap.ok());
  ASSERT_EQ(cheap->rows.size(), 1u);
  EXPECT_EQ(cheap->rows[0].values[0], Value("HP"));
}

TEST_F(QueryPmTest, OrderedIndexRolledBackOnAbort) {
  ASSERT_TRUE(db_->indexing()
                  ->CreateIndex(session_->current_txn(), "Stock", "price",
                                IndexKind::kOrdered)
                  .ok());
  ASSERT_TRUE(session_->Commit().ok());
  ASSERT_TRUE(session_->Begin().ok());
  auto hp = qpm_.Execute(*session_,
                         "select * from Stock where symbol == \"HP\"");
  ASSERT_TRUE(session_->SetAttr(hp->rows[0].oid, "price", Value(1.0)).ok());
  ASSERT_TRUE(session_->Abort().ok());
  ASSERT_TRUE(session_->Begin().ok());
  Value ten(10.0);
  auto cheap = db_->indexing()->RangeLookup("Stock", "price", nullptr, true,
                                            &ten, false);
  ASSERT_TRUE(cheap.ok());
  EXPECT_TRUE(cheap->empty());  // rollback restored price 50
}

TEST_F(QueryPmTest, NonAggregateItemMustBeGroupKey) {
  auto r = qpm_.Execute(*session_,
                        "select volume, count(*) from Stock group by symbol");
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(QueryPmTest, UnknownClassOrAttrRejected) {
  EXPECT_TRUE(
      qpm_.Execute(*session_, "select * from Nothing").status().IsNotFound());
  EXPECT_TRUE(qpm_.Execute(*session_, "select nope from Stock")
                  .status()
                  .IsNotFound());
}

}  // namespace
}  // namespace reach
