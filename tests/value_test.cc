#include "rel/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <vector>

namespace maywsd::rel {
namespace {

TEST(ValueTest, DefaultIsBottom) {
  Value v;
  EXPECT_TRUE(v.is_bottom());
  EXPECT_EQ(v, Value::Bottom());
}

TEST(ValueTest, IntEquality) {
  EXPECT_EQ(Value::Int(42), Value::Int(42));
  EXPECT_NE(Value::Int(42), Value::Int(43));
}

TEST(ValueTest, IntDoubleCrossEquality) {
  EXPECT_EQ(Value::Int(1), Value::Double(1.0));
  EXPECT_EQ(Value::Double(2.0), Value::Int(2));
  EXPECT_NE(Value::Int(1), Value::Double(1.5));
}

TEST(ValueTest, CrossEqualityHashConsistency) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Double(7.0).Hash());
  EXPECT_EQ(Value::Int(-7).Hash(), Value::Double(-7.0).Hash());
  // Doubles no int64 holds hash as doubles (an undefined conversion
  // otherwise); the selection driver uses -inf as a constant.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Value::Double(-inf).Hash(), Value::Double(-inf).Hash());
  EXPECT_NE(Value::Double(1e300).Hash(), Value::Double(-inf).Hash());
}

TEST(ValueTest, StringInterningEquality) {
  EXPECT_EQ(Value::String("abc"), Value::String("abc"));
  EXPECT_NE(Value::String("abc"), Value::String("abd"));
  EXPECT_EQ(Value::String("abc").AsStringView(), "abc");
}

TEST(ValueTest, BottomOnlyEqualsBottom) {
  EXPECT_EQ(Value::Bottom(), Value::Bottom());
  EXPECT_NE(Value::Bottom(), Value::Int(0));
  EXPECT_NE(Value::Bottom(), Value::Question());
  EXPECT_NE(Value::Bottom(), Value::String(""));
}

TEST(ValueTest, QuestionOnlyEqualsQuestion) {
  EXPECT_EQ(Value::Question(), Value::Question());
  EXPECT_NE(Value::Question(), Value::Int(0));
}

TEST(ValueTest, TotalOrderRanks) {
  // ⊥ < numerics < strings < ?.
  EXPECT_LT(Value::Bottom(), Value::Int(-100));
  EXPECT_LT(Value::Int(5), Value::String("a"));
  EXPECT_LT(Value::String("zzz"), Value::Question());
}

TEST(ValueTest, NumericOrderMixesIntsAndDoubles) {
  EXPECT_LT(Value::Int(1), Value::Double(1.5));
  EXPECT_LT(Value::Double(1.5), Value::Int(2));
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
}

TEST(ValueTest, IntDoubleEqualityIsExactPastTwoToThe53) {
  // 2⁵³+1 has no double; rounding it to compare would make it equal to
  // the double 2⁵³ while their hashes differ.
  const int64_t p53 = int64_t{1} << 53;
  const Value big_int = Value::Int(p53 + 1);
  const Value big_double = Value::Double(0x1p53);
  EXPECT_NE(big_int, big_double);
  EXPECT_NE(big_double, big_int);
  EXPECT_GT(big_int.Compare(big_double), 0);
  EXPECT_LT(big_double.Compare(big_int), 0);

  // 2⁵³ itself is exact both ways: equal, ordered equal, hashed equal.
  EXPECT_EQ(Value::Int(p53), big_double);
  EXPECT_EQ(big_double, Value::Int(p53));
  EXPECT_EQ(Value::Int(p53).Compare(big_double), 0);
  EXPECT_EQ(Value::Int(p53).Hash(), big_double.Hash());

  // Transitivity across the pair: Int(2⁵³) = Double(2⁵³), and
  // Int(2⁵³+1) ≠ Int(2⁵³), so Int(2⁵³+1) ≠ Double(2⁵³) as well.
  EXPECT_NE(big_int, Value::Int(p53));
  std::unordered_set<Value> set = {big_int, big_double, Value::Int(p53)};
  EXPECT_EQ(set.size(), 2u);
}

TEST(ValueTest, IntDoubleEqualityAtTheInt64Range) {
  const int64_t min = std::numeric_limits<int64_t>::min();
  const int64_t max = std::numeric_limits<int64_t>::max();
  // -2⁶³ is an int64 and a double: equal, with equal hashes.
  EXPECT_EQ(Value::Int(min), Value::Double(-0x1p63));
  EXPECT_EQ(Value::Int(min).Compare(Value::Double(-0x1p63)), 0);
  EXPECT_EQ(Value::Int(min).Hash(), Value::Double(-0x1p63).Hash());
  // 2⁶³ is past every int64: INT64_MAX (which rounds to 2⁶³ as a double)
  // is below it, and nothing below -2⁶³ equals INT64_MIN.
  EXPECT_NE(Value::Int(max), Value::Double(0x1p63));
  EXPECT_LT(Value::Int(max).Compare(Value::Double(0x1p63)), 0);
  EXPECT_GT(Value::Double(0x1p63).Compare(Value::Int(max)), 0);
  EXPECT_NE(Value::Int(min), Value::Double(-0x1p64));
  EXPECT_GT(Value::Int(min).Compare(Value::Double(-0x1p64)), 0);
  // Fractions never equal an int and order between their neighbours.
  EXPECT_NE(Value::Int(-3), Value::Double(-2.5));
  EXPECT_LT(Value::Int(-3).Compare(Value::Double(-2.5)), 0);
  EXPECT_GT(Value::Int(-2).Compare(Value::Double(-2.5)), 0);
  // Compare is 0 exactly when == holds, both directions, on every pair.
  std::vector<Value> values;
  for (int64_t i : {min, max, int64_t{0}, int64_t{-2}}) {
    values.push_back(Value::Int(i));
  }
  for (double d : {-0x1p63, 0x1p63, -2.5, 0.0, -0x1p64, -2.0}) {
    values.push_back(Value::Double(d));
  }
  for (const Value& a : values) {
    for (const Value& b : values) {
      SCOPED_TRACE(a.ToString() + " vs " + b.ToString());
      EXPECT_EQ(a.Compare(b) == 0, a == b);
      EXPECT_EQ(a.Compare(b), -b.Compare(a));
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash());
      }
    }
  }
}

TEST(ValueTest, NaNIsOrderedAboveEveryNumberAndEqualsItself) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t max = std::numeric_limits<int64_t>::max();
  std::vector<Value> values = {
      Value::Double(nan),  Value::Double(-nan), Value::Double(inf),
      Value::Double(-inf), Value::Double(1.0),  Value::Double(-2.5),
      Value::Double(0x1p63), Value::Int(1),     Value::Int(max),
      Value::Int(-3),      Value::Int(0)};
  EXPECT_GT(Value::Double(nan).Compare(Value::Double(inf)), 0);
  EXPECT_GT(Value::Double(nan).Compare(Value::Int(max)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Double(nan)), 0);
  EXPECT_EQ(Value::Double(nan), Value::Double(-nan));
  EXPECT_EQ(Value::Double(nan).Hash(), Value::Double(-nan).Hash());
  EXPECT_NE(Value::Double(nan), Value::Int(0));
  auto sign = [](int c) { return (c > 0) - (c < 0); };
  for (const Value& a : values) {
    for (const Value& b : values) {
      SCOPED_TRACE(a.ToString() + " vs " + b.ToString());
      EXPECT_EQ(sign(a.Compare(b)), -sign(b.Compare(a)));  // antisymmetric
      EXPECT_EQ(a.Compare(b) == 0, a == b);
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash());
      }
      for (const Value& c : values) {
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {  // transitive
          EXPECT_LE(a.Compare(c), 0) << " via " << c.ToString();
        }
      }
    }
  }
  // A sort then adjacent dedup keeps exactly one NaN, last.
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  ASSERT_EQ(values.size(), 9u);  // 1 == 1.0, and the two NaNs are one
  EXPECT_TRUE(values.back().is_double());
  EXPECT_TRUE(std::isnan(values.back().AsDouble()));
  std::unordered_set<Value> distinct = {Value::Double(nan),
                                        Value::Double(-nan)};
  EXPECT_EQ(distinct.size(), 1u);
}

TEST(ValueTest, StringOrderIsLexicographic) {
  EXPECT_LT(Value::String("abc"), Value::String("abd"));
  EXPECT_LT(Value::String("ab"), Value::String("abc"));
}

TEST(ValueTest, SatisfiesComparisons) {
  Value a = Value::Int(3);
  Value b = Value::Int(5);
  EXPECT_TRUE(a.Satisfies(CmpOp::kLt, b));
  EXPECT_TRUE(a.Satisfies(CmpOp::kLe, b));
  EXPECT_TRUE(a.Satisfies(CmpOp::kNe, b));
  EXPECT_FALSE(a.Satisfies(CmpOp::kEq, b));
  EXPECT_FALSE(a.Satisfies(CmpOp::kGt, b));
  EXPECT_TRUE(b.Satisfies(CmpOp::kGe, b));
}

TEST(ValueTest, BottomSatisfiesOnlyIdentityEquality) {
  Value bot = Value::Bottom();
  EXPECT_TRUE(bot.Satisfies(CmpOp::kEq, Value::Bottom()));
  EXPECT_FALSE(bot.Satisfies(CmpOp::kEq, Value::Int(0)));
  EXPECT_TRUE(bot.Satisfies(CmpOp::kNe, Value::Int(0)));
  // Ordering against ⊥ is always false.
  EXPECT_FALSE(bot.Satisfies(CmpOp::kLt, Value::Int(10)));
  EXPECT_FALSE(Value::Int(10).Satisfies(CmpOp::kGt, bot));
}

TEST(ValueTest, MixedStringNumberComparisons) {
  EXPECT_FALSE(Value::String("1").Satisfies(CmpOp::kEq, Value::Int(1)));
  EXPECT_TRUE(Value::String("1").Satisfies(CmpOp::kNe, Value::Int(1)));
  EXPECT_FALSE(Value::String("1").Satisfies(CmpOp::kLt, Value::Int(2)));
}

TEST(ValueTest, HashDistinguishesKinds) {
  std::unordered_set<Value> set;
  set.insert(Value::Bottom());
  set.insert(Value::Question());
  set.insert(Value::Int(0));
  set.insert(Value::String("0"));
  EXPECT_EQ(set.size(), 4u);
  EXPECT_TRUE(set.count(Value::Bottom()));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::String("x").ToString(), "'x'");
  EXPECT_EQ(Value::Question().ToString(), "?");
  EXPECT_EQ(Value::Bottom().ToString(), "\xe2\x8a\xa5");
}

TEST(ValueTest, ValueIs16Bytes) {
  EXPECT_LE(sizeof(Value), 16u);
}

}  // namespace
}  // namespace maywsd::rel
