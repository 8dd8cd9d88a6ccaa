// Unit tests for the record model: Value, Record helpers, serialization,
// Schema.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "dataflow/record.h"
#include "dataflow/schema.h"
#include "dataflow/value.h"

namespace flinkless::dataflow {
namespace {

// ----------------------------------------------------------------- Value --

TEST(ValueTest, DefaultIsInt64Zero) {
  Value v;
  EXPECT_TRUE(v.is_int64());
  EXPECT_EQ(v.AsInt64(), 0);
}

TEST(ValueTest, TypesAndAccessors) {
  Value i(int64_t{7});
  Value d(0.5);
  Value s("hello");
  EXPECT_EQ(i.type(), ValueType::kInt64);
  EXPECT_EQ(d.type(), ValueType::kDouble);
  EXPECT_EQ(s.type(), ValueType::kString);
  EXPECT_EQ(i.AsInt64(), 7);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 0.5);
  EXPECT_EQ(s.AsString(), "hello");
}

TEST(ValueTest, IntPromotesToInt64) {
  Value v(3);
  EXPECT_TRUE(v.is_int64());
  EXPECT_EQ(v.AsInt64(), 3);
}

TEST(ValueTest, AsNumericWidens) {
  EXPECT_DOUBLE_EQ(Value(int64_t{4}).AsNumeric(), 4.0);
  EXPECT_DOUBLE_EQ(Value(2.5).AsNumeric(), 2.5);
}

TEST(ValueTest, EqualityIsTypeAware) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));  // int64 1 != double 1.0
  EXPECT_NE(Value("1"), Value(int64_t{1}));
  EXPECT_EQ(Value("a"), Value("a"));
}

TEST(ValueTest, OrderingWithinAndAcrossTypes) {
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value(1.0), Value(2.0));
  EXPECT_LT(Value("a"), Value("b"));
  // Cross-type: int64 < double < string by type tag.
  EXPECT_LT(Value(int64_t{9}), Value(0.0));
  EXPECT_LT(Value(9.0), Value(""));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(int64_t{5}).Hash());
  EXPECT_EQ(Value("xy").Hash(), Value("xy").Hash());
  EXPECT_NE(Value(int64_t{5}).Hash(), Value(int64_t{6}).Hash());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("x").ToString(), "\"x\"");
  EXPECT_EQ(Value(0.25).ToString(), "0.25");
}

TEST(ValueTypeTest, Names) {
  EXPECT_EQ(ValueTypeName(ValueType::kInt64), "int64");
  EXPECT_EQ(ValueTypeName(ValueType::kDouble), "double");
  EXPECT_EQ(ValueTypeName(ValueType::kString), "string");
}

// Reference semantics: a std::variant<int64_t, double, std::string> compared
// and hashed alternative-wise. The tagged union must agree with it on every
// type pair, NaN and signed zeros included.
using VariantValue = std::variant<int64_t, double, std::string>;

uint64_t VariantHash(const VariantValue& v) {
  switch (v.index()) {
    case 0:
      return Mix64(static_cast<uint64_t>(std::get<int64_t>(v)));
    case 1:
      return HashDouble(std::get<double>(v));
    default:
      return HashString(std::get<std::string>(v));
  }
}

Value FromVariant(const VariantValue& v) {
  return std::visit([](const auto& x) { return Value(x); }, v);
}

TEST(ValueTest, MatchesVariantSemanticsAcrossTypePairs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<VariantValue> samples = {
      std::numeric_limits<int64_t>::min(), int64_t{-1}, int64_t{0},
      int64_t{1}, std::numeric_limits<int64_t>::max(),
      -inf, -1.5, -0.0, 0.0, 1.5, inf, nan,
      std::string(), std::string("a"), std::string("ab"), std::string("b")};
  for (const VariantValue& a : samples) {
    const Value va = FromVariant(a);
    EXPECT_EQ(static_cast<size_t>(va.type()), a.index());
    EXPECT_EQ(va.Hash(), VariantHash(a)) << va.ToString();
    for (const VariantValue& b : samples) {
      const Value vb = FromVariant(b);
      EXPECT_EQ(va == vb, a == b) << va.ToString() << " == " << vb.ToString();
      EXPECT_EQ(va < vb, a < b) << va.ToString() << " < " << vb.ToString();
      if (va == vb) {
        EXPECT_EQ(va.Hash(), vb.Hash()) << va.ToString();
      }
    }
  }
  EXPECT_EQ(Value(-0.0), Value(0.0));
  EXPECT_NE(Value(nan), Value(nan));
}

TEST(ValueTest, CopyMoveAndSelfAssignmentOfStrings) {
  Value s("payload");
  Value copy = s;
  EXPECT_EQ(copy, Value("payload"));
  EXPECT_EQ(s, Value("payload"));

  Value moved = std::move(s);
  EXPECT_EQ(moved.AsString(), "payload");
  // A moved-from value is int64 0 and reusable.
  EXPECT_TRUE(s.is_int64());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(s.AsInt64(), 0);
  s = "again";
  EXPECT_EQ(s.AsString(), "again");

  Value& alias = s;
  s = alias;
  EXPECT_EQ(s.AsString(), "again");
  s = std::move(alias);
  EXPECT_EQ(s.AsString(), "again");

  // Assignment across types releases or takes the string.
  copy = Value(2.5);
  EXPECT_EQ(copy.AsDouble(), 2.5);
  copy = moved;
  EXPECT_EQ(copy.AsString(), "payload");
  copy = Value(int64_t{7});
  EXPECT_EQ(copy.AsInt64(), 7);
}

// ---------------------------------------------------------------- Record --

// Builds a record of `arity` fields cycling int64, double and string.
Record MixedRecord(int arity) {
  Record r;
  for (int i = 0; i < arity; ++i) {
    switch (i % 3) {
      case 0:
        r.push_back(Value(int64_t{i}));
        break;
      case 1:
        r.emplace_back(i + 0.5);
        break;
      default:
        r.push_back(Value("field " + std::to_string(i)));
        break;
    }
  }
  return r;
}

TEST(RecordTest, AritiesAcrossTheInlineBoundary) {
  for (int arity : {0, 3, 4, 10}) {
    SCOPED_TRACE("arity " + std::to_string(arity));
    Record r = MixedRecord(arity);
    ASSERT_EQ(r.size(), static_cast<size_t>(arity));
    EXPECT_EQ(r.empty(), arity == 0);
    for (int i = 0; i < arity; ++i) {
      EXPECT_EQ(static_cast<int>(r[i].type()), i % 3) << "field " << i;
    }

    Record copy = r;
    EXPECT_EQ(copy, r);
    Record moved = std::move(copy);
    EXPECT_EQ(moved, r);
    // A moved-from record is empty and reusable.
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    copy.push_back(Value("reused"));
    EXPECT_EQ(copy, Record{Value("reused")});

    std::vector<uint8_t> bytes;
    SerializeRecord(r, &bytes);
    size_t offset = 0;
    auto back = DeserializeRecord(bytes, &offset);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, r);
  }
}

TEST(RecordTest, GrowsPastInlineCapacityByAppending) {
  Record r;
  for (int64_t i = 0; i < 10; ++i) {
    r.push_back(Value(i));
    // Appending a value of the record itself must survive the spill.
    r.push_back(r[0]);
  }
  ASSERT_EQ(r.size(), 20u);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(r[2 * i].AsInt64(), i);
    EXPECT_EQ(r[2 * i + 1].AsInt64(), 0);
  }
}

TEST(RecordTest, CopyMoveAndSelfAssignmentWithStrings) {
  const Record inline_row = MixedRecord(3);
  const Record heap_row = MixedRecord(10);
  for (const Record* from : {&inline_row, &heap_row}) {
    for (const Record* to : {&inline_row, &heap_row}) {
      Record dst = *to;
      dst = *from;
      EXPECT_EQ(dst, *from);
      Record src = *from;
      Record dst2 = *to;
      dst2 = std::move(src);
      EXPECT_EQ(dst2, *from);
      EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move)
      src = *to;
      EXPECT_EQ(src, *to);
    }
    Record self = *from;
    Record& alias = self;
    self = alias;
    EXPECT_EQ(self, *from);
    self = std::move(alias);
    EXPECT_EQ(self, *from);
  }
}

TEST(RecordTest, ReserveAndClear) {
  Record r{Value(int64_t{1}), Value("b")};
  r.reserve(8);  // moves the values to the heap
  EXPECT_EQ(r, (Record{Value(int64_t{1}), Value("b")}));
  r.clear();
  EXPECT_TRUE(r.empty());
  r.push_back(Value("c"));
  EXPECT_EQ(r, Record{Value("c")});
}

TEST(RecordTest, MakeRecordMixedTypes) {
  Record r = MakeRecord(int64_t{1}, 2.5, "three");
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].AsInt64(), 1);
  EXPECT_DOUBLE_EQ(r[1].AsDouble(), 2.5);
  EXPECT_EQ(r[2].AsString(), "three");
}

TEST(RecordTest, ToStringFormat) {
  EXPECT_EQ(RecordToString(MakeRecord(int64_t{1}, "a")), "(1, \"a\")");
  EXPECT_EQ(RecordToString({}), "()");
}

TEST(RecordTest, HashKeyDependsOnlyOnKeyColumns) {
  Record a = MakeRecord(int64_t{1}, int64_t{100});
  Record b = MakeRecord(int64_t{1}, int64_t{999});
  EXPECT_EQ(HashKey(a, {0}), HashKey(b, {0}));
  EXPECT_NE(HashKey(a, {0, 1}), HashKey(b, {0, 1}));
}

TEST(RecordTest, HashKeyColumnOrderMatters) {
  Record r = MakeRecord(int64_t{1}, int64_t{2});
  EXPECT_NE(HashKey(r, {0, 1}), HashKey(r, {1, 0}));
}

TEST(RecordTest, HashInt64KeyMatchesHashKeyOnSingleInt64Key) {
  for (int64_t k : {std::numeric_limits<int64_t>::min(), int64_t{-1},
                    int64_t{0}, int64_t{1},
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(HashInt64Key(k), HashKey(MakeRecord(k), {0})) << k;
  }
  Rng rng(2024);
  for (int i = 0; i < 1000; ++i) {
    const auto k = static_cast<int64_t>(rng.Next());
    EXPECT_EQ(HashInt64Key(k), HashKey(MakeRecord(k), {0})) << k;
  }
}

TEST(RecordTest, KeysEqualAcrossDifferentColumns) {
  Record left = MakeRecord(int64_t{7}, "payload");
  Record right = MakeRecord("other", int64_t{7});
  EXPECT_TRUE(KeysEqual(left, {0}, right, {1}));
  EXPECT_FALSE(KeysEqual(left, {0}, right, {0}));
  EXPECT_FALSE(KeysEqual(left, {0}, right, {0, 1}));  // arity mismatch
}

TEST(RecordTest, ExtractKeyProjects) {
  Record r = MakeRecord(int64_t{1}, 2.0, "c");
  Record k = ExtractKey(r, {2, 0});
  ASSERT_EQ(k.size(), 2u);
  EXPECT_EQ(k[0].AsString(), "c");
  EXPECT_EQ(k[1].AsInt64(), 1);
}

TEST(RecordTest, RecordLessLexicographic) {
  EXPECT_TRUE(RecordLess(MakeRecord(int64_t{1}), MakeRecord(int64_t{2})));
  EXPECT_TRUE(RecordLess(MakeRecord(int64_t{1}),
                         MakeRecord(int64_t{1}, int64_t{0})));  // prefix
  EXPECT_FALSE(RecordLess(MakeRecord(int64_t{1}), MakeRecord(int64_t{1})));
}

// --------------------------------------------------------- Serialization --

TEST(SerializationTest, RoundTripSingleRecord) {
  Record r = MakeRecord(int64_t{-5}, 3.25, "text with spaces");
  std::vector<uint8_t> bytes;
  SerializeRecord(r, &bytes);
  size_t offset = 0;
  auto back = DeserializeRecord(bytes, &offset);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, r);
  EXPECT_EQ(offset, bytes.size());
}

TEST(SerializationTest, RoundTripEmptyRecord) {
  std::vector<uint8_t> bytes;
  SerializeRecord({}, &bytes);
  size_t offset = 0;
  auto back = DeserializeRecord(bytes, &offset);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

// Serializes `r` and reads it back, checking the reader consumed every byte.
Record RoundTrip(const Record& r) {
  std::vector<uint8_t> bytes;
  SerializeRecord(r, &bytes);
  size_t offset = 0;
  auto back = DeserializeRecord(bytes, &offset);
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(offset, bytes.size());
  return back.ok() ? *back : Record{};
}

TEST(SerializationTest, TruncatedInputFailsCleanly) {
  std::vector<uint8_t> bytes;
  SerializeRecord(MakeRecord(int64_t{1}, "abcdef"), &bytes);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    size_t offset = 0;
    auto back = DeserializeRecord(truncated, &offset);
    ASSERT_FALSE(back.ok()) << "cut=" << cut;
    EXPECT_TRUE(back.status().IsDataLoss()) << back.status().ToString();
  }
}

TEST(SerializationTest, UnknownTagRejected) {
  // field count = 1, then a bogus tag and eight payload bytes.
  std::vector<uint8_t> bytes = {1, 0, 0, 0, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0};
  size_t offset = 0;
  auto back = DeserializeRecord(bytes, &offset);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsDataLoss()) << back.status().ToString();
}

TEST(SerializationTest, GoldenBytesForMixedRecord) {
  // [u32 count] then per field [u8 tag][payload], little-endian.
  const std::vector<uint8_t> golden = {
      0x03, 0x00, 0x00, 0x00,                                // 3 fields
      0x00, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // int64 -2
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,  // double 0.5
      0x02, 0x02, 0x00, 0x00, 0x00, 'h', 'i'};               // "hi"
  std::vector<uint8_t> bytes;
  SerializeRecord(MakeRecord(int64_t{-2}, 0.5, "hi"), &bytes);
  EXPECT_EQ(bytes, golden);
  size_t offset = 0;
  auto back = DeserializeRecord(golden, &offset);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, MakeRecord(int64_t{-2}, 0.5, "hi"));
}

TEST(SerializationTest, RoundTripEmptyStringFields) {
  // Five bytes per field, the smallest a field can be.
  const Record r = MakeRecord("", "", "", "", "");
  EXPECT_EQ(RoundTrip(r), r);
}

TEST(SerializationTest, HugeFieldCountIsDataLoss) {
  size_t offset = 0;
  auto back = DeserializeRecord({0xff, 0xff, 0xff, 0xff}, &offset);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsDataLoss()) << back.status().ToString();
}

TEST(SerializationTest, NegativeAndExtremeInts) {
  for (int64_t v : {std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max(), int64_t{0}}) {
    EXPECT_EQ(RoundTrip(MakeRecord(v)), MakeRecord(v));
  }
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, ValidateAcceptsMatchingRecord) {
  Schema s = Schema::Of({{"v", ValueType::kInt64}, {"r", ValueType::kDouble}});
  EXPECT_TRUE(s.Validate(MakeRecord(int64_t{1}, 0.5)).ok());
}

TEST(SchemaTest, ValidateRejectsArityMismatch) {
  Schema s = Schema::Of({{"v", ValueType::kInt64}});
  EXPECT_FALSE(s.Validate(MakeRecord(int64_t{1}, int64_t{2})).ok());
}

TEST(SchemaTest, ValidateRejectsTypeMismatch) {
  Schema s = Schema::Of({{"v", ValueType::kInt64}});
  Status st = s.Validate(MakeRecord(0.5));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("'v'"), std::string::npos);
}

TEST(SchemaTest, IndexOf) {
  Schema s = Schema::Of({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  EXPECT_EQ(s.IndexOf("b"), 1);
  EXPECT_EQ(s.IndexOf("zz"), -1);
}

TEST(SchemaTest, ToStringAndEquality) {
  Schema s = Schema::Of({{"v", ValueType::kInt64}, {"r", ValueType::kDouble}});
  EXPECT_EQ(s.ToString(), "(v: int64, r: double)");
  EXPECT_TRUE(s == Schema::Of(
                       {{"v", ValueType::kInt64}, {"r", ValueType::kDouble}}));
  EXPECT_FALSE(s == Schema::Of({{"v", ValueType::kInt64}}));
}

}  // namespace
}  // namespace flinkless::dataflow
