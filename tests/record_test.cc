// Unit tests for the record model: Value, Record helpers, serialization,
// Schema.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

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

// ---------------------------------------------------------------- Record --

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

TEST(SerializationTest, RoundTripManyRecords) {
  std::vector<Record> records;
  for (int64_t i = 0; i < 100; ++i) {
    records.push_back(MakeRecord(i, static_cast<double>(i) * 0.5,
                                 std::string("r").append(std::to_string(i))));
  }
  auto bytes = SerializeRecords(records);
  auto back = DeserializeRecords(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, records);
}

TEST(SerializationTest, RoundTripEmptyVector) {
  auto bytes = SerializeRecords({});
  auto back = DeserializeRecords(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(SerializationTest, SerializedSizeMatchesActual) {
  std::vector<Record> records{MakeRecord(int64_t{1}, 2.0, "abc"),
                              MakeRecord(int64_t{4})};
  EXPECT_EQ(SerializedSize(records), SerializeRecords(records).size());
}

TEST(SerializationTest, TruncatedInputFailsCleanly) {
  auto bytes = SerializeRecords({MakeRecord(int64_t{1}, "abcdef")});
  for (size_t cut : {0UL, 4UL, 9UL, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(DeserializeRecords(truncated).ok()) << "cut=" << cut;
  }
}

TEST(SerializationTest, TrailingGarbageRejected) {
  auto bytes = SerializeRecords({MakeRecord(int64_t{1})});
  bytes.push_back(0xAB);
  auto back = DeserializeRecords(bytes);
  EXPECT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsDataLoss());
}

TEST(SerializationTest, UnknownTagRejected) {
  std::vector<uint8_t> bytes;
  // count = 1 record
  for (int i = 0; i < 8; ++i) bytes.push_back(i == 0 ? 1 : 0);
  // field count = 1
  bytes.push_back(1);
  bytes.push_back(0);
  bytes.push_back(0);
  bytes.push_back(0);
  bytes.push_back(0xFF);  // bogus tag
  EXPECT_FALSE(DeserializeRecords(bytes).ok());
}

TEST(SerializationTest, NegativeAndExtremeInts) {
  std::vector<Record> records{
      MakeRecord(std::numeric_limits<int64_t>::min()),
      MakeRecord(std::numeric_limits<int64_t>::max()), MakeRecord(int64_t{0})};
  auto back = DeserializeRecords(SerializeRecords(records));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, records);
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
