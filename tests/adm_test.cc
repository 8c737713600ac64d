#include <gtest/gtest.h>

#include <random>

#include "adm/adm_parser.h"
#include "adm/serde.h"
#include "adm/temporal.h"
#include "adm/type.h"
#include "adm/value.h"

namespace asterix {
namespace adm {
namespace {

// ---------------------------------------------------------------------------
// Value semantics
// ---------------------------------------------------------------------------

TEST(ValueTest, TagsAndAccessors) {
  EXPECT_TRUE(Value::Missing().IsMissing());
  EXPECT_TRUE(Value::Null().IsNull());
  EXPECT_TRUE(Value::Null().IsUnknown());
  EXPECT_EQ(Value::Int32(7).AsInt(), 7);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Date(100).tag(), TypeTag::kDate);
  EXPECT_EQ(Value::Point(1, 2).AsPoints()[0].x, 1.0);
}

TEST(ValueTest, CrossWidthNumericEquality) {
  EXPECT_TRUE(Value::Int32(5).Equals(Value::Int64(5)));
  EXPECT_TRUE(Value::Int8(5).Equals(Value::Double(5.0)));
  EXPECT_EQ(Value::Int32(5).Hash(), Value::Int64(5).Hash());
  EXPECT_EQ(Value::Int64(5).Hash(), Value::Double(5.0).Hash());
  EXPECT_FALSE(Value::Int64(5).Equals(Value::Double(5.5)));
}

TEST(ValueTest, TotalOrderAcrossFamilies) {
  // MISSING < NULL < boolean < numeric < string.
  EXPECT_LT(Value::Missing().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Null().Compare(Value::Boolean(false)), 0);
  EXPECT_LT(Value::Boolean(true).Compare(Value::Int64(0)), 0);
  EXPECT_LT(Value::Int64(999).Compare(Value::String("")), 0);
}

TEST(ValueTest, RecordFieldOrderInsensitiveEquality) {
  Value a = Value::Record({{"x", Value::Int64(1)}, {"y", Value::Int64(2)}});
  Value b = Value::Record({{"y", Value::Int64(2)}, {"x", Value::Int64(1)}});
  EXPECT_TRUE(a.Equals(b));
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(ValueTest, GetFieldOnNonRecordIsMissing) {
  EXPECT_TRUE(Value::Int64(1).GetField("x").IsMissing());
  EXPECT_TRUE(Value::Record({}).GetField("absent").IsMissing());
}

TEST(ValueTest, RectangleNormalizesCorners) {
  Value r = Value::Rectangle({5, 6}, {1, 2});
  EXPECT_EQ(r.AsPoints()[0].x, 1);
  EXPECT_EQ(r.AsPoints()[1].y, 6);
}

TEST(ValueTest, ToStringRendersAdmSyntax) {
  EXPECT_EQ(Value::Bag({Value::Int64(1)}).ToString(), "{{ 1 }}");
  EXPECT_EQ(Value::Datetime(0).ToString(),
            "datetime(\"1970-01-01T00:00:00.000Z\")");
  EXPECT_EQ(Value::Record({{"a", Value::Null()}}).ToString(),
            "{ \"a\": null }");
  EXPECT_EQ(Value::Point(1.5, -2).ToString(), "point(\"1.5,-2\")");
}

// ---------------------------------------------------------------------------
// Temporal
// ---------------------------------------------------------------------------

TEST(TemporalTest, CivilRoundTrip) {
  for (int64_t days : {-100000, -1, 0, 1, 365, 11323, 20000}) {
    int y, m, d;
    CivilFromDays(days, &y, &m, &d);
    EXPECT_EQ(DaysFromCivil(y, m, d), days);
  }
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(DaysFromCivil(2014, 1, 1), 16071);
}

TEST(TemporalTest, ParseAndFormatDatetime) {
  int64_t ms;
  ASSERT_TRUE(ParseDatetime("2014-02-20T09:30:15.250Z", &ms).ok());
  EXPECT_EQ(FormatDatetime(ms), "2014-02-20T09:30:15.250Z");
  // Timezone offsets normalize to UTC.
  int64_t ms2;
  ASSERT_TRUE(ParseDatetime("2014-02-20T01:30:15-08:00", &ms2).ok());
  EXPECT_EQ(FormatDatetime(ms2), "2014-02-20T09:30:15.000Z");
}

TEST(TemporalTest, RejectsMalformedDates) {
  int32_t days;
  EXPECT_FALSE(ParseDate("2014-13-01", &days).ok());
  EXPECT_FALSE(ParseDate("2014-02-30", &days).ok());
  EXPECT_FALSE(ParseDate("garbage", &days).ok());
  // Leap years.
  EXPECT_TRUE(ParseDate("2012-02-29", &days).ok());
  EXPECT_FALSE(ParseDate("2013-02-29", &days).ok());
}

TEST(TemporalTest, DurationParsing) {
  int32_t months;
  int64_t millis;
  ASSERT_TRUE(ParseDuration("P1Y2M3DT4H5M6S", &months, &millis).ok());
  EXPECT_EQ(months, 14);
  EXPECT_EQ(millis, ((3 * 24 + 4) * 3600 + 5 * 60 + 6) * 1000LL);
  ASSERT_TRUE(ParseDuration("P30D", &months, &millis).ok());
  EXPECT_EQ(months, 0);
  EXPECT_EQ(millis, 30LL * 24 * 3600 * 1000);
  ASSERT_TRUE(ParseDuration("-P1M", &months, &millis).ok());
  EXPECT_EQ(months, -1);
}

TEST(TemporalTest, MonthArithmeticClampsDays) {
  // Jan 31 + 1 month = Feb 28 (non-leap).
  int64_t jan31 = DaysFromCivil(2013, 1, 31) * 86400000LL;
  int64_t result = AddDurationToDatetime(jan31, 1, 0);
  int y, m, d;
  CivilFromDays(result / 86400000LL, &y, &m, &d);
  EXPECT_EQ(m, 2);
  EXPECT_EQ(d, 28);
}

// ---------------------------------------------------------------------------
// ADM text parsing
// ---------------------------------------------------------------------------

TEST(AdmParserTest, ParsesJsonSuperset) {
  Value v;
  ASSERT_TRUE(ParseAdm(R"({ "a": 1, "b": [1, 2.5], "c": {{ "x" }},
                            "d": null, "e": true })",
                       &v)
                  .ok());
  EXPECT_EQ(v.GetField("a").AsInt(), 1);
  EXPECT_EQ(v.GetField("b").AsList()[1].AsDouble(), 2.5);
  EXPECT_EQ(v.GetField("c").tag(), TypeTag::kBag);
  EXPECT_TRUE(v.GetField("d").IsNull());
}

TEST(AdmParserTest, ParsesConstructors) {
  Value v;
  ASSERT_TRUE(ParseAdm(R"({ "t": datetime("2014-01-01T00:00:00"),
                            "p": point("1.5,2.5"),
                            "d": duration("P1Y"),
                            "dt": date("2010-06-08") })",
                       &v)
                  .ok());
  EXPECT_EQ(v.GetField("t").tag(), TypeTag::kDatetime);
  EXPECT_EQ(v.GetField("p").AsPoints()[0].y, 2.5);
  EXPECT_EQ(v.GetField("d").AsInt(), 12);
  EXPECT_EQ(v.GetField("dt").tag(), TypeTag::kDate);
}

TEST(AdmParserTest, UnquotedFieldNamesAndSuffixes) {
  Value v;
  ASSERT_TRUE(ParseAdm("{ id: 42i32, weight: 1.5f }", &v).ok());
  EXPECT_EQ(v.GetField("id").tag(), TypeTag::kInt32);
  EXPECT_EQ(v.GetField("weight").tag(), TypeTag::kFloat);
}

TEST(AdmParserTest, RejectsGarbage) {
  Value v;
  EXPECT_FALSE(ParseAdm("{ \"a\": }", &v).ok());
  EXPECT_FALSE(ParseAdm("{ \"a\": 1 } trailing", &v).ok());
  EXPECT_FALSE(ParseAdm("nope(", &v).ok());
  EXPECT_FALSE(ParseAdm("[1, 2", &v).ok());
}

// As in JSON, a raw control byte inside a string is an error, while its
// \u escape still decodes.
TEST(AdmParserTest, StringsRejectRawControlBytes) {
  Value v;
  EXPECT_FALSE(ParseAdm("{ \"a\": \"x\x01y\" }", &v).ok());
  EXPECT_FALSE(ParseAdm("\"tab\there\"", &v).ok());
  ASSERT_TRUE(ParseAdm("{ \"a\": \"x\\u0001y\" }", &v).ok());
  EXPECT_EQ(v.GetField("a").AsString(), std::string("x\x01y"));
}

TEST(AdmParserTest, SequenceParsing) {
  std::vector<Value> out;
  ASSERT_TRUE(ParseAdmSequence("{\"a\":1}\n{\"a\":2}\n{\"a\":3}", &out).ok());
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].GetField("a").AsInt(), 3);
}

// ---------------------------------------------------------------------------
// Type validation
// ---------------------------------------------------------------------------

class TypeValidationTest : public ::testing::Test {
 protected:
  DatatypePtr MakeUserType(bool open) {
    return Datatype::MakeRecord(
        "T",
        {{"id", Datatype::Primitive(TypeTag::kInt64), false},
         {"name", Datatype::Primitive(TypeTag::kString), false},
         {"age", Datatype::Primitive(TypeTag::kInt64), true}},
        open);
  }
};

TEST_F(TypeValidationTest, OpenAllowsExtraFields) {
  Value v = Value::Record({{"id", Value::Int64(1)},
                           {"name", Value::String("x")},
                           {"extra", Value::Boolean(true)}});
  EXPECT_TRUE(MakeUserType(true)->Validate(v).ok());
  EXPECT_FALSE(MakeUserType(false)->Validate(v).ok());
}

TEST_F(TypeValidationTest, RequiredFieldEnforced) {
  Value v = Value::Record({{"id", Value::Int64(1)}});
  EXPECT_FALSE(MakeUserType(true)->Validate(v).ok());
}

TEST_F(TypeValidationTest, OptionalFieldMayBeAbsentOrNull) {
  Value absent =
      Value::Record({{"id", Value::Int64(1)}, {"name", Value::String("x")}});
  Value with_null = Value::Record({{"id", Value::Int64(1)},
                                   {"name", Value::String("x")},
                                   {"age", Value::Null()}});
  EXPECT_TRUE(MakeUserType(false)->Validate(absent).ok());
  EXPECT_TRUE(MakeUserType(false)->Validate(with_null).ok());
}

TEST_F(TypeValidationTest, IntegerWidening) {
  Value v = Value::Record({{"id", Value::Int32(1)},  // int32 into int64 slot
                           {"name", Value::String("x")}});
  EXPECT_TRUE(MakeUserType(false)->Validate(v).ok());
  Value bad = Value::Record({{"id", Value::String("1")},
                             {"name", Value::String("x")}});
  EXPECT_FALSE(MakeUserType(false)->Validate(bad).ok());
}

TEST_F(TypeValidationTest, DuplicateFieldsRejected) {
  Value v = Value::Record({{"id", Value::Int64(1)},
                           {"name", Value::String("a")},
                           {"name", Value::String("b")}});
  EXPECT_FALSE(MakeUserType(true)->Validate(v).ok());
}

// ---------------------------------------------------------------------------
// Serde: property-style roundtrips over generated values
// ---------------------------------------------------------------------------

Value RandomValue(std::mt19937* rng, int depth) {
  switch ((*rng)() % (depth > 2 ? 9 : 17)) {
    case 0: return Value::Null();
    case 1: return Value::Boolean((*rng)() % 2 == 0);
    case 2: return Value::Int64(static_cast<int64_t>((*rng)()) - (1u << 31));
    case 3: return Value::Double(((*rng)() % 10000) / 7.0);
    case 4: return Value::String(std::string((*rng)() % 20, 'a' + (*rng)() % 26));
    case 5: return Value::Datetime(static_cast<int64_t>((*rng)()) * 1000);
    case 6: return Value::Date(static_cast<int32_t>((*rng)() % 40000));
    case 7: return Value::Point(((*rng)() % 1000) / 10.0, ((*rng)() % 1000) / 10.0);
    case 8: return Value::Duration(static_cast<int32_t>((*rng)() % 100),
                                   (*rng)() % 100000);
    case 9: {
      std::vector<Value> items;
      size_t n = (*rng)() % 4;
      for (size_t i = 0; i < n; ++i) items.push_back(RandomValue(rng, depth + 1));
      return Value::OrderedList(std::move(items));
    }
    case 10: {
      std::vector<Value> items;
      size_t n = (*rng)() % 4;
      for (size_t i = 0; i < n; ++i) items.push_back(RandomValue(rng, depth + 1));
      return Value::Bag(std::move(items));
    }
    case 11: {
      std::vector<std::pair<std::string, Value>> fields;
      size_t n = (*rng)() % 4;
      for (size_t i = 0; i < n; ++i) {
        fields.emplace_back("f" + std::to_string(i), RandomValue(rng, depth + 1));
      }
      return Value::Record(std::move(fields));
    }
    case 12:
      return Value::Line({((*rng)() % 100) / 3.0, ((*rng)() % 100) / 3.0},
                         {((*rng)() % 100) / 3.0, ((*rng)() % 100) / 3.0});
    case 13:
      return Value::Rectangle({((*rng)() % 100) * 1.0, ((*rng)() % 100) * 1.0},
                              {((*rng)() % 100) * 1.0, ((*rng)() % 100) * 1.0});
    case 14:
      return Value::Circle({((*rng)() % 100) * 1.0, ((*rng)() % 100) * 1.0},
                           1.0 + (*rng)() % 9);
    case 15: {
      std::vector<adm::GeoPoint> pts;
      size_t n = 3 + (*rng)() % 4;
      for (size_t i = 0; i < n; ++i) {
        pts.push_back({((*rng)() % 100) * 1.0, ((*rng)() % 100) * 1.0});
      }
      return Value::Polygon(std::move(pts));
    }
    default:
      return Value::Interval(TypeTag::kDatetime,
                             static_cast<int64_t>((*rng)() % 100000),
                             static_cast<int64_t>(100000 + (*rng)() % 100000));
  }
}

class SerdeRoundTripTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SerdeRoundTripTest, SchemalessRoundTripPreservesValue) {
  std::mt19937 rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Value v = RandomValue(&rng, 0);
    BytesWriter w;
    SerializeValue(v, &w);
    BytesReader r(w.data());
    Value back;
    ASSERT_TRUE(DeserializeValue(&r, &back).ok());
    EXPECT_TRUE(v.Equals(back)) << v.ToString() << " vs " << back.ToString();
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST_P(SerdeRoundTripTest, TextRoundTripPreservesValue) {
  std::mt19937 rng(GetParam() + 1000);
  for (int i = 0; i < 30; ++i) {
    Value v = RandomValue(&rng, 0);
    if (v.IsMissing()) continue;
    Value back;
    ASSERT_TRUE(ParseAdm(v.ToString(), &back).ok()) << v.ToString();
    // Doubles may lose a little precision through text; compare rendering.
    EXPECT_EQ(v.ToString(), back.ToString());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeRoundTripTest,
                         ::testing::Values(1u, 42u, 20140704u, 777u));

TEST(SerdeTest, TypedSmallerThanSchemaless) {
  auto type = Datatype::MakeRecord(
      "T",
      {{"id", Datatype::Primitive(TypeTag::kInt64), false},
       {"name", Datatype::Primitive(TypeTag::kString), false},
       {"when", Datatype::Primitive(TypeTag::kDatetime), false}},
      /*open=*/false);
  Value v = Value::Record({{"id", Value::Int64(42)},
                           {"name", Value::String("x")},
                           {"when", Value::Datetime(1000000)}});
  BytesWriter typed, schemaless;
  ASSERT_TRUE(SerializeTyped(v, type, &typed).ok());
  SerializeValue(v, &schemaless);
  EXPECT_LT(typed.size(), schemaless.size());

  BytesReader r(typed.data());
  Value back;
  ASSERT_TRUE(DeserializeTyped(&r, type, &back).ok());
  EXPECT_TRUE(v.Equals(back));
}

TEST(SerdeTest, TypedOpenTailRoundTrip) {
  auto type = Datatype::MakeRecord(
      "T", {{"id", Datatype::Primitive(TypeTag::kInt64), false}}, /*open=*/true);
  Value v = Value::Record({{"id", Value::Int64(1)},
                           {"job-kind", Value::String("part-time")},
                           {"nested", Value::Record({{"a", Value::Int64(2)}})}});
  BytesWriter w;
  ASSERT_TRUE(SerializeTyped(v, type, &w).ok());
  BytesReader r(w.data());
  Value back;
  ASSERT_TRUE(DeserializeTyped(&r, type, &back).ok());
  EXPECT_TRUE(v.Equals(back));
}

TEST(SerdeTest, MissingRequiredFieldFailsTypedSerialization) {
  auto type = Datatype::MakeRecord(
      "T", {{"id", Datatype::Primitive(TypeTag::kInt64), false}}, false);
  Value v = Value::Record({});
  BytesWriter w;
  EXPECT_FALSE(SerializeTyped(v, type, &w).ok());
}

// ---------------------------------------------------------------------------
// Projected decoding: equals deserialize-then-project, and never reads past
// the end of a truncated payload
// ---------------------------------------------------------------------------

DatatypePtr ProjectedTestType(bool open) {
  auto inner = Datatype::MakeRecord(
      "Inner",
      {{"x", Datatype::Primitive(TypeTag::kInt32), false},
       {"tags",
        Datatype::MakeOrderedList(Datatype::Primitive(TypeTag::kString)),
        true}},
      /*open=*/true);
  return Datatype::MakeRecord(
      open ? "OpenP" : "ClosedP",
      {{"id", Datatype::Primitive(TypeTag::kInt64), false},
       {"name", Datatype::Primitive(TypeTag::kString), true},
       {"score", Datatype::Primitive(TypeTag::kDouble), true},
       {"since", Datatype::Primitive(TypeTag::kDatetime), true},
       {"loc", Datatype::Primitive(TypeTag::kPoint), true},
       {"area", Datatype::Primitive(TypeTag::kPolygon), true},
       {"flag", Datatype::Primitive(TypeTag::kBoolean), true},
       {"nested", inner, true},
       {"nums", Datatype::MakeBag(Datatype::Primitive(TypeTag::kInt64)), true},
       {"anything", Datatype::Any(), true}},
      open);
}

const std::vector<std::string>& ProjectedTestNames() {
  static const std::vector<std::string> names = {
      "id",   "name",   "score", "since",    "loc", "area", "flag", "nested",
      "nums", "anything", "o0",  "o1",       "o2",  "o3",   "nope"};
  return names;
}

// A record of ProjectedTestType: optional fields absent, null or present;
// open fields (open type only) with random self-describing values.
Value RandomProjectedRecord(std::mt19937* rng, bool open) {
  RecordBuilder b;
  b.Add("id", Value::Int64(static_cast<int64_t>((*rng)() % 100000)));
  auto optional = [&](const std::string& name, const std::function<Value()>& make) {
    switch ((*rng)() % 4) {
      case 0: return;
      case 1: b.Add(name, Value::Null()); return;
      default: b.Add(name, make()); return;
    }
  };
  optional("name", [&] { return Value::String(std::string((*rng)() % 30, 'n')); });
  optional("score", [&] { return Value::Double(((*rng)() % 1000) / 8.0); });
  optional("since", [&] { return Value::Datetime(static_cast<int64_t>((*rng)()) * 1000); });
  optional("loc", [&] { return Value::Point((*rng)() % 90, (*rng)() % 90); });
  optional("area", [&] {
    std::vector<GeoPoint> pts;
    for (size_t i = 0, n = 3 + (*rng)() % 3; i < n; ++i) {
      pts.push_back({((*rng)() % 100) * 1.0, ((*rng)() % 100) * 1.0});
    }
    return Value::Polygon(std::move(pts));
  });
  optional("flag", [&] { return Value::Boolean((*rng)() % 2 == 0); });
  optional("nested", [&] {
    RecordBuilder inner;
    inner.Add("x", Value::Int32(static_cast<int32_t>((*rng)() % 500)));
    if ((*rng)() % 2 == 0) {
      std::vector<Value> tags;
      for (size_t i = 0, n = (*rng)() % 4; i < n; ++i) {
        tags.push_back(Value::String("t" + std::to_string((*rng)() % 50)));
      }
      inner.Add("tags", Value::OrderedList(std::move(tags)));
    }
    if ((*rng)() % 3 == 0) inner.Add("y", RandomValue(rng, 1));
    return inner.Build();
  });
  optional("nums", [&] {
    std::vector<Value> nums;
    for (size_t i = 0, n = (*rng)() % 5; i < n; ++i) {
      nums.push_back(Value::Int64(static_cast<int64_t>((*rng)() % 1000) - 500));
    }
    return Value::Bag(std::move(nums));
  });
  optional("anything", [&] {
    Value v = RandomValue(rng, 1);
    return v.IsNull() ? Value::String("not-null") : v;
  });
  if (open) {
    for (int i = 0; i < 4; ++i) {
      if ((*rng)() % 2 == 0) b.Add("o" + std::to_string(i), RandomValue(rng, 1));
    }
  }
  return b.Build();
}

// A projection under test: whole records, or the named top-level fields.
struct TestProjection {
  bool all_fields = false;
  std::vector<std::string> fields;

  std::string ToString() const {
    if (all_fields) return "all";
    std::string out = "project=[";
    for (size_t i = 0; i < fields.size(); ++i) {
      out += (i ? "," : "") + fields[i];
    }
    return out + "]";
  }
  Value Apply(const Value& v) const {
    return KeepFields(v, all_fields, fields);
  }
};

std::vector<TestProjection> ProjectionsUnderTest(std::mt19937* rng) {
  const auto& names = ProjectedTestNames();
  std::vector<TestProjection> out = {{true, {}}, {false, {}}, {false, names}};
  for (int i = 0; i < 4; ++i) {
    std::vector<std::string> pick;
    for (size_t j = 0, n = 1 + (*rng)() % 3; j < n; ++j) {
      pick.push_back(names[(*rng)() % names.size()]);
    }
    out.push_back({false, std::move(pick)});
  }
  return out;
}

ProjectedDecoder DecoderFor(const DatatypePtr& type,
                            const TestProjection& proj) {
  return ProjectedDecoder(type, proj.all_fields, proj.fields);
}

TEST(ProjectedDecodeTest, EqualsDeserializeThenProject) {
  std::mt19937 rng(2024);
  for (bool open : {true, false}) {
    DatatypePtr type = ProjectedTestType(open);
    for (int i = 0; i < 300; ++i) {
      Value rec = RandomProjectedRecord(&rng, open);
      BytesWriter w;
      ASSERT_TRUE(SerializeTyped(rec, type, &w).ok()) << rec.ToString();
      BytesReader full_r(w.data());
      Value full;
      ASSERT_TRUE(DeserializeTyped(&full_r, type, &full).ok());
      ASSERT_EQ(full_r.remaining(), 0u);
      BytesReader skip_r(w.data());
      ASSERT_TRUE(SkipTyped(&skip_r, type).ok());
      EXPECT_EQ(skip_r.remaining(), 0u);

      for (const auto& proj : ProjectionsUnderTest(&rng)) {
        BytesReader r(w.data());
        Value got;
        ASSERT_TRUE(DecoderFor(type, proj).Decode(&r, &got).ok());
        Value want = proj.Apply(full);
        EXPECT_EQ(got.ToString(), want.ToString()) << proj.ToString();
        EXPECT_TRUE(got.Equals(want));
      }
    }
  }
}

TEST(ProjectedDecodeTest, SchemalessRecordsProjectByName) {
  std::mt19937 rng(99);
  for (int i = 0; i < 200; ++i) {
    Value rec = RandomProjectedRecord(&rng, /*open=*/true);
    Value v = i % 5 == 0 ? RandomValue(&rng, 0) : rec;
    BytesWriter w;
    SerializeValue(v, &w);
    for (const auto& proj : ProjectionsUnderTest(&rng)) {
      BytesReader r(w.data());
      Value got;
      ASSERT_TRUE(DecoderFor(Datatype::Any(), proj).Decode(&r, &got).ok());
      EXPECT_EQ(got.ToString(), proj.Apply(v).ToString());
    }
    BytesReader skip_r(w.data());
    ASSERT_TRUE(SkipValue(&skip_r).ok());
    EXPECT_EQ(skip_r.remaining(), 0u);
  }
}

TEST(ProjectedDecodeTest, EveryTruncationIsCorruption) {
  std::mt19937 rng(7);
  for (bool open : {true, false}) {
    DatatypePtr type = ProjectedTestType(open);
    for (int i = 0; i < 40; ++i) {
      Value rec = RandomProjectedRecord(&rng, open);
      BytesWriter w;
      ASSERT_TRUE(SerializeTyped(rec, type, &w).ok());
      const std::vector<uint8_t>& bytes = w.data();
      std::vector<TestProjection> projs = ProjectionsUnderTest(&rng);
      std::vector<Value> whole(projs.size());
      for (size_t p = 0; p < projs.size(); ++p) {
        BytesReader r(bytes);
        ASSERT_TRUE(DecoderFor(type, projs[p]).Decode(&r, &whole[p]).ok());
      }
      for (size_t len = 0; len < bytes.size(); ++len) {
        // An exact-size heap copy, so a read past its end is a sanitizer
        // report rather than a silent read of the rest of the payload.
        std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
        const uint8_t* data = prefix.empty() ? nullptr : prefix.data();
        Value v;
        BytesReader d(data, len);
        EXPECT_EQ(DeserializeTyped(&d, type, &v).code(), StatusCode::kCorruption)
            << "len " << len;
        BytesReader s(data, len);
        EXPECT_EQ(SkipTyped(&s, type).code(), StatusCode::kCorruption)
            << "len " << len;
        for (size_t p = 0; p < projs.size(); ++p) {
          BytesReader r(data, len);
          Status st = DecoderFor(type, projs[p]).Decode(&r, &v);
          if (projs[p].all_fields || projs[p].fields.size() > 10) {
            // Reads every byte, so any truncation shows.
            EXPECT_EQ(st.code(), StatusCode::kCorruption) << "len " << len;
          } else if (st.ok()) {
            // Stopped before the cut: the answer of the whole payload.
            EXPECT_EQ(v.ToString(), whole[p].ToString()) << "len " << len;
          } else {
            EXPECT_EQ(st.code(), StatusCode::kCorruption) << "len " << len;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace adm
}  // namespace asterix
