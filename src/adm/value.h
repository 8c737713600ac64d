#ifndef ASTERIX_ADM_VALUE_H_
#define ASTERIX_ADM_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace asterix {
namespace adm {

/// Runtime type tag of an ADM value. ADM is a superset of JSON: it adds the
/// temporal types (date/time/datetime/duration/interval), spatial types
/// (point/line/rectangle/circle/polygon), uuid, bags (unordered lists), and
/// distinguishes MISSING (field absent) from NULL (field present, unknown),
/// following the paper's XQuery-derived treatment of missing information.
enum class TypeTag : uint8_t {
  kMissing = 0,
  kNull = 1,
  kBoolean = 2,
  kInt8 = 3,
  kInt16 = 4,
  kInt32 = 5,
  kInt64 = 6,
  kFloat = 7,
  kDouble = 8,
  kString = 9,
  kDate = 10,      // days since 1970-01-01
  kTime = 11,      // milliseconds since midnight
  kDatetime = 12,  // milliseconds since epoch
  kDuration = 13,  // months + milliseconds
  kYearMonthDuration = 14,
  kDayTimeDuration = 15,
  kInterval = 16,  // [start, end) over date/time/datetime chronons
  kPoint = 17,
  kLine = 18,
  kRectangle = 19,
  kCircle = 20,
  kPolygon = 21,
  kUuid = 22,
  kBag = 23,          // unordered list {{ ... }}
  kOrderedList = 24,  // [ ... ]
  kRecord = 25,
  kAny = 26,  // only used in type descriptions, never on concrete values
};

/// Short lowercase name for a tag ("int64", "record", ...).
const char* TypeTagName(TypeTag tag);

/// True for int8..double.
bool IsNumericTag(TypeTag tag);
/// True for date/time/datetime (the valid interval chronon types).
bool IsTemporalPointTag(TypeTag tag);

/// Rank that orders values of different type families (numerics of any
/// width share one group, and so on). Value::Compare() orders by it first
/// and SerializeNormalizedKey() leads with it, which is what makes
/// serialized-key equality match Compare()==0 in every hash join, group-by
/// and distinct. Inline so key serialization keeps it inlined.
inline uint8_t TypeGroup(TypeTag t) {
  switch (t) {
    case TypeTag::kMissing: return 0;
    case TypeTag::kNull: return 1;
    case TypeTag::kBoolean: return 2;
    case TypeTag::kInt8:
    case TypeTag::kInt16:
    case TypeTag::kInt32:
    case TypeTag::kInt64:
    case TypeTag::kFloat:
    case TypeTag::kDouble: return 3;
    case TypeTag::kString: return 4;
    case TypeTag::kDate: return 5;
    case TypeTag::kTime: return 6;
    case TypeTag::kDatetime: return 7;
    case TypeTag::kDuration:
    case TypeTag::kYearMonthDuration:
    case TypeTag::kDayTimeDuration: return 8;
    case TypeTag::kInterval: return 9;
    case TypeTag::kPoint: return 10;
    case TypeTag::kLine: return 11;
    case TypeTag::kRectangle: return 12;
    case TypeTag::kCircle: return 13;
    case TypeTag::kPolygon: return 14;
    case TypeTag::kUuid: return 15;
    case TypeTag::kBag: return 16;
    case TypeTag::kOrderedList: return 17;
    case TypeTag::kRecord: return 18;
    case TypeTag::kAny: return 19;
  }
  return 20;
}

/// 2-D point; the unit of all spatial payloads.
struct GeoPoint {
  double x = 0;
  double y = 0;
  bool operator==(const GeoPoint& o) const { return x == o.x && y == o.y; }
};

class Value;

/// Field list of a record value, preserving definition order. Lookups are
/// linear: ADM records are small and order preservation matters for output.
struct RecordData {
  std::vector<std::pair<std::string, Value>> fields;
};

/// An immutable ADM value. Values are cheap to copy (heavy payloads are
/// shared) and are the currency of the whole system: the dataflow engine
/// moves tuples of Values, indexes compare them, and functions compute
/// over them.
class Value {
 public:
  /// Default-constructed value is MISSING.
  Value() : tag_(TypeTag::kMissing) {}

  // -- Factories -----------------------------------------------------------
  static Value Missing() { return Value(); }
  static Value Null() { return Scalar(TypeTag::kNull); }
  static Value Boolean(bool b);
  static Value Int8(int8_t v) { return Int(TypeTag::kInt8, v); }
  static Value Int16(int16_t v) { return Int(TypeTag::kInt16, v); }
  static Value Int32(int32_t v) { return Int(TypeTag::kInt32, v); }
  static Value Int64(int64_t v) { return Int(TypeTag::kInt64, v); }
  static Value Float(float v);
  static Value Double(double v);
  static Value String(std::string s);
  static Value Date(int32_t days) { return Int(TypeTag::kDate, days); }
  static Value Time(int32_t millis) { return Int(TypeTag::kTime, millis); }
  static Value Datetime(int64_t millis) { return Int(TypeTag::kDatetime, millis); }
  static Value Duration(int32_t months, int64_t millis);
  static Value YearMonthDuration(int32_t months);
  static Value DayTimeDuration(int64_t millis);
  /// Interval over chronons of `point_tag` (must be date/time/datetime).
  static Value Interval(TypeTag point_tag, int64_t start, int64_t end);
  static Value Point(double x, double y);
  static Value Line(GeoPoint a, GeoPoint b);
  /// Rectangle normalizes so lo is the bottom-left, hi the top-right corner.
  static Value Rectangle(GeoPoint a, GeoPoint b);
  static Value Circle(GeoPoint center, double radius);
  static Value Polygon(std::vector<GeoPoint> points);
  static Value Uuid(uint64_t hi, uint64_t lo);
  static Value Bag(std::vector<Value> items);
  static Value OrderedList(std::vector<Value> items);
  static Value Record(std::vector<std::pair<std::string, Value>> fields);

  // -- Inspectors ----------------------------------------------------------
  TypeTag tag() const { return tag_; }
  bool IsMissing() const { return tag_ == TypeTag::kMissing; }
  bool IsNull() const { return tag_ == TypeTag::kNull; }
  /// NULL or MISSING (the "unknown" family in AQL semantics).
  bool IsUnknown() const { return IsMissing() || IsNull(); }
  bool IsNumeric() const { return IsNumericTag(tag_); }
  bool IsString() const { return tag_ == TypeTag::kString; }
  bool IsRecord() const { return tag_ == TypeTag::kRecord; }
  bool IsList() const {
    return tag_ == TypeTag::kBag || tag_ == TypeTag::kOrderedList;
  }

  bool AsBoolean() const { return i_ != 0; }
  /// Integer payload: ints, date (days), time/datetime (millis), duration
  /// months for kDuration/kYearMonthDuration, millis for kDayTimeDuration,
  /// interval start, uuid high half.
  int64_t AsInt() const { return i_; }
  /// Second integer payload: duration millis, interval end, uuid low half.
  int64_t AsInt2() const { return i2_; }
  float AsFloat() const { return f_; }
  double AsDouble() const;  // numeric widened to double
  const std::string& AsString() const { return *str_; }
  /// Spatial payload points: point(1), line(2), rectangle(lo,hi),
  /// circle(center; radius in AsDouble-2nd slot via circle_radius()),
  /// polygon(n).
  const std::vector<GeoPoint>& AsPoints() const { return *pts_; }
  double circle_radius() const { return f64_; }
  TypeTag interval_point_tag() const { return static_cast<TypeTag>(aux_); }
  const std::vector<Value>& AsList() const { return *list_; }
  const RecordData& AsRecord() const { return *rec_; }

  /// Field lookup on a record: returns MISSING when absent (or when this
  /// value is not a record, matching AQL's permissive field access).
  const Value& GetField(std::string_view name) const;

  /// True numeric check + value: accepts any numeric tag.
  bool GetNumeric(double* out) const;
  /// Integer check: int8..int64 only.
  bool GetInteger(int64_t* out) const;

  // -- Algebra -------------------------------------------------------------
  /// Total order across all ADM values: MISSING < NULL < booleans < numerics
  /// (compared as doubles across width) < strings < temporals < ... < records.
  /// Used by sort operators, B+-tree keys, and order-by.
  int Compare(const Value& other) const;

  /// Deep equality consistent with Compare()==0.
  bool Equals(const Value& other) const { return Compare(other) == 0; }

  /// Hash consistent with Equals (numeric values hash by numeric value, so
  /// int32 5 and int64 5 collide as required by cross-width equality).
  uint64_t Hash(uint64_t seed = 0xcbf29ce484222325ULL) const;

  /// JSON-ish rendering. ADM-only types print with constructor syntax, e.g.
  /// datetime("2012-01-01T00:00:00.000Z"), point("1.0,2.0"), bags as {{ }}.
  std::string ToString() const;
  void AppendTo(std::string* out) const;

 private:
  static Value Scalar(TypeTag t) {
    Value v;
    v.tag_ = t;
    return v;
  }
  static Value Int(TypeTag t, int64_t i) {
    Value v;
    v.tag_ = t;
    v.i_ = i;
    return v;
  }

  TypeTag tag_;
  uint8_t aux_ = 0;
  int64_t i_ = 0;
  int64_t i2_ = 0;
  float f_ = 0;
  double f64_ = 0;
  std::shared_ptr<const std::string> str_;
  std::shared_ptr<const std::vector<GeoPoint>> pts_;
  std::shared_ptr<const std::vector<Value>> list_;
  std::shared_ptr<const RecordData> rec_;
};

/// Convenience builder for record values.
class RecordBuilder {
 public:
  RecordBuilder& Add(std::string name, Value v) {
    fields_.emplace_back(std::move(name), std::move(v));
    return *this;
  }
  Value Build() { return Value::Record(std::move(fields_)); }

 private:
  std::vector<std::pair<std::string, Value>> fields_;
};

/// What projecting a record means: the named top-level fields, in record
/// order. A non-record value, or `all_fields`, is kept whole.
Value KeepFields(const Value& record, bool all_fields,
                 const std::vector<std::string>& fields);

}  // namespace adm
}  // namespace asterix

#endif  // ASTERIX_ADM_VALUE_H_
