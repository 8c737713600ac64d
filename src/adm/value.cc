#include "adm/value.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "adm/temporal.h"
#include "common/bytes.h"
#include "common/string_utils.h"

namespace asterix {
namespace adm {

const char* TypeTagName(TypeTag tag) {
  switch (tag) {
    case TypeTag::kMissing: return "missing";
    case TypeTag::kNull: return "null";
    case TypeTag::kBoolean: return "boolean";
    case TypeTag::kInt8: return "int8";
    case TypeTag::kInt16: return "int16";
    case TypeTag::kInt32: return "int32";
    case TypeTag::kInt64: return "int64";
    case TypeTag::kFloat: return "float";
    case TypeTag::kDouble: return "double";
    case TypeTag::kString: return "string";
    case TypeTag::kDate: return "date";
    case TypeTag::kTime: return "time";
    case TypeTag::kDatetime: return "datetime";
    case TypeTag::kDuration: return "duration";
    case TypeTag::kYearMonthDuration: return "year-month-duration";
    case TypeTag::kDayTimeDuration: return "day-time-duration";
    case TypeTag::kInterval: return "interval";
    case TypeTag::kPoint: return "point";
    case TypeTag::kLine: return "line";
    case TypeTag::kRectangle: return "rectangle";
    case TypeTag::kCircle: return "circle";
    case TypeTag::kPolygon: return "polygon";
    case TypeTag::kUuid: return "uuid";
    case TypeTag::kBag: return "bag";
    case TypeTag::kOrderedList: return "orderedlist";
    case TypeTag::kRecord: return "record";
    case TypeTag::kAny: return "any";
  }
  return "unknown";
}

bool IsNumericTag(TypeTag tag) {
  return tag >= TypeTag::kInt8 && tag <= TypeTag::kDouble;
}

bool IsTemporalPointTag(TypeTag tag) {
  return tag == TypeTag::kDate || tag == TypeTag::kTime ||
         tag == TypeTag::kDatetime;
}

Value Value::Boolean(bool b) {
  Value v = Scalar(TypeTag::kBoolean);
  v.i_ = b ? 1 : 0;
  return v;
}

Value Value::Float(float f) {
  Value v = Scalar(TypeTag::kFloat);
  v.f_ = f;
  return v;
}

Value Value::Double(double d) {
  Value v = Scalar(TypeTag::kDouble);
  v.f64_ = d;
  return v;
}

Value Value::String(std::string s) {
  Value v = Scalar(TypeTag::kString);
  v.str_ = std::make_shared<const std::string>(std::move(s));
  return v;
}

Value Value::Duration(int32_t months, int64_t millis) {
  Value v = Scalar(TypeTag::kDuration);
  v.i_ = months;
  v.i2_ = millis;
  return v;
}

Value Value::YearMonthDuration(int32_t months) {
  Value v = Scalar(TypeTag::kYearMonthDuration);
  v.i_ = months;
  return v;
}

Value Value::DayTimeDuration(int64_t millis) {
  Value v = Scalar(TypeTag::kDayTimeDuration);
  v.i_ = millis;
  return v;
}

Value Value::Interval(TypeTag point_tag, int64_t start, int64_t end) {
  Value v = Scalar(TypeTag::kInterval);
  v.aux_ = static_cast<uint8_t>(point_tag);
  v.i_ = start;
  v.i2_ = end;
  return v;
}

Value Value::Point(double x, double y) {
  Value v = Scalar(TypeTag::kPoint);
  v.pts_ = std::make_shared<const std::vector<GeoPoint>>(
      std::vector<GeoPoint>{{x, y}});
  return v;
}

Value Value::Line(GeoPoint a, GeoPoint b) {
  Value v = Scalar(TypeTag::kLine);
  v.pts_ = std::make_shared<const std::vector<GeoPoint>>(
      std::vector<GeoPoint>{a, b});
  return v;
}

Value Value::Rectangle(GeoPoint a, GeoPoint b) {
  Value v = Scalar(TypeTag::kRectangle);
  GeoPoint lo{std::min(a.x, b.x), std::min(a.y, b.y)};
  GeoPoint hi{std::max(a.x, b.x), std::max(a.y, b.y)};
  v.pts_ = std::make_shared<const std::vector<GeoPoint>>(
      std::vector<GeoPoint>{lo, hi});
  return v;
}

Value Value::Circle(GeoPoint center, double radius) {
  Value v = Scalar(TypeTag::kCircle);
  v.pts_ = std::make_shared<const std::vector<GeoPoint>>(
      std::vector<GeoPoint>{center});
  v.f64_ = radius;
  return v;
}

Value Value::Polygon(std::vector<GeoPoint> points) {
  Value v = Scalar(TypeTag::kPolygon);
  v.pts_ = std::make_shared<const std::vector<GeoPoint>>(std::move(points));
  return v;
}

Value Value::Uuid(uint64_t hi, uint64_t lo) {
  Value v = Scalar(TypeTag::kUuid);
  v.i_ = static_cast<int64_t>(hi);
  v.i2_ = static_cast<int64_t>(lo);
  return v;
}

Value Value::Bag(std::vector<Value> items) {
  Value v = Scalar(TypeTag::kBag);
  v.list_ = std::make_shared<const std::vector<Value>>(std::move(items));
  return v;
}

Value Value::OrderedList(std::vector<Value> items) {
  Value v = Scalar(TypeTag::kOrderedList);
  v.list_ = std::make_shared<const std::vector<Value>>(std::move(items));
  return v;
}

Value Value::Record(std::vector<std::pair<std::string, Value>> fields) {
  Value v = Scalar(TypeTag::kRecord);
  auto rec = std::make_shared<RecordData>();
  rec->fields = std::move(fields);
  v.rec_ = std::move(rec);
  return v;
}

double Value::AsDouble() const {
  switch (tag_) {
    case TypeTag::kFloat:
      return f_;
    case TypeTag::kDouble:
      return f64_;
    default:
      return static_cast<double>(i_);
  }
}

const Value& Value::GetField(std::string_view name) const {
  static const Value* kMissingValue = new Value();
  if (tag_ != TypeTag::kRecord) return *kMissingValue;
  for (const auto& [fname, fval] : rec_->fields) {
    if (fname == name) return fval;
  }
  return *kMissingValue;
}

bool Value::GetNumeric(double* out) const {
  if (!IsNumeric()) return false;
  *out = AsDouble();
  return true;
}

bool Value::GetInteger(int64_t* out) const {
  if (tag_ < TypeTag::kInt8 || tag_ > TypeTag::kInt64) return false;
  *out = i_;
  return true;
}

namespace {

template <typename T>
int Cmp(T a, T b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& other) const {
  int ga = TypeGroup(tag_);
  int gb = TypeGroup(other.tag_);
  if (ga != gb) return Cmp(ga, gb);
  switch (tag_) {
    case TypeTag::kMissing:
    case TypeTag::kNull:
      return 0;
    case TypeTag::kBoolean:
      return Cmp(i_, other.i_);
    case TypeTag::kInt8:
    case TypeTag::kInt16:
    case TypeTag::kInt32:
    case TypeTag::kInt64:
    case TypeTag::kFloat:
    case TypeTag::kDouble: {
      // Integer-to-integer compares stay exact; mixed float compares widen.
      bool ai = tag_ <= TypeTag::kInt64;
      bool bi = other.tag_ <= TypeTag::kInt64;
      if (ai && bi) return Cmp(i_, other.i_);
      return Cmp(AsDouble(), other.AsDouble());
    }
    case TypeTag::kString:
      return str_->compare(*other.str_) < 0   ? -1
             : str_->compare(*other.str_) > 0 ? 1
                                              : 0;
    case TypeTag::kDate:
    case TypeTag::kTime:
    case TypeTag::kDatetime:
    case TypeTag::kYearMonthDuration:
    case TypeTag::kDayTimeDuration:
      return Cmp(i_, other.i_);
    case TypeTag::kDuration:
    case TypeTag::kUuid: {
      int c = Cmp(i_, other.i_);
      return c != 0 ? c : Cmp(i2_, other.i2_);
    }
    case TypeTag::kInterval: {
      int c = Cmp(aux_, other.aux_);
      if (c != 0) return c;
      c = Cmp(i_, other.i_);
      return c != 0 ? c : Cmp(i2_, other.i2_);
    }
    case TypeTag::kPoint:
    case TypeTag::kLine:
    case TypeTag::kRectangle:
    case TypeTag::kPolygon:
    case TypeTag::kCircle: {
      const auto& a = *pts_;
      const auto& b = *other.pts_;
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = Cmp(a[i].x, b[i].x);
        if (c != 0) return c;
        c = Cmp(a[i].y, b[i].y);
        if (c != 0) return c;
      }
      int c = Cmp(a.size(), b.size());
      if (c != 0) return c;
      if (tag_ == TypeTag::kCircle) return Cmp(f64_, other.f64_);
      return 0;
    }
    case TypeTag::kBag:
    case TypeTag::kOrderedList: {
      const auto& a = *list_;
      const auto& b = *other.list_;
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return Cmp(a.size(), b.size());
    }
    case TypeTag::kRecord: {
      // Compare by sorted field name so physically reordered but logically
      // identical records compare equal.
      auto sorted = [](const RecordData& r) {
        std::vector<const std::pair<std::string, Value>*> v;
        v.reserve(r.fields.size());
        for (const auto& f : r.fields) v.push_back(&f);
        std::sort(v.begin(), v.end(),
                  [](auto* a, auto* b) { return a->first < b->first; });
        return v;
      };
      auto a = sorted(*rec_);
      auto b = sorted(*other.rec_);
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i]->first.compare(b[i]->first);
        if (c != 0) return c < 0 ? -1 : 1;
        c = a[i]->second.Compare(b[i]->second);
        if (c != 0) return c;
      }
      return Cmp(a.size(), b.size());
    }
    case TypeTag::kAny:
      return 0;
  }
  return 0;
}

uint64_t Value::Hash(uint64_t seed) const {
  int group = TypeGroup(tag_);
  uint64_t h = Hash64(&group, sizeof(group), seed);
  switch (tag_) {
    case TypeTag::kMissing:
    case TypeTag::kNull:
    case TypeTag::kAny:
      return h;
    case TypeTag::kBoolean:
    case TypeTag::kDate:
    case TypeTag::kTime:
    case TypeTag::kDatetime:
    case TypeTag::kYearMonthDuration:
    case TypeTag::kDayTimeDuration:
      return Hash64(&i_, sizeof(i_), h);
    case TypeTag::kInt8:
    case TypeTag::kInt16:
    case TypeTag::kInt32:
    case TypeTag::kInt64: {
      // Hash integers by value so equal numerics of different width collide;
      // integral doubles hash identically (see float/double case).
      return Hash64(&i_, sizeof(i_), h);
    }
    case TypeTag::kFloat:
    case TypeTag::kDouble: {
      double d = AsDouble();
      double integral;
      if (std::modf(d, &integral) == 0.0 &&
          integral >= -9.2e18 && integral <= 9.2e18) {
        int64_t as_int = static_cast<int64_t>(integral);
        return Hash64(&as_int, sizeof(as_int), h);
      }
      return Hash64(&d, sizeof(d), h);
    }
    case TypeTag::kString:
      return Hash64(str_->data(), str_->size(), h);
    case TypeTag::kDuration:
    case TypeTag::kUuid:
    case TypeTag::kInterval: {
      h = Hash64(&i_, sizeof(i_), h);
      return Hash64(&i2_, sizeof(i2_), h);
    }
    case TypeTag::kPoint:
    case TypeTag::kLine:
    case TypeTag::kRectangle:
    case TypeTag::kPolygon:
    case TypeTag::kCircle: {
      for (const auto& p : *pts_) h = Hash64(&p, sizeof(p), h);
      if (tag_ == TypeTag::kCircle) h = Hash64(&f64_, sizeof(f64_), h);
      return h;
    }
    case TypeTag::kBag: {
      // Order-insensitive combine would be needed for true bag semantics,
      // but Compare() is order-sensitive, so hashing stays order-sensitive
      // to remain consistent with Equals.
      for (const auto& v : *list_) h = v.Hash(h);
      return h;
    }
    case TypeTag::kOrderedList: {
      for (const auto& v : *list_) h = v.Hash(h);
      return h;
    }
    case TypeTag::kRecord: {
      // Commutative combine over (name, value) keeps hash consistent with
      // the sorted-field Compare.
      uint64_t acc = 0;
      for (const auto& [name, val] : rec_->fields) {
        uint64_t fh = Hash64(name.data(), name.size(), h);
        acc += val.Hash(fh);
      }
      return Hash64(&acc, sizeof(acc), h);
    }
  }
  return h;
}

namespace {

void AppendDouble(double d, std::string* out) {
  if (std::isnan(d)) {
    *out += "\"NaN\"";
    return;
  }
  if (std::isinf(d)) {
    *out += d > 0 ? "\"INF\"" : "\"-INF\"";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  // Trim to shortest round-trip-ish representation.
  double parsed;
  std::snprintf(buf, sizeof(buf), "%.15g", d);
  std::sscanf(buf, "%lf", &parsed);
  if (parsed != d) std::snprintf(buf, sizeof(buf), "%.17g", d);
  *out += buf;
}

void AppendPoint(const GeoPoint& p, std::string* out) {
  AppendDouble(p.x, out);
  out->push_back(',');
  AppendDouble(p.y, out);
}

}  // namespace

void Value::AppendTo(std::string* out) const {
  switch (tag_) {
    case TypeTag::kMissing:
      *out += "missing";
      return;
    case TypeTag::kNull:
      *out += "null";
      return;
    case TypeTag::kBoolean:
      *out += i_ ? "true" : "false";
      return;
    case TypeTag::kInt8:
    case TypeTag::kInt16:
    case TypeTag::kInt32:
    case TypeTag::kInt64:
      *out += std::to_string(i_);
      return;
    case TypeTag::kFloat:
      AppendDouble(f_, out);
      return;
    case TypeTag::kDouble:
      AppendDouble(f64_, out);
      return;
    case TypeTag::kString:
      AppendJsonString(*str_, out);
      return;
    case TypeTag::kDate:
      *out += "date(\"" + FormatDate(static_cast<int32_t>(i_)) + "\")";
      return;
    case TypeTag::kTime:
      *out += "time(\"" + FormatTime(static_cast<int32_t>(i_)) + "\")";
      return;
    case TypeTag::kDatetime:
      *out += "datetime(\"" + FormatDatetime(i_) + "\")";
      return;
    case TypeTag::kDuration:
      *out += "duration(\"" +
              FormatDuration(static_cast<int32_t>(i_), i2_) + "\")";
      return;
    case TypeTag::kYearMonthDuration:
      *out += "year-month-duration(\"" +
              FormatDuration(static_cast<int32_t>(i_), 0) + "\")";
      return;
    case TypeTag::kDayTimeDuration:
      *out += "day-time-duration(\"" + FormatDuration(0, i_) + "\")";
      return;
    case TypeTag::kInterval: {
      *out += "interval(";
      Value start = Int(interval_point_tag(), i_);
      Value end = Int(interval_point_tag(), i2_);
      start.AppendTo(out);
      *out += ", ";
      end.AppendTo(out);
      *out += ")";
      return;
    }
    case TypeTag::kPoint:
      *out += "point(\"";
      AppendPoint((*pts_)[0], out);
      *out += "\")";
      return;
    case TypeTag::kLine:
      *out += "line(\"";
      AppendPoint((*pts_)[0], out);
      *out += " ";
      AppendPoint((*pts_)[1], out);
      *out += "\")";
      return;
    case TypeTag::kRectangle:
      *out += "rectangle(\"";
      AppendPoint((*pts_)[0], out);
      *out += " ";
      AppendPoint((*pts_)[1], out);
      *out += "\")";
      return;
    case TypeTag::kCircle:
      *out += "circle(\"";
      AppendPoint((*pts_)[0], out);
      *out += " ";
      AppendDouble(f64_, out);
      *out += "\")";
      return;
    case TypeTag::kPolygon: {
      *out += "polygon(\"";
      bool first = true;
      for (const auto& p : *pts_) {
        if (!first) *out += " ";
        first = false;
        AppendPoint(p, out);
      }
      *out += "\")";
      return;
    }
    case TypeTag::kUuid: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "uuid(\"%016llx%016llx\")",
                    static_cast<unsigned long long>(i_),
                    static_cast<unsigned long long>(i2_));
      *out += buf;
      return;
    }
    case TypeTag::kBag:
    case TypeTag::kOrderedList: {
      *out += tag_ == TypeTag::kBag ? "{{ " : "[ ";
      bool first = true;
      for (const auto& v : *list_) {
        if (!first) *out += ", ";
        first = false;
        v.AppendTo(out);
      }
      *out += tag_ == TypeTag::kBag ? " }}" : " ]";
      return;
    }
    case TypeTag::kRecord: {
      *out += "{ ";
      bool first = true;
      for (const auto& [name, val] : rec_->fields) {
        if (!first) *out += ", ";
        first = false;
        AppendJsonString(name, out);
        *out += ": ";
        val.AppendTo(out);
      }
      *out += " }";
      return;
    }
    case TypeTag::kAny:
      *out += "any";
      return;
  }
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

Value KeepFields(const Value& record, bool all_fields,
                 const std::vector<std::string>& fields) {
  if (all_fields || !record.IsRecord()) return record;
  std::vector<std::pair<std::string, Value>> kept;
  for (const auto& field : record.AsRecord().fields) {
    if (std::find(fields.begin(), fields.end(), field.first) != fields.end()) {
      kept.push_back(field);
    }
  }
  return Value::Record(std::move(kept));
}

}  // namespace adm
}  // namespace asterix
