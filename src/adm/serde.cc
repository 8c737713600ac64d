#include "adm/serde.h"

#include <algorithm>
#include <cmath>

namespace asterix {
namespace adm {

namespace {

constexpr uint8_t kAbsent = 0;
constexpr uint8_t kNullByte = 1;
constexpr uint8_t kPresent = 2;

// Untagged payload of a concrete primitive value.
void SerializePrimitivePayload(const Value& v, BytesWriter* w) {
  switch (v.tag()) {
    case TypeTag::kBoolean:
      w->PutU8(v.AsBoolean() ? 1 : 0);
      return;
    case TypeTag::kInt8:
    case TypeTag::kInt16:
    case TypeTag::kInt32:
    case TypeTag::kInt64:
    case TypeTag::kDate:
    case TypeTag::kTime:
    case TypeTag::kDatetime:
    case TypeTag::kYearMonthDuration:
    case TypeTag::kDayTimeDuration:
      w->PutVarintSigned(v.AsInt());
      return;
    case TypeTag::kFloat:
      w->PutF32(v.AsFloat());
      return;
    case TypeTag::kDouble:
      w->PutF64(v.AsDouble());
      return;
    case TypeTag::kString:
      w->PutString(v.AsString());
      return;
    case TypeTag::kDuration:
      w->PutVarintSigned(v.AsInt());
      w->PutVarintSigned(v.AsInt2());
      return;
    case TypeTag::kInterval:
      w->PutU8(static_cast<uint8_t>(v.interval_point_tag()));
      w->PutVarintSigned(v.AsInt());
      w->PutVarintSigned(v.AsInt2());
      return;
    case TypeTag::kUuid:
      w->PutU64(static_cast<uint64_t>(v.AsInt()));
      w->PutU64(static_cast<uint64_t>(v.AsInt2()));
      return;
    case TypeTag::kPoint:
    case TypeTag::kLine:
    case TypeTag::kRectangle:
    case TypeTag::kPolygon:
    case TypeTag::kCircle: {
      const auto& pts = v.AsPoints();
      if (v.tag() == TypeTag::kPolygon) w->PutVarint(pts.size());
      for (const auto& p : pts) {
        w->PutF64(p.x);
        w->PutF64(p.y);
      }
      if (v.tag() == TypeTag::kCircle) w->PutF64(v.circle_radius());
      return;
    }
    default:
      // Missing/Null carry no payload; containers never reach here.
      return;
  }
}

Status DeserializePrimitivePayload(BytesReader* r, TypeTag tag, Value* out) {
  switch (tag) {
    case TypeTag::kMissing:
      *out = Value::Missing();
      return Status::OK();
    case TypeTag::kNull:
      *out = Value::Null();
      return Status::OK();
    case TypeTag::kBoolean: {
      uint8_t b;
      ASTERIX_RETURN_NOT_OK(r->GetU8(&b));
      *out = Value::Boolean(b != 0);
      return Status::OK();
    }
    case TypeTag::kInt8:
    case TypeTag::kInt16:
    case TypeTag::kInt32:
    case TypeTag::kInt64:
    case TypeTag::kDate:
    case TypeTag::kTime:
    case TypeTag::kDatetime:
    case TypeTag::kYearMonthDuration:
    case TypeTag::kDayTimeDuration: {
      int64_t i;
      ASTERIX_RETURN_NOT_OK(r->GetVarintSigned(&i));
      switch (tag) {
        case TypeTag::kInt8: *out = Value::Int8(static_cast<int8_t>(i)); break;
        case TypeTag::kInt16: *out = Value::Int16(static_cast<int16_t>(i)); break;
        case TypeTag::kInt32: *out = Value::Int32(static_cast<int32_t>(i)); break;
        case TypeTag::kInt64: *out = Value::Int64(i); break;
        case TypeTag::kDate: *out = Value::Date(static_cast<int32_t>(i)); break;
        case TypeTag::kTime: *out = Value::Time(static_cast<int32_t>(i)); break;
        case TypeTag::kDatetime: *out = Value::Datetime(i); break;
        case TypeTag::kYearMonthDuration:
          *out = Value::YearMonthDuration(static_cast<int32_t>(i));
          break;
        default: *out = Value::DayTimeDuration(i); break;
      }
      return Status::OK();
    }
    case TypeTag::kFloat: {
      float f;
      ASTERIX_RETURN_NOT_OK(r->GetF32(&f));
      *out = Value::Float(f);
      return Status::OK();
    }
    case TypeTag::kDouble: {
      double d;
      ASTERIX_RETURN_NOT_OK(r->GetF64(&d));
      *out = Value::Double(d);
      return Status::OK();
    }
    case TypeTag::kString: {
      std::string s;
      ASTERIX_RETURN_NOT_OK(r->GetString(&s));
      *out = Value::String(std::move(s));
      return Status::OK();
    }
    case TypeTag::kDuration: {
      int64_t months, millis;
      ASTERIX_RETURN_NOT_OK(r->GetVarintSigned(&months));
      ASTERIX_RETURN_NOT_OK(r->GetVarintSigned(&millis));
      *out = Value::Duration(static_cast<int32_t>(months), millis);
      return Status::OK();
    }
    case TypeTag::kInterval: {
      uint8_t pt;
      int64_t start, end;
      ASTERIX_RETURN_NOT_OK(r->GetU8(&pt));
      ASTERIX_RETURN_NOT_OK(r->GetVarintSigned(&start));
      ASTERIX_RETURN_NOT_OK(r->GetVarintSigned(&end));
      *out = Value::Interval(static_cast<TypeTag>(pt), start, end);
      return Status::OK();
    }
    case TypeTag::kUuid: {
      uint64_t hi, lo;
      ASTERIX_RETURN_NOT_OK(r->GetU64(&hi));
      ASTERIX_RETURN_NOT_OK(r->GetU64(&lo));
      *out = Value::Uuid(hi, lo);
      return Status::OK();
    }
    case TypeTag::kPoint:
    case TypeTag::kLine:
    case TypeTag::kRectangle:
    case TypeTag::kPolygon:
    case TypeTag::kCircle: {
      size_t n = tag == TypeTag::kPoint ? 1
                 : tag == TypeTag::kCircle ? 1
                                           : 2;
      if (tag == TypeTag::kPolygon) {
        uint64_t count;
        ASTERIX_RETURN_NOT_OK(r->GetVarint(&count));
        if (count > r->remaining() / 16) {
          return Status::Corruption("truncated polygon");
        }
        n = count;
      }
      std::vector<GeoPoint> pts(n);
      for (auto& p : pts) {
        ASTERIX_RETURN_NOT_OK(r->GetF64(&p.x));
        ASTERIX_RETURN_NOT_OK(r->GetF64(&p.y));
      }
      switch (tag) {
        case TypeTag::kPoint:
          *out = Value::Point(pts[0].x, pts[0].y);
          return Status::OK();
        case TypeTag::kLine:
          *out = Value::Line(pts[0], pts[1]);
          return Status::OK();
        case TypeTag::kRectangle:
          *out = Value::Rectangle(pts[0], pts[1]);
          return Status::OK();
        case TypeTag::kPolygon:
          *out = Value::Polygon(std::move(pts));
          return Status::OK();
        default: {
          double radius;
          ASTERIX_RETURN_NOT_OK(r->GetF64(&radius));
          *out = Value::Circle(pts[0], radius);
          return Status::OK();
        }
      }
    }
    default:
      return Status::Corruption("unexpected primitive tag in payload");
  }
}

Status SkipVarint(BytesReader* r) {
  uint64_t unused;
  return r->GetVarint(&unused);
}

// Steps over the untagged payload DeserializePrimitivePayload would read.
Status SkipPrimitivePayload(BytesReader* r, TypeTag tag) {
  switch (tag) {
    case TypeTag::kMissing:
    case TypeTag::kNull:
      return Status::OK();
    case TypeTag::kBoolean:
      return r->Skip(1);
    case TypeTag::kInt8:
    case TypeTag::kInt16:
    case TypeTag::kInt32:
    case TypeTag::kInt64:
    case TypeTag::kDate:
    case TypeTag::kTime:
    case TypeTag::kDatetime:
    case TypeTag::kYearMonthDuration:
    case TypeTag::kDayTimeDuration:
      return SkipVarint(r);
    case TypeTag::kFloat:
      return r->Skip(4);
    case TypeTag::kDouble:
      return r->Skip(8);
    case TypeTag::kString: {
      std::string_view unused;
      return r->GetStringView(&unused);
    }
    case TypeTag::kDuration:
      ASTERIX_RETURN_NOT_OK(SkipVarint(r));
      return SkipVarint(r);
    case TypeTag::kInterval:
      ASTERIX_RETURN_NOT_OK(r->Skip(1));
      ASTERIX_RETURN_NOT_OK(SkipVarint(r));
      return SkipVarint(r);
    case TypeTag::kUuid:
    case TypeTag::kPoint:
      return r->Skip(16);
    case TypeTag::kLine:
    case TypeTag::kRectangle:
      return r->Skip(32);
    case TypeTag::kCircle:
      return r->Skip(24);
    case TypeTag::kPolygon: {
      uint64_t count;
      ASTERIX_RETURN_NOT_OK(r->GetVarint(&count));
      if (count > r->remaining() / 16) {
        return Status::Corruption("truncated polygon");
      }
      return r->Skip(static_cast<size_t>(count) * 16);
    }
    default:
      return Status::Corruption("unexpected primitive tag in payload");
  }
}

// Steps over declared fields [from, end) of a schema-aware record image.
Status SkipDeclaredFields(BytesReader* r, const std::vector<FieldType>& fields,
                          size_t from) {
  for (size_t i = from; i < fields.size(); ++i) {
    uint8_t presence;
    ASTERIX_RETURN_NOT_OK(r->GetU8(&presence));
    if (presence != kAbsent && presence != kNullByte) {
      ASTERIX_RETURN_NOT_OK(SkipTyped(r, fields[i].type));
    }
  }
  return Status::OK();
}

// Element count of a serialized list or record, checked against what is
// left to read so a corrupt count cannot drive a huge reservation.
Status GetCount(BytesReader* r, uint64_t* n) {
  ASTERIX_RETURN_NOT_OK(r->GetVarint(n));
  if (*n > r->remaining()) return Status::Corruption("truncated count");
  return Status::OK();
}

}  // namespace

void SerializeValue(const Value& v, BytesWriter* w) {
  w->PutU8(static_cast<uint8_t>(v.tag()));
  switch (v.tag()) {
    case TypeTag::kBag:
    case TypeTag::kOrderedList: {
      const auto& items = v.AsList();
      w->PutVarint(items.size());
      for (const auto& item : items) SerializeValue(item, w);
      return;
    }
    case TypeTag::kRecord: {
      const auto& fields = v.AsRecord().fields;
      w->PutVarint(fields.size());
      for (const auto& [name, val] : fields) {
        w->PutString(name);
        SerializeValue(val, w);
      }
      return;
    }
    default:
      SerializePrimitivePayload(v, w);
      return;
  }
}

Status DeserializeValue(BytesReader* r, Value* out) {
  uint8_t tag_byte;
  ASTERIX_RETURN_NOT_OK(r->GetU8(&tag_byte));
  TypeTag tag = static_cast<TypeTag>(tag_byte);
  switch (tag) {
    case TypeTag::kBag:
    case TypeTag::kOrderedList: {
      uint64_t n;
      ASTERIX_RETURN_NOT_OK(GetCount(r, &n));
      std::vector<Value> items;
      items.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        Value item;
        ASTERIX_RETURN_NOT_OK(DeserializeValue(r, &item));
        items.push_back(std::move(item));
      }
      *out = tag == TypeTag::kBag ? Value::Bag(std::move(items))
                                  : Value::OrderedList(std::move(items));
      return Status::OK();
    }
    case TypeTag::kRecord: {
      uint64_t n;
      ASTERIX_RETURN_NOT_OK(GetCount(r, &n));
      std::vector<std::pair<std::string, Value>> fields;
      fields.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        std::string name;
        ASTERIX_RETURN_NOT_OK(r->GetString(&name));
        Value val;
        ASTERIX_RETURN_NOT_OK(DeserializeValue(r, &val));
        fields.emplace_back(std::move(name), std::move(val));
      }
      *out = Value::Record(std::move(fields));
      return Status::OK();
    }
    default:
      return DeserializePrimitivePayload(r, tag, out);
  }
}

Status SerializeTyped(const Value& v, const DatatypePtr& type, BytesWriter* w) {
  if (!type || type->IsAny()) {
    SerializeValue(v, w);
    return Status::OK();
  }
  switch (type->kind()) {
    case Datatype::Kind::kPrimitive: {
      if (!TagConforms(v.tag(), type->tag())) {
        return Status::TypeError(std::string("cannot serialize ") +
                                 TypeTagName(v.tag()) + " as " +
                                 TypeTagName(type->tag()));
      }
      // Write with the *value's* tag implied by the declared type; numeric
      // widening normalizes on read, so re-tag by writing the actual tag
      // byte only when it differs would complicate reads — instead store
      // the payload using the declared representation.
      switch (type->tag()) {
        case TypeTag::kFloat:
          w->PutF32(v.tag() == TypeTag::kFloat ? v.AsFloat()
                                               : static_cast<float>(v.AsDouble()));
          return Status::OK();
        case TypeTag::kDouble:
          w->PutF64(v.AsDouble());
          return Status::OK();
        case TypeTag::kInt8:
        case TypeTag::kInt16:
        case TypeTag::kInt32:
        case TypeTag::kInt64:
          w->PutVarintSigned(v.AsInt());
          return Status::OK();
        default:
          SerializePrimitivePayload(v, w);
          return Status::OK();
      }
    }
    case Datatype::Kind::kOrderedList:
    case Datatype::Kind::kBag: {
      if (!v.IsList()) {
        return Status::TypeError("cannot serialize non-list as list type");
      }
      const auto& items = v.AsList();
      w->PutVarint(items.size());
      for (const auto& item : items) {
        ASTERIX_RETURN_NOT_OK(SerializeTyped(item, type->item_type(), w));
      }
      return Status::OK();
    }
    case Datatype::Kind::kRecord: {
      if (!v.IsRecord()) {
        return Status::TypeError("cannot serialize non-record as record type " +
                                 type->name());
      }
      // Declared fields, positionally.
      for (const auto& ft : type->fields()) {
        const Value& fv = v.GetField(ft.name);
        if (fv.IsMissing()) {
          if (!ft.optional) {
            return Status::TypeError("required field '" + ft.name +
                                     "' missing while serializing " +
                                     type->name());
          }
          w->PutU8(kAbsent);
        } else if (fv.IsNull()) {
          w->PutU8(kNullByte);
        } else {
          w->PutU8(kPresent);
          ASTERIX_RETURN_NOT_OK(SerializeTyped(fv, ft.type, w));
        }
      }
      if (type->is_open()) {
        // Open tail: undeclared fields with names and tags.
        std::vector<const std::pair<std::string, Value>*> open_fields;
        for (const auto& f : v.AsRecord().fields) {
          if (type->FieldIndex(f.first) < 0) open_fields.push_back(&f);
        }
        w->PutVarint(open_fields.size());
        for (const auto* f : open_fields) {
          w->PutString(f->first);
          SerializeValue(f->second, w);
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Status DeserializeTyped(BytesReader* r, const DatatypePtr& type, Value* out) {
  if (!type || type->IsAny()) return DeserializeValue(r, out);
  switch (type->kind()) {
    case Datatype::Kind::kPrimitive:
      return DeserializePrimitivePayload(r, type->tag(), out);
    case Datatype::Kind::kOrderedList:
    case Datatype::Kind::kBag: {
      uint64_t n;
      ASTERIX_RETURN_NOT_OK(r->GetVarint(&n));
      std::vector<Value> items;
      // A typed item may take no bytes (a closed empty record), so the
      // count is not bounded by what is left; only the reservation is.
      items.reserve(std::min<uint64_t>(n, r->remaining()));
      for (uint64_t i = 0; i < n; ++i) {
        Value item;
        ASTERIX_RETURN_NOT_OK(DeserializeTyped(r, type->item_type(), &item));
        items.push_back(std::move(item));
      }
      *out = type->kind() == Datatype::Kind::kBag
                 ? Value::Bag(std::move(items))
                 : Value::OrderedList(std::move(items));
      return Status::OK();
    }
    case Datatype::Kind::kRecord: {
      std::vector<std::pair<std::string, Value>> fields;
      fields.reserve(type->fields().size());
      for (const auto& ft : type->fields()) {
        uint8_t presence;
        ASTERIX_RETURN_NOT_OK(r->GetU8(&presence));
        if (presence == kAbsent) continue;
        if (presence == kNullByte) {
          fields.emplace_back(ft.name, Value::Null());
          continue;
        }
        Value fv;
        ASTERIX_RETURN_NOT_OK(DeserializeTyped(r, ft.type, &fv));
        fields.emplace_back(ft.name, std::move(fv));
      }
      if (type->is_open()) {
        uint64_t n;
        ASTERIX_RETURN_NOT_OK(GetCount(r, &n));
        for (uint64_t i = 0; i < n; ++i) {
          std::string name;
          ASTERIX_RETURN_NOT_OK(r->GetString(&name));
          Value val;
          ASTERIX_RETURN_NOT_OK(DeserializeValue(r, &val));
          fields.emplace_back(std::move(name), std::move(val));
        }
      }
      *out = Value::Record(std::move(fields));
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Status SkipValue(BytesReader* r) {
  uint8_t tag_byte;
  ASTERIX_RETURN_NOT_OK(r->GetU8(&tag_byte));
  TypeTag tag = static_cast<TypeTag>(tag_byte);
  switch (tag) {
    case TypeTag::kBag:
    case TypeTag::kOrderedList: {
      uint64_t n;
      ASTERIX_RETURN_NOT_OK(GetCount(r, &n));
      for (uint64_t i = 0; i < n; ++i) ASTERIX_RETURN_NOT_OK(SkipValue(r));
      return Status::OK();
    }
    case TypeTag::kRecord: {
      uint64_t n;
      ASTERIX_RETURN_NOT_OK(GetCount(r, &n));
      for (uint64_t i = 0; i < n; ++i) {
        std::string_view name;
        ASTERIX_RETURN_NOT_OK(r->GetStringView(&name));
        ASTERIX_RETURN_NOT_OK(SkipValue(r));
      }
      return Status::OK();
    }
    default:
      return SkipPrimitivePayload(r, tag);
  }
}

Status SkipTyped(BytesReader* r, const DatatypePtr& type) {
  if (!type || type->IsAny()) return SkipValue(r);
  switch (type->kind()) {
    case Datatype::Kind::kPrimitive:
      return SkipPrimitivePayload(r, type->tag());
    case Datatype::Kind::kOrderedList:
    case Datatype::Kind::kBag: {
      uint64_t n;
      ASTERIX_RETURN_NOT_OK(r->GetVarint(&n));
      for (uint64_t i = 0; i < n; ++i) {
        ASTERIX_RETURN_NOT_OK(SkipTyped(r, type->item_type()));
      }
      return Status::OK();
    }
    case Datatype::Kind::kRecord: {
      ASTERIX_RETURN_NOT_OK(SkipDeclaredFields(r, type->fields(), 0));
      if (!type->is_open()) return Status::OK();
      uint64_t n;
      ASTERIX_RETURN_NOT_OK(GetCount(r, &n));
      for (uint64_t i = 0; i < n; ++i) {
        std::string_view name;
        ASTERIX_RETURN_NOT_OK(r->GetStringView(&name));
        ASTERIX_RETURN_NOT_OK(SkipValue(r));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

ProjectedDecoder::ProjectedDecoder(DatatypePtr type, bool all_fields,
                                   const std::vector<std::string>& fields)
    : type_(std::move(type)), all_fields_(all_fields) {
  if (all_fields_) return;
  num_fields_ = fields.size();
  const bool record = type_ && type_->kind() == Datatype::Kind::kRecord;
  if (record) declared_.assign(type_->fields().size(), -1);
  for (size_t pos = 0; pos < fields.size(); ++pos) {
    const std::string& name = fields[pos];
    int idx = record ? type_->FieldIndex(name) : -1;
    if (idx >= 0) {
      declared_[static_cast<size_t>(idx)] = static_cast<int>(pos);
      declared_end_ = std::max(declared_end_, static_cast<size_t>(idx) + 1);
    } else if (!record || type_->is_open()) {
      open_.push_back(name);
      open_slots_.push_back(static_cast<int>(pos));
    }
  }
}

int ProjectedDecoder::OpenSlot(std::string_view name) const {
  for (size_t i = 0; i < open_.size(); ++i) {
    if (open_[i] == name) return open_slots_[i];
  }
  return -1;
}

template <typename Take>
Status ProjectedDecoder::ForEachWanted(BytesReader* r, Take&& take) const {
  const std::vector<FieldType>& declared = type_->fields();
  for (size_t i = 0; i < declared_end_; ++i) {
    uint8_t presence;
    ASTERIX_RETURN_NOT_OK(r->GetU8(&presence));
    if (presence == kAbsent) continue;
    if (declared_[i] < 0) {
      if (presence != kNullByte) {
        ASTERIX_RETURN_NOT_OK(SkipTyped(r, declared[i].type));
      }
      continue;
    }
    Value fv = Value::Null();
    if (presence != kNullByte) {
      ASTERIX_RETURN_NOT_OK(DeserializeTyped(r, declared[i].type, &fv));
    }
    take(declared_[i], std::string_view(declared[i].name), std::move(fv));
  }
  if (open_.empty()) return Status::OK();
  ASTERIX_RETURN_NOT_OK(SkipDeclaredFields(r, declared, declared_end_));
  uint64_t n;
  ASTERIX_RETURN_NOT_OK(GetCount(r, &n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view name;
    ASTERIX_RETURN_NOT_OK(r->GetStringView(&name));
    int slot = OpenSlot(name);
    if (slot < 0) {
      ASTERIX_RETURN_NOT_OK(SkipValue(r));
      continue;
    }
    Value val;
    ASTERIX_RETURN_NOT_OK(DeserializeValue(r, &val));
    take(slot, name, std::move(val));
  }
  return Status::OK();
}

Status ProjectedDecoder::Decode(BytesReader* r, Value* out) const {
  if (all_fields_) return DeserializeTyped(r, type_, out);
  if (!type_ || type_->IsAny()) return DecodeSchemaless(r, out);
  if (type_->kind() != Datatype::Kind::kRecord) {
    return DeserializeTyped(r, type_, out);
  }
  std::vector<std::pair<std::string, Value>> fields;
  fields.reserve(num_fields_);
  ASTERIX_RETURN_NOT_OK(
      ForEachWanted(r, [&](int, std::string_view name, Value v) {
        fields.emplace_back(std::string(name), std::move(v));
      }));
  *out = Value::Record(std::move(fields));
  return Status::OK();
}

Status ProjectedDecoder::DecodeFields(BytesReader* r,
                                      std::vector<Value>* out) const {
  if (all_fields_) {
    return Status::InvalidArgument("DecodeFields needs a field list");
  }
  out->assign(num_fields_, Value::Missing());
  if (!type_ || type_->IsAny()) {
    // Untyped: every wanted name is in open_.
    Value whole;
    ASTERIX_RETURN_NOT_OK(DeserializeValue(r, &whole));
    for (size_t i = 0; i < open_.size(); ++i) {
      (*out)[static_cast<size_t>(open_slots_[i])] = whole.GetField(open_[i]);
    }
    return Status::OK();
  }
  if (type_->kind() != Datatype::Kind::kRecord) return Status::OK();
  return ForEachWanted(r, [out](int slot, std::string_view, Value v) {
    (*out)[static_cast<size_t>(slot)] = std::move(v);
  });
}

// A self-describing value decodes whole; a record then keeps its wanted
// fields, which are all in open_ when there is no declared type.
Status ProjectedDecoder::DecodeSchemaless(BytesReader* r, Value* out) const {
  ASTERIX_RETURN_NOT_OK(DeserializeValue(r, out));
  *out = KeepFields(*out, /*all_fields=*/false, open_);
  return Status::OK();
}

Result<size_t> TypedSerializedSize(const Value& v, const DatatypePtr& type) {
  BytesWriter w;
  Status st = SerializeTyped(v, type, &w);
  if (!st.ok()) return st;
  return w.size();
}

void SerializeNormalizedKey(const Value& v, BytesWriter* w) {
  w->PutU8(TypeGroup(v.tag()));
  switch (v.tag()) {
    case TypeTag::kMissing:
    case TypeTag::kNull:
    case TypeTag::kAny:
      return;
    case TypeTag::kBoolean:
      w->PutU8(v.AsBoolean() ? 1 : 0);
      return;
    case TypeTag::kInt8:
    case TypeTag::kInt16:
    case TypeTag::kInt32:
    case TypeTag::kInt64:
      // Integers widen to int64 so equal numerics of different widths encode
      // identically.
      w->PutU8(0);
      w->PutI64(v.AsInt());
      return;
    case TypeTag::kFloat:
    case TypeTag::kDouble: {
      // Integral floats within int64 range take the integer form (the same
      // normalization Value::Hash applies); everything else keeps its bits.
      double d = v.AsDouble();
      double integral;
      if (std::modf(d, &integral) == 0.0 && integral >= -9.2e18 &&
          integral <= 9.2e18) {
        w->PutU8(0);
        w->PutI64(static_cast<int64_t>(integral));
      } else {
        w->PutU8(1);
        w->PutF64(d);
      }
      return;
    }
    case TypeTag::kString:
      w->PutString(v.AsString());
      return;
    case TypeTag::kDate:
    case TypeTag::kTime:
    case TypeTag::kDatetime:
    case TypeTag::kYearMonthDuration:
    case TypeTag::kDayTimeDuration:
      w->PutI64(v.AsInt());
      return;
    case TypeTag::kDuration:
    case TypeTag::kUuid:
      w->PutI64(v.AsInt());
      w->PutI64(v.AsInt2());
      return;
    case TypeTag::kInterval:
      w->PutU8(static_cast<uint8_t>(v.interval_point_tag()));
      w->PutI64(v.AsInt());
      w->PutI64(v.AsInt2());
      return;
    case TypeTag::kPoint:
    case TypeTag::kLine:
    case TypeTag::kRectangle:
    case TypeTag::kPolygon:
    case TypeTag::kCircle: {
      const auto& pts = v.AsPoints();
      w->PutVarint(pts.size());
      for (const auto& p : pts) {
        w->PutF64(p.x);
        w->PutF64(p.y);
      }
      if (v.tag() == TypeTag::kCircle) w->PutF64(v.circle_radius());
      return;
    }
    case TypeTag::kBag:
    case TypeTag::kOrderedList: {
      const auto& items = v.AsList();
      w->PutVarint(items.size());
      for (const auto& item : items) SerializeNormalizedKey(item, w);
      return;
    }
    case TypeTag::kRecord: {
      // Sorted field order, matching Compare()'s order-insensitive record
      // equality.
      const auto& fields = v.AsRecord().fields;
      std::vector<const std::pair<std::string, Value>*> sorted;
      sorted.reserve(fields.size());
      for (const auto& f : fields) sorted.push_back(&f);
      std::sort(sorted.begin(), sorted.end(),
                [](const auto* a, const auto* b) { return a->first < b->first; });
      w->PutVarint(sorted.size());
      for (const auto* f : sorted) {
        w->PutString(f->first);
        SerializeNormalizedKey(f->second, w);
      }
      return;
    }
  }
}

}  // namespace adm
}  // namespace asterix
