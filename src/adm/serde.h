#ifndef ASTERIX_ADM_SERDE_H_
#define ASTERIX_ADM_SERDE_H_

#include <string>
#include <string_view>
#include <vector>

#include "adm/type.h"
#include "adm/value.h"
#include "common/bytes.h"
#include "common/status.h"

namespace asterix {
namespace adm {

/// Schemaless ("self-describing") serialization: every value carries its
/// type tag, records carry their field names. This is what a schema-free
/// document store must always pay, and what ADM pays only for *open*
/// (undeclared) content.
void SerializeValue(const Value& v, BytesWriter* w);
Status DeserializeValue(BytesReader* r, Value* out);

/// Schema-aware serialization. Declared record fields are written
/// positionally (1-byte presence + untagged payload for concrete primitive
/// fields), so their names and tags cost nothing per instance; open fields
/// fall back to (name, tagged value) pairs. The difference between a fully
/// declared type and a key-only open type is the Schema-vs-KeyOnly size gap
/// the paper reports in Table 2.
Status SerializeTyped(const Value& v, const DatatypePtr& type, BytesWriter* w);
Status DeserializeTyped(BytesReader* r, const DatatypePtr& type, Value* out);

/// Step over one serialized value without building it: SkipValue over the
/// self-describing encoding, SkipTyped over the schema-aware one. Truncated
/// input returns Corruption.
Status SkipValue(BytesReader* r);
Status SkipTyped(BytesReader* r, const DatatypePtr& type);

/// Schema-aware decoding of only some top-level fields of a record. The
/// plan is built once per (type, field list): a flag per declared field and
/// the wanted names no declared field carries, which are the only ones
/// looked for among a record's open fields. Decode yields the wanted fields
/// in record order (declared fields, then open fields as stored) and steps
/// over the rest in place. When no open field is wanted it stops after the
/// last wanted declared field, so an empty field list decodes nothing.
/// The result equals deserializing the whole record and then keeping the
/// wanted fields (KeepFields); a non-record value decodes whole, and so
/// does a self-describing (untyped) image before its fields are filtered.
/// DecodeFields yields the wanted fields' values alone, with no record
/// around them (a scan's key-first test reads its keys this way).
class ProjectedDecoder {
 public:
  /// `all_fields` decodes whole values (DeserializeTyped); otherwise only
  /// the top-level fields named in `fields`.
  ProjectedDecoder(DatatypePtr type, bool all_fields,
                   const std::vector<std::string>& fields);

  Status Decode(BytesReader* r, Value* out) const;

  /// The values of the wanted fields, `(*out)[i]` for the i-th name given
  /// to the constructor: MISSING when absent, NULL when null. `out` is
  /// resized to the field count. Needs an explicit field list.
  Status DecodeFields(BytesReader* r, std::vector<Value>* out) const;

 private:
  Status DecodeSchemaless(BytesReader* r, Value* out) const;
  /// Walks a typed record image, stepping over unwanted fields in place and
  /// handing each wanted one to `take(position, name, value)`.
  template <typename Take>
  Status ForEachWanted(BytesReader* r, Take&& take) const;
  /// The wanted position of an open field's name, or -1.
  int OpenSlot(std::string_view name) const;

  DatatypePtr type_;
  bool all_fields_;
  size_t num_fields_ = 0;          // how many names were wanted
  std::vector<int> declared_;      // per declared field: its wanted position,
                                   // or -1 when not wanted
  size_t declared_end_ = 0;        // one past the last wanted declared field
  std::vector<std::string> open_;  // wanted names that are not declared
  std::vector<int> open_slots_;    // their wanted positions
};

/// Serialized size helper (schema-aware).
Result<size_t> TypedSerializedSize(const Value& v, const DatatypePtr& type);

/// Equality-normalized key serialization for hash tables: two values produce
/// byte-identical output iff they are equal under Value::Compare (numerics
/// are normalized across widths the same way Value::Hash normalizes them, so
/// int32 5, int64 5 and double 5.0 all encode identically; record fields are
/// written in sorted-name order). The encoding is NOT order-preserving and
/// NOT invertible — it exists so hash joins/aggregations can replace deep
/// Value hashing/equality with one 64-bit hash plus one memcmp per probe.
void SerializeNormalizedKey(const Value& v, BytesWriter* w);

}  // namespace adm
}  // namespace asterix

#endif  // ASTERIX_ADM_SERDE_H_
