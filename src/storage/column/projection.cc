#include "storage/column/projection.h"

#include <algorithm>

namespace asterix {
namespace storage {
namespace column {

bool Projection::Wants(std::string_view name) const {
  if (all_fields) return true;
  return std::find(fields.begin(), fields.end(), name) != fields.end();
}

std::string Projection::ToString() const {
  std::string out;
  if (!all_fields) {
    out += "project=[";
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i) out += ",";
      out += fields[i];
    }
    out += "]";
  }
  if (!ranges.empty()) {
    if (!out.empty()) out += " ";
    out += "range=[";
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (i) out += ",";
      const FieldRange& r = ranges[i];
      out += r.field;
      if (r.lo.has_value() && r.hi.has_value() &&
          r.lo->Equals(*r.hi) && r.lo_inclusive && r.hi_inclusive) {
        out += "=" + r.lo->ToString();
        continue;
      }
      if (r.lo.has_value()) {
        out += (r.lo_inclusive ? ">=" : ">") + r.lo->ToString();
      }
      if (r.hi.has_value()) {
        if (r.lo.has_value()) out += "&";
        out += (r.hi_inclusive ? "<=" : "<") + r.hi->ToString();
      }
    }
    out += "]";
  }
  return out;
}

bool RangeMayMatch(const FieldRange& r, const adm::Value& min,
                   const adm::Value& max) {
  if (r.lo.has_value()) {
    int c = max.Compare(*r.lo);
    if (c < 0 || (c == 0 && !r.lo_inclusive)) return false;
  }
  if (r.hi.has_value()) {
    int c = min.Compare(*r.hi);
    if (c > 0 || (c == 0 && !r.hi_inclusive)) return false;
  }
  return true;
}

bool SameCompareClass(adm::TypeTag a, adm::TypeTag b) {
  if (adm::IsNumericTag(a) && adm::IsNumericTag(b)) return true;
  if (a != b) return false;
  return a == adm::TypeTag::kString || adm::IsTemporalPointTag(a);
}

}  // namespace column
}  // namespace storage
}  // namespace asterix
