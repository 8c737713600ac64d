#include "adm/adm_parser.h"

#include <cctype>
#include <cstdlib>
#include <string>

#include "adm/temporal.h"
#include "common/string_utils.h"

namespace asterix {
namespace adm {

namespace {

/// Recursive-descent parser over ADM text.
class AdmParser {
 public:
  explicit AdmParser(std::string_view text) : text_(text) {}

  Status ParseValue(Value* out);

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }
  size_t position() const { return pos_; }

 private:
  Status Fail(const std::string& what) {
    return Status::ParseError(what + " at offset " + std::to_string(pos_) +
                              " in ADM text");
  }
  char Peek() { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Consume(char c) {
    SkipWs();
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeWord(std::string_view w) {
    SkipWs();
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Status ParseString(std::string* out);
  Status ParseNumber(Value* out);
  Status ParseRecord(Value* out);
  Status ParseList(Value* out, bool bag);
  Status ParseIdentifier(std::string* out);

  std::string_view text_;
  size_t pos_ = 0;
};

Status AdmParser::ParseString(std::string* out) {
  SkipWs();
  char quote = Peek();
  if (quote != '"' && quote != '\'') return Fail("expected string");
  ++pos_;
  out->clear();
  while (pos_ < text_.size() && text_[pos_] != quote) {
    char c = text_[pos_++];
    if (c == '\\' && pos_ < text_.size()) {
      char e = text_[pos_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case '/': out->push_back('/'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return Fail("bad \\u escape");
          }
          // UTF-8 encode (BMP only).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: out->push_back(e);
      }
    } else if (static_cast<unsigned char>(c) < 0x20) {
      // As in JSON: control characters must be escaped.
      return Fail("unescaped control character in string");
    } else {
      out->push_back(c);
    }
  }
  if (pos_ >= text_.size()) return Fail("unterminated string");
  ++pos_;  // closing quote
  return Status::OK();
}

Status AdmParser::ParseNumber(Value* out) {
  SkipWs();
  size_t start = pos_;
  if (Peek() == '-' || Peek() == '+') ++pos_;
  bool is_float = false;
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      ++pos_;
    } else if (c == '.' || c == 'e' || c == 'E') {
      is_float = true;
      ++pos_;
      if ((c == 'e' || c == 'E') && (Peek() == '-' || Peek() == '+')) ++pos_;
    } else {
      break;
    }
  }
  if (pos_ == start) return Fail("expected number");
  std::string num(text_.substr(start, pos_ - start));
  // Width suffixes: i8 i16 i32 i64, f for float, d for double.
  if (!is_float && text_.substr(pos_, 3) == "i64") {
    pos_ += 3;
    *out = Value::Int64(std::strtoll(num.c_str(), nullptr, 10));
    return Status::OK();
  }
  if (!is_float && text_.substr(pos_, 3) == "i32") {
    pos_ += 3;
    *out = Value::Int32(static_cast<int32_t>(std::strtoll(num.c_str(), nullptr, 10)));
    return Status::OK();
  }
  if (!is_float && text_.substr(pos_, 3) == "i16") {
    pos_ += 3;
    *out = Value::Int16(static_cast<int16_t>(std::strtoll(num.c_str(), nullptr, 10)));
    return Status::OK();
  }
  if (!is_float && text_.substr(pos_, 2) == "i8") {
    pos_ += 2;
    *out = Value::Int8(static_cast<int8_t>(std::strtoll(num.c_str(), nullptr, 10)));
    return Status::OK();
  }
  if (Peek() == 'f') {
    ++pos_;
    *out = Value::Float(std::strtof(num.c_str(), nullptr));
    return Status::OK();
  }
  if (Peek() == 'd') {
    ++pos_;
    *out = Value::Double(std::strtod(num.c_str(), nullptr));
    return Status::OK();
  }
  if (is_float) {
    *out = Value::Double(std::strtod(num.c_str(), nullptr));
  } else {
    *out = Value::Int64(std::strtoll(num.c_str(), nullptr, 10));
  }
  return Status::OK();
}

Status AdmParser::ParseIdentifier(std::string* out) {
  SkipWs();
  size_t start = pos_;
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
        c == '$') {
      ++pos_;
    } else {
      break;
    }
  }
  if (pos_ == start) return Fail("expected identifier");
  out->assign(text_.substr(start, pos_ - start));
  return Status::OK();
}

Status AdmParser::ParseRecord(Value* out) {
  // '{' already consumed by caller.
  std::vector<std::pair<std::string, Value>> fields;
  SkipWs();
  if (Consume('}')) {
    *out = Value::Record(std::move(fields));
    return Status::OK();
  }
  while (true) {
    std::string name;
    SkipWs();
    if (Peek() == '"' || Peek() == '\'') {
      ASTERIX_RETURN_NOT_OK(ParseString(&name));
    } else {
      ASTERIX_RETURN_NOT_OK(ParseIdentifier(&name));
    }
    if (!Consume(':')) return Fail("expected ':' in record");
    Value v;
    ASTERIX_RETURN_NOT_OK(ParseValue(&v));
    fields.emplace_back(std::move(name), std::move(v));
    if (Consume(',')) continue;
    if (Consume('}')) break;
    return Fail("expected ',' or '}' in record");
  }
  *out = Value::Record(std::move(fields));
  return Status::OK();
}

Status AdmParser::ParseList(Value* out, bool bag) {
  std::vector<Value> items;
  SkipWs();
  if (bag) {
    SkipWs();
    if (text_.substr(pos_, 2) == "}}") {
      pos_ += 2;
      *out = Value::Bag(std::move(items));
      return Status::OK();
    }
  } else if (Consume(']')) {
    *out = Value::OrderedList(std::move(items));
    return Status::OK();
  }
  while (true) {
    Value v;
    ASTERIX_RETURN_NOT_OK(ParseValue(&v));
    items.push_back(std::move(v));
    if (Consume(',')) continue;
    SkipWs();
    if (bag) {
      if (text_.substr(pos_, 2) == "}}") {
        pos_ += 2;
        break;
      }
      return Fail("expected ',' or '}}' in bag");
    }
    if (Consume(']')) break;
    return Fail("expected ',' or ']' in list");
  }
  *out = bag ? Value::Bag(std::move(items)) : Value::OrderedList(std::move(items));
  return Status::OK();
}

Status AdmParser::ParseValue(Value* out) {
  SkipWs();
  if (pos_ >= text_.size()) return Fail("unexpected end of input");
  char c = Peek();
  if (c == '{') {
    if (text_.substr(pos_, 2) == "{{") {
      pos_ += 2;
      return ParseList(out, /*bag=*/true);
    }
    ++pos_;
    return ParseRecord(out);
  }
  if (c == '[') {
    ++pos_;
    return ParseList(out, /*bag=*/false);
  }
  if (c == '"' || c == '\'') {
    std::string s;
    ASTERIX_RETURN_NOT_OK(ParseString(&s));
    *out = Value::String(std::move(s));
    return Status::OK();
  }
  if (c == '-' || c == '+' || std::isdigit(static_cast<unsigned char>(c))) {
    return ParseNumber(out);
  }
  if (ConsumeWord("true")) {
    *out = Value::Boolean(true);
    return Status::OK();
  }
  if (ConsumeWord("false")) {
    *out = Value::Boolean(false);
    return Status::OK();
  }
  if (ConsumeWord("null")) {
    *out = Value::Null();
    return Status::OK();
  }
  if (ConsumeWord("missing")) {
    *out = Value::Missing();
    return Status::OK();
  }
  // Constructor form: typename("payload"). Intervals take two nested
  // temporal constructors: interval(datetime("..."), datetime("...")).
  std::string ident;
  ASTERIX_RETURN_NOT_OK(ParseIdentifier(&ident));
  if (!Consume('(')) return Fail("expected '(' after constructor " + ident);
  if (ident == "interval") {
    Value start, end;
    ASTERIX_RETURN_NOT_OK(ParseValue(&start));
    if (!Consume(',')) return Fail("expected ',' in interval");
    ASTERIX_RETURN_NOT_OK(ParseValue(&end));
    if (!Consume(')')) return Fail("expected ')' after interval");
    if (start.tag() != end.tag() || !IsTemporalPointTag(start.tag())) {
      return Fail("interval bounds must be matching temporal values");
    }
    *out = Value::Interval(start.tag(), start.AsInt(), end.AsInt());
    return Status::OK();
  }
  std::string payload;
  ASTERIX_RETURN_NOT_OK(ParseString(&payload));
  if (!Consume(')')) return Fail("expected ')' after constructor payload");
  return ParseConstructor(ident, payload, out);
}

Status ParsePointPayload(std::string_view s, GeoPoint* p) {
  auto parts = SplitString(s, ',');
  if (parts.size() != 2) {
    return Status::ParseError("bad point payload: " + std::string(s));
  }
  p->x = std::strtod(parts[0].c_str(), nullptr);
  p->y = std::strtod(parts[1].c_str(), nullptr);
  return Status::OK();
}

// Splits "x1,y1 x2,y2 ..." into points.
Status ParsePointsPayload(std::string_view s, std::vector<GeoPoint>* pts) {
  pts->clear();
  size_t pos = 0;
  while (pos < s.size()) {
    while (pos < s.size() && s[pos] == ' ') ++pos;
    if (pos >= s.size()) break;
    size_t end = s.find(' ', pos);
    if (end == std::string_view::npos) end = s.size();
    GeoPoint p;
    ASTERIX_RETURN_NOT_OK(ParsePointPayload(s.substr(pos, end - pos), &p));
    pts->push_back(p);
    pos = end;
  }
  return Status::OK();
}

}  // namespace

Status ParseConstructor(std::string_view type_name, std::string_view payload,
                        Value* out) {
  if (type_name == "date") {
    int32_t days;
    ASTERIX_RETURN_NOT_OK(ParseDate(payload, &days));
    *out = Value::Date(days);
    return Status::OK();
  }
  if (type_name == "time") {
    int32_t millis;
    ASTERIX_RETURN_NOT_OK(ParseTime(payload, &millis));
    *out = Value::Time(millis);
    return Status::OK();
  }
  if (type_name == "datetime") {
    int64_t millis;
    ASTERIX_RETURN_NOT_OK(ParseDatetime(payload, &millis));
    *out = Value::Datetime(millis);
    return Status::OK();
  }
  if (type_name == "duration") {
    int32_t months;
    int64_t millis;
    ASTERIX_RETURN_NOT_OK(ParseDuration(payload, &months, &millis));
    *out = Value::Duration(months, millis);
    return Status::OK();
  }
  if (type_name == "year-month-duration") {
    int32_t months;
    int64_t millis;
    ASTERIX_RETURN_NOT_OK(ParseDuration(payload, &months, &millis));
    if (millis != 0) {
      return Status::ParseError("year-month-duration cannot carry sub-month parts");
    }
    *out = Value::YearMonthDuration(months);
    return Status::OK();
  }
  if (type_name == "day-time-duration") {
    int32_t months;
    int64_t millis;
    ASTERIX_RETURN_NOT_OK(ParseDuration(payload, &months, &millis));
    if (months != 0) {
      return Status::ParseError("day-time-duration cannot carry months");
    }
    *out = Value::DayTimeDuration(millis);
    return Status::OK();
  }
  if (type_name == "point") {
    GeoPoint p;
    ASTERIX_RETURN_NOT_OK(ParsePointPayload(payload, &p));
    *out = Value::Point(p.x, p.y);
    return Status::OK();
  }
  if (type_name == "line" || type_name == "rectangle") {
    std::vector<GeoPoint> pts;
    ASTERIX_RETURN_NOT_OK(ParsePointsPayload(payload, &pts));
    if (pts.size() != 2) {
      return Status::ParseError(std::string(type_name) + " needs 2 points");
    }
    *out = type_name == "line" ? Value::Line(pts[0], pts[1])
                               : Value::Rectangle(pts[0], pts[1]);
    return Status::OK();
  }
  if (type_name == "circle") {
    // "cx,cy radius"
    size_t sp = payload.rfind(' ');
    if (sp == std::string_view::npos) {
      return Status::ParseError("circle needs 'cx,cy r'");
    }
    GeoPoint c;
    ASTERIX_RETURN_NOT_OK(ParsePointPayload(payload.substr(0, sp), &c));
    double r = std::strtod(std::string(payload.substr(sp + 1)).c_str(), nullptr);
    *out = Value::Circle(c, r);
    return Status::OK();
  }
  if (type_name == "polygon") {
    std::vector<GeoPoint> pts;
    ASTERIX_RETURN_NOT_OK(ParsePointsPayload(payload, &pts));
    if (pts.size() < 3) return Status::ParseError("polygon needs >= 3 points");
    *out = Value::Polygon(std::move(pts));
    return Status::OK();
  }
  if (type_name == "uuid") {
    if (payload.size() < 32) return Status::ParseError("bad uuid payload");
    std::string hex;
    for (char c : payload) {
      if (c != '-') hex.push_back(c);
    }
    if (hex.size() != 32) return Status::ParseError("bad uuid payload");
    uint64_t hi = std::strtoull(hex.substr(0, 16).c_str(), nullptr, 16);
    uint64_t lo = std::strtoull(hex.substr(16).c_str(), nullptr, 16);
    *out = Value::Uuid(hi, lo);
    return Status::OK();
  }
  if (type_name == "string") {
    *out = Value::String(std::string(payload));
    return Status::OK();
  }
  if (type_name == "int8" || type_name == "int16" || type_name == "int32" ||
      type_name == "int64") {
    int64_t v = std::strtoll(std::string(payload).c_str(), nullptr, 10);
    if (type_name == "int8") *out = Value::Int8(static_cast<int8_t>(v));
    else if (type_name == "int16") *out = Value::Int16(static_cast<int16_t>(v));
    else if (type_name == "int32") *out = Value::Int32(static_cast<int32_t>(v));
    else *out = Value::Int64(v);
    return Status::OK();
  }
  if (type_name == "float" || type_name == "double") {
    double v = std::strtod(std::string(payload).c_str(), nullptr);
    *out = type_name == "float" ? Value::Float(static_cast<float>(v))
                                : Value::Double(v);
    return Status::OK();
  }
  if (type_name == "boolean") {
    *out = Value::Boolean(payload == "true");
    return Status::OK();
  }
  return Status::ParseError("unknown constructor: " + std::string(type_name));
}

Status ParseAdm(std::string_view text, Value* out) {
  AdmParser p(text);
  ASTERIX_RETURN_NOT_OK(p.ParseValue(out));
  if (!p.AtEnd()) {
    return Status::ParseError("trailing characters after ADM value at offset " +
                              std::to_string(p.position()));
  }
  return Status::OK();
}

Status ParseAdmSequence(std::string_view text, std::vector<Value>* out) {
  AdmParser p(text);
  out->clear();
  while (!p.AtEnd()) {
    Value v;
    ASTERIX_RETURN_NOT_OK(p.ParseValue(&v));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

}  // namespace adm
}  // namespace asterix
