#include "functions/aggregates.h"

#include "functions/arith.h"

namespace asterix {
namespace functions {

namespace {

class CountAggregator : public Aggregator {
 public:
  void Add(const Value& v) override {
    // count counts all non-missing items (nulls included), matching AQL.
    if (!v.IsMissing()) ++count_;
  }
  Value Finish() override { return Value::Int64(count_); }
  Value Partial() override { return Value::Int64(count_); }
  void Combine(const Value& partial) override {
    if (!partial.IsUnknown()) count_ += partial.AsInt();
  }

 private:
  int64_t count_ = 0;
};

class MinMaxAggregator : public Aggregator {
 public:
  MinMaxAggregator(bool is_min, bool sql) : is_min_(is_min), sql_(sql) {}

  void Add(const Value& v) override {
    if (v.IsUnknown()) {
      if (!sql_) saw_null_ = true;
      return;
    }
    if (!has_value_ || (is_min_ ? v.Compare(best_) < 0 : v.Compare(best_) > 0)) {
      best_ = v;
      has_value_ = true;
    }
  }
  Value Finish() override {
    if (saw_null_) return Value::Null();
    return has_value_ ? best_ : Value::Null();
  }
  Value Partial() override {
    return Value::Record({{"v", Finish()},
                          {"null", Value::Boolean(saw_null_)},
                          {"has", Value::Boolean(has_value_)}});
  }
  void Combine(const Value& partial) override {
    if (partial.GetField("null").AsBoolean()) saw_null_ = true;
    if (partial.GetField("has").AsBoolean()) Add(partial.GetField("v"));
  }

 private:
  bool is_min_;
  bool sql_;
  bool has_value_ = false;
  bool saw_null_ = false;
  Value best_;
};

class SumAvgAggregator : public Aggregator {
 public:
  SumAvgAggregator(bool is_avg, bool sql) : is_avg_(is_avg), sql_(sql) {}

  void Add(const Value& v) override {
    if (v.IsUnknown()) {
      if (!sql_) saw_null_ = true;
      return;
    }
    double d;
    if (!v.GetNumeric(&d)) {
      // Non-numeric input poisons the aggregate as unknown.
      saw_null_ = true;
      return;
    }
    sum_ += d;
    ++count_;
  }
  Value Finish() override {
    if (saw_null_) return Value::Null();
    if (count_ == 0) return Value::Null();
    return is_avg_ ? Value::Double(sum_ / static_cast<double>(count_))
                   : Value::Double(sum_);
  }
  Value Partial() override {
    return Value::Record({{"sum", Value::Double(sum_)},
                          {"cnt", Value::Int64(count_)},
                          {"null", Value::Boolean(saw_null_)}});
  }
  void Combine(const Value& partial) override {
    if (partial.GetField("null").AsBoolean()) saw_null_ = true;
    sum_ += partial.GetField("sum").AsDouble();
    count_ += partial.GetField("cnt").AsInt();
  }

 private:
  bool is_avg_;
  bool sql_;
  double sum_ = 0;
  int64_t count_ = 0;
  bool saw_null_ = false;
};

// Collects every value fed, MISSING and NULL included, in arrival order. The
// partial state is the bag itself, so Combine concatenates.
class ListifyAggregator : public Aggregator {
 public:
  void Add(const Value& v) override { items_.push_back(v); }
  Value Finish() override { return Value::Bag(std::move(items_)); }
  Value Partial() override { return Finish(); }
  void Combine(const Value& partial) override {
    const auto& items = partial.AsList();
    items_.insert(items_.end(), items.begin(), items.end());
  }
  bool Collects() const override { return true; }

 private:
  std::vector<Value> items_;
};

}  // namespace

std::unique_ptr<Aggregator> MakeAggregator(const std::string& name) {
  bool sql = name.rfind("sql-", 0) == 0;
  std::string base = sql ? name.substr(4) : name;
  if (base == "count") return std::make_unique<CountAggregator>();
  if (base == "min") return std::make_unique<MinMaxAggregator>(true, sql);
  if (base == "max") return std::make_unique<MinMaxAggregator>(false, sql);
  if (base == "sum") return std::make_unique<SumAvgAggregator>(false, sql);
  if (base == "avg") return std::make_unique<SumAvgAggregator>(true, sql);
  if (name == kListify) return std::make_unique<ListifyAggregator>();
  return nullptr;
}

bool IsAggregateName(const std::string& name) {
  bool sql = name.rfind("sql-", 0) == 0;
  std::string base = sql ? name.substr(4) : name;
  return base == "count" || base == "min" || base == "max" || base == "sum" ||
         base == "avg";
}

Result<Value> AggregateCollection(const std::string& name, const Value& coll) {
  if (coll.IsUnknown()) return Value::Null();
  if (!coll.IsList()) {
    return Status::TypeError("aggregate " + name + " expects a collection, got " +
                             adm::TypeTagName(coll.tag()));
  }
  auto agg = MakeAggregator(name);
  if (!agg) return Status::InvalidArgument("unknown aggregate: " + name);
  for (const auto& item : coll.AsList()) agg->Add(item);
  return agg->Finish();
}

}  // namespace functions
}  // namespace asterix
