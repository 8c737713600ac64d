#ifndef ASTERIX_FUNCTIONS_AGGREGATES_H_
#define ASTERIX_FUNCTIONS_AGGREGATES_H_

#include <memory>
#include <string>

#include "adm/value.h"
#include "common/status.h"

namespace asterix {
namespace functions {

using adm::Value;

/// Incremental aggregate state machine, used by both the scalar aggregate
/// functions (over a collection argument, e.g. `avg(subquery)`) and the
/// group-by / local-global aggregation operators in the runtime.
///
/// AQL semantics: a NULL in the input makes min/max/avg/sum NULL ("proper"
/// unknown propagation). SQL semantics (the `sql-*` variants): NULLs are
/// skipped, the aggregate is over the non-null values. MISSING is treated
/// like NULL.
class Aggregator {
 public:
  virtual ~Aggregator() = default;
  virtual void Add(const Value& v) = 0;
  /// Finish and Partial end the aggregator's life: each is called at most
  /// once, last, and may hand over the state instead of copying it.
  virtual Value Finish() = 0;

  /// Intermediate state for local/global splitting. Local sides emit
  /// `Partial()` records; global sides consume them via `Combine()`.
  /// For avg the partial is {sum, count, sawNull}; for count it is a count
  /// that the global side must *sum*, which is why global-count != count.
  virtual Value Partial() = 0;
  virtual void Combine(const Value& partial) = 0;

  /// True when the state keeps every value fed (listify), so it grows with
  /// the input and its partial is a bag of those values; every other
  /// aggregator's state has a fixed size.
  virtual bool Collects() const { return false; }
};

/// The aggregate behind `group by ... with $v`: it collects every value fed
/// into a bag, MISSING and NULL included, in arrival order. Internal to the
/// compiler; not an AQL function name.
inline constexpr char kListify[] = "listify";

/// Creates an aggregator: name is one of count/min/max/sum/avg, the sql-
/// prefixed variants, or kListify. Returns nullptr for unknown names.
std::unique_ptr<Aggregator> MakeAggregator(const std::string& name);

/// True if `name` names an aggregate function.
bool IsAggregateName(const std::string& name);

/// Evaluates the scalar form over an ADM collection value (bag/ordered
/// list); non-collection input yields TypeError, NULL input yields NULL.
Result<Value> AggregateCollection(const std::string& name, const Value& coll);

}  // namespace functions
}  // namespace asterix

#endif  // ASTERIX_FUNCTIONS_AGGREGATES_H_
