#ifndef ASTERIX_ALGEBRICKS_RULES_H_
#define ASTERIX_ALGEBRICKS_RULES_H_

#include <string>
#include <vector>

#include "algebricks/logical.h"

namespace asterix {
namespace algebricks {

/// What the optimizer knows about datasets when choosing access paths —
/// kept data-model-neutral (no storage dependency) per the Algebricks
/// layering.
struct CatalogIndex {
  enum class Kind { kBTree, kRTree, kKeyword, kNgram };
  std::string name;
  Kind kind = Kind::kBTree;
  std::vector<std::string> fields;
  size_t gram_length = 3;
};

struct CatalogDataset {
  std::string qualified_name;  // "Dataverse.Dataset"
  std::vector<std::string> pk_fields;
  std::vector<CatalogIndex> indexes;
};

class RuleCatalog {
 public:
  virtual ~RuleCatalog() = default;
  virtual const CatalogDataset* FindDataset(const std::string& qualified) const = 0;
};

/// The paper: AsterixDB has no cost-based optimizer; instead a set of
/// "safe" rules — (a) always use index-based access for selections when an
/// index exists, (b) always pick parallel hash joins for equijoins — plus
/// user hints for overrides. These switches are the rules the tests and
/// ablation benches turn off; every other rule always runs.
struct OptimizerOptions {
  bool use_indexes = true;
  /// Consulted by the physical generator (not a logical rewrite): split
  /// aggregates into local/global pairs (Figure 6).
  bool split_aggregation = true;
  /// Consulted by the physical generator: lower filter/aggregate pipelines
  /// over columnar scans to typed-batch vector operators when every
  /// expression has a kernel. Semantics are interpreter-exact; turning this
  /// off forces the row-at-a-time operators everywhere.
  bool vectorized_execution = true;
};

/// Runs the rewrite pipeline over (a copy of) the plan.
Result<LogicalOpPtr> Optimize(const LogicalOpPtr& plan,
                              const RuleCatalog& catalog,
                              const OptimizerOptions& options);

/// Names of the rewrite rules, in application order (EXPLAIN/debugging).
std::vector<std::string> RuleNames();

}  // namespace algebricks
}  // namespace asterix

#endif  // ASTERIX_ALGEBRICKS_RULES_H_
