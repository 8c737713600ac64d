#ifndef ASTERIX_AQL_PARSER_H_
#define ASTERIX_AQL_PARSER_H_

#include <functional>
#include <string>
#include <vector>

#include "aql/ast.h"
#include "aql/lexer.h"

namespace asterix {
namespace aql {

/// A stored user-defined function (AQL UDFs are "views with parameters").
/// Bodies are kept as source text and re-parsed/inlined at call sites.
struct FunctionDef {
  std::string dataverse;
  std::string name;
  std::vector<std::string> params;
  std::string body;
};

/// Session state threaded through parsing: the active dataverse, fuzzy
/// matching semantics (`set simfunction/simthreshold`), and UDF lookup.
struct ParserContext {
  std::string dataverse = "Default";
  std::string sim_function = "jaccard";
  double sim_threshold = 0.5;
  std::function<const FunctionDef*(const std::string& dataverse,
                                   const std::string& name, size_t arity)>
      find_function;
};

/// Parses an AQL script (one or more statements). Queries come back as
/// Algebricks logical plans; `set` and `use` statements mutate `ctx` as
/// they are encountered, matching AQL's statement-prologue semantics.
Result<std::vector<Statement>> ParseAql(const std::string& text,
                                        ParserContext* ctx);

/// Applies a `use dataverse` or `set` statement to `ctx`, as the parser
/// does when it meets one; any other statement leaves `ctx` unchanged.
void ApplySessionStatement(const Statement& st, ParserContext* ctx);

/// Parses a single standalone AQL expression (used to inline UDF bodies and
/// by tests).
Result<algebricks::ExprPtr> ParseAqlExpression(const std::string& text,
                                               ParserContext* ctx);

}  // namespace aql
}  // namespace asterix

#endif  // ASTERIX_AQL_PARSER_H_
