#include "algebricks/physical.h"

#include <algorithm>
#include <set>

#include "functions/aggregates.h"
#include "functions/arith.h"
#include "functions/builtins.h"
#include "functions/similarity.h"
#include "functions/spatial.h"

namespace asterix {
namespace algebricks {

using adm::Value;
using hyracks::ConnectorType;
using hyracks::JobSpec;
using hyracks::Tuple;
using hyracks::TupleCompare;
using hyracks::TupleEval;

namespace {

// Splits a join condition into equi-key pairs (left expr, right expr) and a
// residual conjunction. `left_vars`/`right_vars` identify the sides.
void SplitJoinCondition(const ExprPtr& cond,
                        const std::vector<std::string>& left_vars,
                        const std::vector<std::string>& right_vars,
                        std::vector<std::pair<ExprPtr, ExprPtr>>* equi,
                        std::vector<ExprPtr>* residual) {
  if (!cond) return;
  if (cond->kind == Expr::Kind::kAnd) {
    SplitJoinCondition(cond->args[0], left_vars, right_vars, equi, residual);
    SplitJoinCondition(cond->args[1], left_vars, right_vars, equi, residual);
    return;
  }
  auto subset = [](const ExprPtr& e, const std::vector<std::string>& vars) {
    std::vector<std::string> fv;
    e->CollectFreeVars(&fv);
    if (fv.empty()) return false;  // constants are not join keys
    for (const auto& v : fv) {
      if (std::find(vars.begin(), vars.end(), v) == vars.end()) return false;
    }
    return true;
  };
  if (cond->kind == Expr::Kind::kCompare && cond->fn == "=") {
    if (subset(cond->args[0], left_vars) && subset(cond->args[1], right_vars)) {
      equi->emplace_back(cond->args[0], cond->args[1]);
      return;
    }
    if (subset(cond->args[1], left_vars) && subset(cond->args[0], right_vars)) {
      equi->emplace_back(cond->args[1], cond->args[0]);
      return;
    }
  }
  residual->push_back(cond);
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) acc = Expr::And(acc, conjuncts[i]);
  return acc;
}

// Hash function combining evaluated key expressions (must be identical on
// both sides of a partitioning pair).
std::function<uint64_t(const Tuple&)> HashOnEvals(std::vector<TupleEval> evals) {
  return [evals = std::move(evals)](const Tuple& t) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& e : evals) {
      auto v = e(t);
      h = v.ok() ? v.value().Hash(h) : h;
    }
    return h;
  };
}

TupleEval ColumnEval(int col) {
  return [col](const Tuple& t) -> Result<Value> {
    return t[static_cast<size_t>(col)];
  };
}

TupleCompare CompareOnColumns(std::vector<int> cols) {
  return [cols = std::move(cols)](const Tuple& a, const Tuple& b) {
    for (int c : cols) {
      int r = a[static_cast<size_t>(c)].Compare(b[static_cast<size_t>(c)]);
      if (r != 0) return r;
    }
    return 0;
  };
}

// --- Expression-to-kernel lowering -----------------------------------------
//
// Structural translation of the supported expression shapes into the vector
// kernel IR. Anything outside the supported set returns nullptr and the
// whole pipeline stays interpreted — the kernels themselves replicate
// interpreter semantics exactly for what IS lowered, so the two plans are
// observationally identical.

namespace vec = hyracks::vector;

bool HasField(const std::vector<std::string>& fields, const std::string& f) {
  return std::find(fields.begin(), fields.end(), f) != fields.end();
}

std::unique_ptr<vec::ValNode> LowerVal(const ExprPtr& e,
                                       const std::string& scan_var,
                                       const std::vector<std::string>& fields) {
  if (!e) return nullptr;
  switch (e->kind) {
    case Expr::Kind::kConst:
      return vec::Const(e->constant);
    case Expr::Kind::kFieldAccess: {
      // Only direct reads of the scan variable's projected fields become
      // lanes; a field outside the projection has no lane to read.
      if (!e->base || e->base->kind != Expr::Kind::kVar ||
          e->base->var != scan_var || !HasField(fields, e->field)) {
        return nullptr;
      }
      return vec::Field(e->field);
    }
    case Expr::Kind::kArith: {
      if (e->fn == "neg") {
        auto a = LowerVal(e->args[0], scan_var, fields);
        if (!a) return nullptr;
        return vec::Arith(vec::ValNode::Kind::kNeg, std::move(a), nullptr);
      }
      vec::ValNode::Kind k;
      if (e->fn == "+") k = vec::ValNode::Kind::kAdd;
      else if (e->fn == "-") k = vec::ValNode::Kind::kSub;
      else if (e->fn == "*") k = vec::ValNode::Kind::kMul;
      // Divide/modulo keep their error semantics in the interpreter.
      else return nullptr;
      auto a = LowerVal(e->args[0], scan_var, fields);
      auto b = LowerVal(e->args[1], scan_var, fields);
      if (!a || !b) return nullptr;
      return vec::Arith(k, std::move(a), std::move(b));
    }
    default:
      return nullptr;
  }
}

std::unique_ptr<vec::PredNode> LowerPred(const ExprPtr& e,
                                         const std::string& scan_var,
                                         const std::vector<std::string>& fields) {
  if (!e) return nullptr;
  switch (e->kind) {
    case Expr::Kind::kCompare: {
      vec::CmpOp op;
      if (e->fn == "=") op = vec::CmpOp::kEq;
      else if (e->fn == "!=") op = vec::CmpOp::kNe;
      else if (e->fn == "<") op = vec::CmpOp::kLt;
      else if (e->fn == "<=") op = vec::CmpOp::kLe;
      else if (e->fn == ">") op = vec::CmpOp::kGt;
      else if (e->fn == ">=") op = vec::CmpOp::kGe;
      else return nullptr;  // ~= and friends stay interpreted
      auto l = LowerVal(e->args[0], scan_var, fields);
      auto r = LowerVal(e->args[1], scan_var, fields);
      if (!l || !r) return nullptr;
      return vec::Cmp(op, std::move(l), std::move(r));
    }
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      auto a = LowerPred(e->args[0], scan_var, fields);
      auto b = LowerPred(e->args[1], scan_var, fields);
      if (!a || !b) return nullptr;
      return e->kind == Expr::Kind::kAnd ? vec::And(std::move(a), std::move(b))
                                         : vec::Or(std::move(a), std::move(b));
    }
    case Expr::Kind::kNot: {
      auto a = LowerPred(e->args[0], scan_var, fields);
      if (!a) return nullptr;
      return vec::Not(std::move(a));
    }
    default:
      return nullptr;
  }
}

/// The fields the optimizer pushed into `scan` (Projection::All() for a
/// whole-record scan) — what a primary fetch of its records materializes.
storage::column::Projection FetchProjection(const LogicalOp& scan) {
  return scan.scan_project_all
             ? storage::column::Projection::All()
             : storage::column::Projection::Of(scan.projected_fields);
}

/// FetchProjection plus the sargable ranges for columnar min/max page
/// skipping — what a scan of `scan`'s dataset reads, whole records included.
storage::column::Projection ScanProjection(const LogicalOp& scan) {
  storage::column::Projection proj = FetchProjection(scan);
  for (const auto& r : scan.scan_ranges) {
    storage::column::FieldRange fr;
    fr.field = r.field;
    fr.lo = r.lo;
    fr.hi = r.hi;
    fr.lo_inclusive = r.lo_inclusive;
    fr.hi_inclusive = r.hi_inclusive;
    proj.ranges.push_back(std::move(fr));
  }
  return proj;
}

/// Where a join input's row estimate stops counting index entries: enough
/// to tell a selective input from a large one, at a few index pages.
constexpr uint64_t kEstimateCap = 1024;

/// A scan's pushed ranges, one per field: the conjuncts `f >= a` and
/// `f < b` bound one range [a, b).
std::map<std::string, LogicalOp::ScanRange> RangesByField(
    const LogicalOp& scan) {
  std::map<std::string, LogicalOp::ScanRange> out;
  for (const auto& r : scan.scan_ranges) {
    auto [it, fresh] = out.emplace(r.field, r);
    if (fresh) continue;
    LogicalOp::ScanRange& m = it->second;
    if (r.lo) {
      int c = m.lo ? r.lo->Compare(*m.lo) : 1;
      if (c > 0) {
        m.lo = r.lo;
        m.lo_inclusive = r.lo_inclusive;
      } else if (c == 0) {
        m.lo_inclusive = m.lo_inclusive && r.lo_inclusive;
      }
    }
    if (r.hi) {
      int c = m.hi ? r.hi->Compare(*m.hi) : -1;
      if (c < 0) {
        m.hi = r.hi;
        m.hi_inclusive = r.hi_inclusive;
      } else if (c == 0) {
        m.hi_inclusive = m.hi_inclusive && r.hi_inclusive;
      }
    }
  }
  return out;
}

/// The scan at the bottom of a select chain, or null if the chain bottoms
/// out in anything else.
const LogicalOp* ScanUnderSelects(const LogicalOpPtr& op) {
  const LogicalOp* cur = op.get();
  while (cur->kind == LogicalOp::Kind::kSelect) cur = cur->inputs[0].get();
  return cur->kind == LogicalOp::Kind::kDataSourceScan ? cur : nullptr;
}

}  // namespace

namespace {

// Direct compilation of the common expression shapes into column closures,
// bypassing the environment-based reference evaluator: this is the "code
// generation" step that makes per-tuple work cheap on the hot paths
// (selections, join keys, aggregate arguments). Returns nullptr for shapes
// the fast path does not cover.
TupleEval TryCompileDirect(const ExprPtr& e,
                           const std::map<std::string, int>& schema) {
  using functions::Tri;
  switch (e->kind) {
    case Expr::Kind::kConst: {
      Value c = e->constant;
      return [c](const Tuple&) -> Result<Value> { return c; };
    }
    case Expr::Kind::kVar: {
      auto it = schema.find(e->var);
      if (it == schema.end()) return nullptr;
      size_t col = static_cast<size_t>(it->second);
      return [col](const Tuple& t) -> Result<Value> { return t[col]; };
    }
    case Expr::Kind::kFieldAccess: {
      TupleEval base = TryCompileDirect(e->base, schema);
      if (!base) return nullptr;
      std::string field = e->field;
      return [base, field](const Tuple& t) -> Result<Value> {
        auto b = base(t);
        if (!b.ok()) return b.status();
        return b.value().GetField(field);
      };
    }
    case Expr::Kind::kCompare: {
      TupleEval lhs = TryCompileDirect(e->args[0], schema);
      TupleEval rhs = TryCompileDirect(e->args[1], schema);
      if (!lhs || !rhs) return nullptr;
      std::string op = e->fn;
      return [lhs, rhs, op](const Tuple& t) -> Result<Value> {
        auto a = lhs(t);
        if (!a.ok()) return a.status();
        auto b = rhs(t);
        if (!b.ok()) return b.status();
        Tri r;
        if (op == "=") r = functions::EqualsTri(a.value(), b.value());
        else if (op == "!=")
          r = functions::TriNot(functions::EqualsTri(a.value(), b.value()));
        else if (op == "<") r = functions::LessTri(a.value(), b.value());
        else if (op == "<=") r = functions::LessEqTri(a.value(), b.value());
        else if (op == ">") r = functions::LessTri(b.value(), a.value());
        else r = functions::LessEqTri(b.value(), a.value());
        return functions::TriToValue(r);
      };
    }
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      TupleEval lhs = TryCompileDirect(e->args[0], schema);
      TupleEval rhs = TryCompileDirect(e->args[1], schema);
      if (!lhs || !rhs) return nullptr;
      bool is_and = e->kind == Expr::Kind::kAnd;
      return [lhs, rhs, is_and](const Tuple& t) -> Result<Value> {
        auto a = lhs(t);
        if (!a.ok()) return a.status();
        Tri ta = functions::ValueToTri(a.value());
        if (is_and && ta == Tri::kFalse) return Value::Boolean(false);
        if (!is_and && ta == Tri::kTrue) return Value::Boolean(true);
        auto b = rhs(t);
        if (!b.ok()) return b.status();
        Tri tb = functions::ValueToTri(b.value());
        return functions::TriToValue(is_and ? functions::TriAnd(ta, tb)
                                            : functions::TriOr(ta, tb));
      };
    }
    case Expr::Kind::kNot: {
      TupleEval inner = TryCompileDirect(e->args[0], schema);
      if (!inner) return nullptr;
      return [inner](const Tuple& t) -> Result<Value> {
        auto a = inner(t);
        if (!a.ok()) return a.status();
        return functions::TriToValue(
            functions::TriNot(functions::ValueToTri(a.value())));
      };
    }
    case Expr::Kind::kArith: {
      if (e->fn == "neg") {
        TupleEval inner = TryCompileDirect(e->args[0], schema);
        if (!inner) return nullptr;
        return [inner](const Tuple& t) -> Result<Value> {
          auto a = inner(t);
          if (!a.ok()) return a.status();
          return functions::Negate(a.value());
        };
      }
      TupleEval lhs = TryCompileDirect(e->args[0], schema);
      TupleEval rhs = TryCompileDirect(e->args[1], schema);
      if (!lhs || !rhs) return nullptr;
      char op = e->fn[0];
      return [lhs, rhs, op](const Tuple& t) -> Result<Value> {
        auto a = lhs(t);
        if (!a.ok()) return a.status();
        auto b = rhs(t);
        if (!b.ok()) return b.status();
        switch (op) {
          case '+': return functions::Add(a.value(), b.value());
          case '-': return functions::Subtract(a.value(), b.value());
          case '*': return functions::Multiply(a.value(), b.value());
          case '/': return functions::Divide(a.value(), b.value());
          default: return functions::Modulo(a.value(), b.value());
        }
      };
    }
    case Expr::Kind::kCall: {
      const functions::Builtin* builtin = functions::LookupBuiltin(e->fn);
      if (!builtin) return nullptr;  // dataset()/UDF shapes take the slow path
      std::vector<TupleEval> args;
      for (const auto& a : e->args) {
        TupleEval c = TryCompileDirect(a, schema);
        if (!c) return nullptr;
        args.push_back(std::move(c));
      }
      return [builtin, args](const Tuple& t) -> Result<Value> {
        std::vector<Value> vals;
        vals.reserve(args.size());
        for (const auto& a : args) {
          auto v = a(t);
          if (!v.ok()) return v.status();
          vals.push_back(v.take());
        }
        return builtin->fn(vals);
      };
    }
    default:
      return nullptr;
  }
}

}  // namespace

TupleEval PhysicalCompiler::CompileExpr(const ExprPtr& e,
                                        const Stream& s) const {
  if (TupleEval direct = TryCompileDirect(e, s.schema)) return direct;
  // Bind only the referenced variables, or everything if a subplan may
  // reference outer bindings we cannot see statically.
  std::vector<std::pair<std::string, int>> bindings;
  if (HasSubplanExpr(e)) {
    for (const auto& [var, col] : s.schema) bindings.emplace_back(var, col);
  } else {
    std::vector<std::string> fv;
    e->CollectFreeVars(&fv);
    for (const auto& v : fv) {
      auto it = s.schema.find(v);
      if (it != s.schema.end()) bindings.emplace_back(v, it->second);
    }
  }
  auto scan = subplan_scan_;
  return [e, bindings, scan](const Tuple& t) -> Result<Value> {
    EvalContext ctx(scan);
    for (const auto& [var, col] : bindings) {
      ctx.Bind(var, t[static_cast<size_t>(col)]);
    }
    return EvalExpr(*e, ctx);
  };
}

bool PhysicalCompiler::HasSubplanExpr(const ExprPtr& e) {
  if (!e) return false;
  if (e->kind == Expr::Kind::kSubplan) return true;
  if (e->base && HasSubplanExpr(e->base)) return true;
  for (const auto& a : e->args) {
    if (HasSubplanExpr(a)) return true;
  }
  return false;
}

Result<PhysicalCompiler::Stream> PhysicalCompiler::CompileScan(
    const LogicalOpPtr& op, JobSpec* job) {
  storage::PartitionedDataset* ds = resolver_(op->dataset);
  if (!ds) return Status::NotFound("unknown dataset " + op->dataset);
  Stream s;
  s.parallelism = static_cast<int>(ds->num_partitions());

  // Projection pushed down by the optimizer: every read of the dataset —
  // full scans, primary range scans and the primary fetches of index
  // paths — materializes only the fields downstream operators touch.
  storage::column::Projection proj = ScanProjection(*op);

  const AccessPath& ap = op->access_path;
  if (ap.kind == AccessPath::Kind::kNone) {
    s.op_id = job->AddOperator(hyracks::MakeDatasetScan(
        ds, std::move(proj), JoinFilterFor(op.get())));
    s.schema[op->var] = 0;
    s.width = 1;
    return s;
  }

  if (ap.kind == AccessPath::Kind::kPrimary) {
    storage::ScanBounds bounds;
    if (ap.lo) {
      bounds.lo = storage::CompositeKey{ap.lo->constant};
      bounds.lo_inclusive = ap.lo_inclusive;
    }
    if (ap.hi) {
      bounds.hi = storage::CompositeKey{ap.hi->constant};
      bounds.hi_inclusive = ap.hi_inclusive;
    }
    s.op_id = job->AddOperator(hyracks::MakePrimaryRangeScan(
        ds, bounds, std::move(proj), JoinFilterFor(op.get())));
    s.schema[op->var] = 0;
    s.width = 1;
    return s;
  }

  size_t pk_arity = ds->def().primary_key_fields.size();
  int search_id = -1;
  switch (ap.kind) {
    case AccessPath::Kind::kBTreeRange: {
      storage::ScanBounds bounds;
      if (ap.lo) {
        bounds.lo = storage::CompositeKey{ap.lo->constant};
        bounds.lo_inclusive = ap.lo_inclusive;
      }
      if (ap.hi) {
        bounds.hi = storage::CompositeKey{ap.hi->constant};
        bounds.hi_inclusive = ap.hi_inclusive;
      }
      search_id = job->AddOperator(
          hyracks::MakeSecondarySearch(ds, ap.index_name, bounds, pk_arity));
      break;
    }
    case AccessPath::Kind::kRTree: {
      functions::GeoPoint lo, hi;
      ASTERIX_RETURN_NOT_OK(
          functions::SpatialMbr(ap.query_shape->constant, &lo, &hi));
      search_id = job->AddOperator(hyracks::MakeRTreeSearch(
          ds, ap.index_name, storage::Mbr{lo.x, lo.y, hi.x, hi.y}, pk_arity));
      break;
    }
    case AccessPath::Kind::kInvertedKeyword:
    case AccessPath::Kind::kInvertedNgram: {
      // Resolve the tokenizer from the dataset's index definition.
      size_t gram_length = 3;
      bool ngram = ap.kind == AccessPath::Kind::kInvertedNgram;
      for (const auto& ix : ds->def().secondary_indexes) {
        if (ix.name == ap.index_name) gram_length = ix.gram_length;
      }
      const std::string& text = ap.probe->constant.AsString();
      std::vector<std::string> tokens =
          ngram ? functions::GramTokens(text, gram_length, /*pad=*/true)
                : functions::WordTokens(text);
      search_id = job->AddOperator(hyracks::MakeInvertedSearch(
          ds, ap.index_name, std::move(tokens), ap.min_matches, pk_arity));
      break;
    }
    case AccessPath::Kind::kNone:
    case AccessPath::Kind::kPrimary:
      break;
  }

  // Figure 6: sort the primary keys before the primary lookups to improve
  // the access pattern, then fetch under S locks for post-validation.
  std::vector<int> pk_cols;
  for (size_t i = 0; i < pk_arity; ++i) pk_cols.push_back(static_cast<int>(i));
  int sort_id = job->AddOperator(
      hyracks::MakeSort(s.parallelism, CompareOnColumns(pk_cols)));
  job->Connect(ConnectorType::kOneToOne, search_id, sort_id);
  int fetch_id = job->AddOperator(hyracks::MakePrimarySearch(
      ds, txns_, pk_cols, /*locked=*/true, FetchProjection(*op)));
  job->Connect(ConnectorType::kOneToOne, sort_id, fetch_id);

  s.op_id = fetch_id;
  s.schema[op->var] = static_cast<int>(pk_arity);
  s.width = static_cast<int>(pk_arity) + 1;
  return s;
}

std::optional<uint64_t> PhysicalCompiler::EstimateRows(const LogicalOpPtr& op,
                                                      uint64_t cap) const {
  const LogicalOp* scan = ScanUnderSelects(op);
  if (scan == nullptr) return std::nullopt;
  storage::PartitionedDataset* ds = resolver_(scan->dataset);
  if (ds == nullptr) return std::nullopt;
  uint64_t rows = ds->ApproxRecordCount();
  for (const auto& [field, r] : RangesByField(*scan)) {
    std::string index;
    for (const auto& ix : ds->def().secondary_indexes) {
      if (ix.kind == storage::IndexKind::kBTree && ix.fields.size() == 1 &&
          ix.fields[0] == field) {
        index = ix.name;
      }
    }
    if (index.empty()) continue;
    storage::ScanBounds bounds;
    if (r.lo) {
      bounds.lo = storage::CompositeKey{*r.lo};
      bounds.lo_inclusive = r.lo_inclusive;
    }
    if (r.hi) {
      bounds.hi = storage::CompositeKey{*r.hi};
      bounds.hi_inclusive = r.hi_inclusive;
    }
    uint64_t limit = std::min(cap, rows);
    uint64_t n = 0;
    bool counted = true;
    for (uint32_t p = 0; p < ds->num_partitions() && n < limit; ++p) {
      uint64_t part = 0;
      if (!ds->partition(p)
               ->CountIndexEntries(index, bounds, limit - n, &part)
               .ok()) {
        counted = false;
        break;
      }
      n += part;
    }
    if (counted) rows = std::min(rows, n);
  }
  return rows;
}

hyracks::ScanJoinFilter PhysicalCompiler::JoinFilterFor(
    const LogicalOp* scan) const {
  auto it = join_filters_.find(scan);
  return it == join_filters_.end() ? hyracks::ScanJoinFilter{} : it->second;
}

Result<PhysicalCompiler::Stream> PhysicalCompiler::CompileJoin(
    const LogicalOpPtr& op, JobSpec* job) {
  auto left_vars = op->inputs[0]->OutVars();
  auto right_vars = op->inputs[1]->OutVars();
  std::vector<std::pair<ExprPtr, ExprPtr>> equi;
  std::vector<ExprPtr> residual;
  SplitJoinCondition(op->expr, left_vars, right_vars, &equi, &residual);

  int P = cluster_->num_partitions();

  // --- Index nested-loop join on hint (paper Query 14) --------------------
  if (op->join_hint == JoinHint::kIndexNestedLoop && !equi.empty()) {
    // The indexed side must be a dataset scan, possibly under pushed-down
    // selects (re-applied as post-filters after the fetch); the hint
    // overrides any access path chosen for those selects. The other side
    // probes.
    for (int indexed_side = 1; indexed_side >= 0; --indexed_side) {
      if (op->left_outer && indexed_side != 1) break;  // preserve left only
      LogicalOpPtr indexed = op->inputs[indexed_side];
      std::vector<ExprPtr> peeled;
      while (indexed->kind == LogicalOp::Kind::kSelect) {
        peeled.push_back(indexed->expr);
        indexed = indexed->inputs[0];
      }
      const LogicalOpPtr& probe_plan = op->inputs[1 - indexed_side];
      if (indexed->kind != LogicalOp::Kind::kDataSourceScan) {
        continue;
      }
      storage::PartitionedDataset* ds = resolver_(indexed->dataset);
      if (!ds) continue;
      // Pick the first equi pair whose indexed-side expression is a field
      // (or the pk field) of the indexed dataset's variable.
      for (const auto& [le, re] : equi) {
        const ExprPtr& idx_expr = indexed_side == 1 ? re : le;
        const ExprPtr& probe_expr = indexed_side == 1 ? le : re;
        if (idx_expr->kind != Expr::Kind::kFieldAccess ||
            idx_expr->base->kind != Expr::Kind::kVar ||
            idx_expr->base->var != indexed->var) {
          continue;
        }
        const std::string& field = idx_expr->field;
        const auto& pk_fields = ds->def().primary_key_fields;
        bool is_pk = pk_fields.size() == 1 && pk_fields[0] == field;
        std::string sec_index;
        for (const auto& ix : ds->def().secondary_indexes) {
          if (ix.kind == storage::IndexKind::kBTree && ix.fields.size() == 1 &&
              ix.fields[0] == field) {
            sec_index = ix.name;
          }
        }
        if (!is_pk && sec_index.empty()) continue;

        ASTERIX_ASSIGN_OR_RETURN(Stream probe, CompileOp(probe_plan, job));
        // Materialize the probe key as a column.
        int key_col = probe.width;
        int assign_id = job->AddOperator(hyracks::MakeAssign(
            probe.parallelism, {CompileExpr(probe_expr, probe)}));
        job->Connect(ConnectorType::kOneToOne, probe.op_id, assign_id);

        Stream s;
        s.schema = probe.schema;
        s.parallelism = static_cast<int>(ds->num_partitions());
        size_t pk_arity = ds->def().primary_key_fields.size();
        if (is_pk) {
          int fetch_id = job->AddOperator(hyracks::MakePrimarySearch(
              ds, txns_, {key_col}, /*locked=*/false,
              FetchProjection(*indexed)));
          job->Connect(ConnectorType::kMToNPartitioning, assign_id, fetch_id, 0,
                       hyracks::HashOnColumns({key_col}));
          s.op_id = fetch_id;
          s.schema[indexed->var] = key_col + 1;
          s.width = key_col + 2;
        } else {
          // Secondary lookups fan out to every partition (node-local
          // indexes), then fetch + post-validate.
          int probe_id = job->AddOperator(hyracks::MakeSecondaryProbe(
              ds, sec_index, ColumnEval(key_col), pk_arity));
          job->Connect(ConnectorType::kMToNReplicating, assign_id, probe_id);
          std::vector<int> pk_cols;
          for (size_t i = 0; i < pk_arity; ++i) {
            pk_cols.push_back(key_col + 1 + static_cast<int>(i));
          }
          int fetch_id = job->AddOperator(hyracks::MakePrimarySearch(
              ds, txns_, pk_cols, /*locked=*/true, FetchProjection(*indexed)));
          job->Connect(ConnectorType::kOneToOne, probe_id, fetch_id);
          s.op_id = fetch_id;
          s.schema[indexed->var] = key_col + 1 + static_cast<int>(pk_arity);
          s.width = key_col + 2 + static_cast<int>(pk_arity);
        }
        // Post-validate the whole join condition plus residuals plus the
        // selects peeled off the indexed side.
        std::vector<ExprPtr> checks = residual;
        if (op->expr) checks = {op->expr};
        checks.insert(checks.end(), peeled.begin(), peeled.end());
        if (!checks.empty()) {
          int sel_id = job->AddOperator(hyracks::MakeSelect(
              s.parallelism, CompileExpr(AndAll(checks), s)));
          job->Connect(ConnectorType::kOneToOne, s.op_id, sel_id);
          s.op_id = sel_id;
        }
        return s;
      }
    }
  }

  // The right input builds, unless an inner equijoin's left input is
  // estimated smaller: a left-outer join keeps its preserved (left) input
  // on the probe port, and inputs without an estimate keep these roles.
  int build_side = 1;
  if (!equi.empty() && !op->left_outer) {
    std::optional<uint64_t> left = EstimateRows(op->inputs[0], kEstimateCap);
    std::optional<uint64_t> right =
        left ? EstimateRows(op->inputs[1], std::min(kEstimateCap, *left + 1))
             : std::nullopt;
    if (left && right && *left < *right) build_side = 0;
  }
  const LogicalOpPtr& probe_plan = op->inputs[1 - build_side];
  const LogicalOpPtr& build_plan = op->inputs[build_side];
  std::vector<ExprPtr> probe_exprs, build_exprs;
  for (const auto& [le, re] : equi) {
    probe_exprs.push_back(build_side == 1 ? le : re);
    build_exprs.push_back(build_side == 1 ? re : le);
  }

  // An inner hash join whose probe input is a full or primary-range scan
  // under selects, probed on fields of the scanned record, pushes its build
  // keys into that scan.
  std::shared_ptr<hyracks::JoinFilter> filter;
  const LogicalOp* probe_scan = ScanUnderSelects(probe_plan);
  if (!equi.empty() && !op->left_outer && probe_scan != nullptr &&
      (probe_scan->access_path.kind == AccessPath::Kind::kNone ||
       probe_scan->access_path.kind == AccessPath::Kind::kPrimary)) {
    std::vector<std::string> fields;
    for (const ExprPtr& e : probe_exprs) {
      if (e->kind != Expr::Kind::kFieldAccess || !e->base ||
          e->base->kind != Expr::Kind::kVar || e->base->var != probe_scan->var ||
          HasField(fields, e->field)) {
        fields.clear();
        break;
      }
      fields.push_back(e->field);
    }
    if (!fields.empty()) {
      filter = std::make_shared<hyracks::JoinFilter>(P);
      join_filters_[probe_scan] = {filter, std::move(fields)};
    }
  }

  ASTERIX_ASSIGN_OR_RETURN(Stream probe, CompileOp(probe_plan, job));
  ASTERIX_ASSIGN_OR_RETURN(Stream build, CompileOp(build_plan, job));

  Stream s;
  s.parallelism = P;
  // Output layout: build columns, then probe columns.
  for (const auto& [var, col] : build.schema) s.schema[var] = col;
  for (const auto& [var, col] : probe.schema) {
    s.schema[var] = build.width + col;
  }
  s.width = build.width + probe.width;

  if (!equi.empty()) {
    // The paper's safe rule (b): always parallel hybrid hash join for
    // equijoins. Partition both sides on the key hash.
    std::vector<TupleEval> build_keys, probe_keys;
    for (size_t i = 0; i < equi.size(); ++i) {
      probe_keys.push_back(CompileExpr(probe_exprs[i], probe));
      build_keys.push_back(CompileExpr(build_exprs[i], build));
    }
    int join_id = job->AddOperator(hyracks::MakeHybridHashJoin(
        P, build_keys, probe_keys, static_cast<size_t>(build.width),
        op->left_outer, filter));
    job->Connect(ConnectorType::kMToNPartitioning, build.op_id, join_id, 0,
                 HashOnEvals(build_keys));
    job->Connect(ConnectorType::kMToNPartitioning, probe.op_id, join_id, 1,
                 HashOnEvals(probe_keys));
    s.op_id = join_id;
    if (!residual.empty()) {
      int sel_id = job->AddOperator(
          hyracks::MakeSelect(P, CompileExpr(AndAll(residual), s)));
      job->Connect(ConnectorType::kOneToOne, join_id, sel_id);
      s.op_id = sel_id;
    }
    return s;
  }

  // No equijoin keys: nested-loop join; replicate the build side.
  TupleEval pred = op->expr ? CompileExpr(op->expr, s)
                            : TupleEval([](const Tuple&) -> Result<Value> {
                                return Value::Boolean(true);
                              });
  int join_id = job->AddOperator(hyracks::MakeNestedLoopJoin(
      probe.parallelism, pred, static_cast<size_t>(build.width),
      op->left_outer));
  s.parallelism = probe.parallelism;
  job->Connect(ConnectorType::kMToNReplicating, build.op_id, join_id, 0);
  job->Connect(ConnectorType::kOneToOne, probe.op_id, join_id, 1);
  s.op_id = join_id;
  return s;
}

Result<PhysicalCompiler::Stream> PhysicalCompiler::CompileGroupBy(
    const LogicalOpPtr& op, JobSpec* job) {
  if (op->with_vars.empty() && op->group_keys.empty()) {
    // Scalar aggregation over a columnar filter/scan pipeline: try the
    // vectorized lowering before compiling the input the row way.
    if (std::optional<Stream> vs = TryCompileVectorAggregate(op, job)) {
      return *vs;
    }
  }
  ASTERIX_ASSIGN_OR_RETURN(Stream in, CompileOp(op->inputs[0], job));
  int P = cluster_->num_partitions();

  std::vector<TupleEval> key_evals;
  for (const auto& [v, e] : op->group_keys) {
    (void)v;
    key_evals.push_back(CompileExpr(e, in));
  }

  Stream s;
  int col = 0;
  for (const auto& [v, e] : op->group_keys) {
    (void)e;
    s.schema[v] = col++;
  }

  if (op->with_vars.empty() && op->group_keys.empty()) {
    // Scalar aggregation: the Figure 6 local/global split.
    std::vector<hyracks::AggSpec> local_specs;
    for (const auto& a : op->aggs) {
      local_specs.push_back(
          {a.fn, a.arg ? CompileExpr(a.arg, in) : TupleEval()});
    }
    if (options_.split_aggregation) {
      int local_id = job->AddOperator(hyracks::MakeAggregate(
          in.parallelism, local_specs, hyracks::AggMode::kLocal));
      job->Connect(ConnectorType::kOneToOne, in.op_id, local_id);
      std::vector<hyracks::AggSpec> global_specs;
      for (const auto& a : op->aggs) global_specs.push_back({a.fn, TupleEval()});
      int global_id = job->AddOperator(hyracks::MakeAggregate(
          1, global_specs, hyracks::AggMode::kGlobal));
      job->Connect(ConnectorType::kMToNReplicating, local_id, global_id);
      s.op_id = global_id;
    } else {
      int agg_id = job->AddOperator(
          hyracks::MakeAggregate(1, local_specs, hyracks::AggMode::kComplete));
      job->Connect(ConnectorType::kMToNPartitioning, in.op_id, agg_id, 0,
                   nullptr);
      s.op_id = agg_id;
    }
    for (const auto& a : op->aggs) s.schema[a.out_var] = col++;
    s.width = col;
    s.parallelism = 1;
    return s;
  }

  // Grouped: one hash group-by. Each with-variable the aggregation rewrite
  // left bound is collected into its bag by a listify aggregate; rewritten
  // aggregates run beside it. Output: [keys..., bags..., aggregates...].
  std::vector<hyracks::AggSpec> specs;
  for (const auto& [bag, src] : op->with_vars) {
    auto it = in.schema.find(src);
    if (it == in.schema.end()) {
      return Status::Internal("group-by source var $" + src + " not in scope");
    }
    specs.push_back({functions::kListify, ColumnEval(it->second)});
  }
  for (const auto& a : op->aggs) {
    specs.push_back({a.fn, a.arg ? CompileExpr(a.arg, in) : TupleEval()});
  }
  // A local listify cannot shrink its input, so a bag-collecting group
  // shuffles raw tuples into one complete group-by.
  if (options_.split_aggregation && op->with_vars.empty()) {
    int local_id = job->AddOperator(hyracks::MakeHashGroupBy(
        in.parallelism, key_evals, specs, hyracks::AggMode::kLocal));
    job->Connect(ConnectorType::kOneToOne, in.op_id, local_id);
    // Local output layout: keys then partials; shuffle on the keys.
    std::vector<int> key_cols;
    std::vector<TupleEval> key_cols_evals;
    for (size_t i = 0; i < op->group_keys.size(); ++i) {
      key_cols.push_back(static_cast<int>(i));
      key_cols_evals.push_back(ColumnEval(static_cast<int>(i)));
    }
    std::vector<hyracks::AggSpec> global_specs;
    for (const auto& a : op->aggs) global_specs.push_back({a.fn, TupleEval()});
    int global_id = job->AddOperator(hyracks::MakeHashGroupBy(
        P, key_cols_evals, global_specs, hyracks::AggMode::kGlobal));
    job->Connect(ConnectorType::kMToNPartitioning, local_id, global_id, 0,
                 hyracks::HashOnColumns(key_cols));
    s.op_id = global_id;
  } else {
    int group_id = job->AddOperator(hyracks::MakeHashGroupBy(
        P, key_evals, specs, hyracks::AggMode::kComplete));
    job->Connect(ConnectorType::kMToNPartitioning, in.op_id, group_id, 0,
                 HashOnEvals(key_evals));
    s.op_id = group_id;
  }
  for (const auto& [bag, src] : op->with_vars) s.schema[bag] = col++;
  for (const auto& a : op->aggs) s.schema[a.out_var] = col++;
  s.width = col;
  s.parallelism = P;
  return s;
}

std::optional<PhysicalCompiler::Stream> PhysicalCompiler::TryCompileVectorSource(
    const LogicalOpPtr& op, JobSpec* job) {
  if (!options_.vectorized_execution) return std::nullopt;
  const LogicalOp* scan = ScanUnderSelects(op);
  if (!scan) return std::nullopt;
  // The lanes are the pushed-down projected fields; whole-record scans and
  // index access paths keep the row pipeline.
  if (scan->scan_project_all || scan->projected_fields.empty()) {
    return std::nullopt;
  }
  if (scan->access_path.kind != AccessPath::Kind::kNone &&
      scan->access_path.kind != AccessPath::Kind::kPrimary) {
    return std::nullopt;
  }
  storage::PartitionedDataset* ds = resolver_(scan->dataset);
  if (!ds || ds->def().storage_format != storage::StorageFormat::kColumn) {
    return std::nullopt;
  }

  // Lower every select predicate before touching the job: a single
  // unlowerable expression falls the whole pipeline back, and the job spec
  // must not carry half-built operators. Innermost select first, matching
  // the interpreted evaluation (and error) order.
  std::vector<ExprPtr> sel_exprs;
  for (const LogicalOp* cur = op.get(); cur->kind == LogicalOp::Kind::kSelect;
       cur = cur->inputs[0].get()) {
    sel_exprs.push_back(cur->expr);
  }
  std::reverse(sel_exprs.begin(), sel_exprs.end());
  std::vector<std::shared_ptr<vec::PredNode>> preds;
  for (const auto& e : sel_exprs) {
    auto p = LowerPred(e, scan->var, scan->projected_fields);
    if (!p) return std::nullopt;
    preds.push_back(std::move(p));
  }

  storage::column::Projection proj = ScanProjection(*scan);
  storage::ScanBounds bounds;
  if (scan->access_path.kind == AccessPath::Kind::kPrimary) {
    if (scan->access_path.lo) {
      bounds.lo = storage::CompositeKey{scan->access_path.lo->constant};
      bounds.lo_inclusive = scan->access_path.lo_inclusive;
    }
    if (scan->access_path.hi) {
      bounds.hi = storage::CompositeKey{scan->access_path.hi->constant};
      bounds.hi_inclusive = scan->access_path.hi_inclusive;
    }
  }

  Stream s;
  s.parallelism = static_cast<int>(ds->num_partitions());
  s.op_id = job->AddOperator(hyracks::MakeVectorScan(ds, std::move(proj),
                                                     bounds,
                                                     JoinFilterFor(scan)));
  s.schema[scan->var] = 0;
  s.width = 1;
  for (auto& pred : preds) {
    int id = job->AddOperator(
        hyracks::MakeVectorSelect(s.parallelism, std::move(pred)));
    job->Connect(ConnectorType::kOneToOne, s.op_id, id);
    s.op_id = id;
  }
  return s;
}

std::optional<PhysicalCompiler::Stream>
PhysicalCompiler::TryCompileVectorAggregate(const LogicalOpPtr& op,
                                            JobSpec* job) {
  // The vectorized aggregate is inherently a local/global split (partials
  // per partition); honor an explicit no-split configuration by staying
  // interpreted.
  if (!options_.vectorized_execution || !options_.split_aggregation) {
    return std::nullopt;
  }
  const LogicalOp* scan = ScanUnderSelects(op->inputs[0]);
  if (!scan) return std::nullopt;
  // Lower the aggregate calls first (no job mutation until everything has a
  // kernel): plain field reads of the scan variable, or row counts.
  std::vector<hyracks::VectorAggSpec> specs;
  for (const auto& a : op->aggs) {
    std::string base =
        a.fn.rfind("sql-", 0) == 0 ? a.fn.substr(4) : a.fn;
    if (base != "count" && base != "min" && base != "max" && base != "sum" &&
        base != "avg") {
      return std::nullopt;
    }
    hyracks::VectorAggSpec spec;
    spec.function = a.fn;
    if (!a.arg || (a.arg->kind == Expr::Kind::kVar && a.arg->var == scan->var)) {
      // Whole-row aggregate: count is a row count (scan records are never
      // MISSING); anything else over full records stays interpreted.
      if (base != "count") return std::nullopt;
    } else if (a.arg->kind == Expr::Kind::kFieldAccess && a.arg->base &&
               a.arg->base->kind == Expr::Kind::kVar &&
               a.arg->base->var == scan->var &&
               HasField(scan->projected_fields, a.arg->field)) {
      spec.field = a.arg->field;
    } else {
      return std::nullopt;
    }
    specs.push_back(std::move(spec));
  }
  std::optional<Stream> src = TryCompileVectorSource(op->inputs[0], job);
  if (!src) return std::nullopt;

  // Local partials over batches; the existing global Aggregator combines
  // them unchanged (the partial-state record shapes are identical).
  int local_id = job->AddOperator(
      hyracks::MakeVectorAggregate(src->parallelism, specs, hyracks::AggMode::kLocal));
  job->Connect(ConnectorType::kOneToOne, src->op_id, local_id);
  std::vector<hyracks::AggSpec> global_specs;
  for (const auto& a : op->aggs) {
    global_specs.push_back({a.fn, TupleEval()});
  }
  int global_id = job->AddOperator(
      hyracks::MakeAggregate(1, global_specs, hyracks::AggMode::kGlobal));
  job->Connect(ConnectorType::kMToNReplicating, local_id, global_id);

  Stream s;
  s.op_id = global_id;
  s.parallelism = 1;
  int col = 0;
  for (const auto& a : op->aggs) s.schema[a.out_var] = col++;
  s.width = col;
  return s;
}

Result<PhysicalCompiler::Stream> PhysicalCompiler::CompileOp(
    const LogicalOpPtr& op, JobSpec* job) {
  switch (op->kind) {
    case LogicalOp::Kind::kEmptySource: {
      Stream s;
      s.op_id = job->AddOperator(hyracks::MakeValueScan({Tuple{}}));
      s.parallelism = 1;
      s.width = 0;
      return s;
    }
    case LogicalOp::Kind::kDataSourceScan:
      return CompileScan(op, job);
    case LogicalOp::Kind::kSelect: {
      if (std::optional<Stream> vs = TryCompileVectorSource(op, job)) {
        // End the batch pipeline: downstream row operators see the selected
        // rows materialized (and only those — late materialization), less
        // the rows a join filter planned for the scan rules out.
        int id = job->AddOperator(hyracks::MakeVectorMaterialize(
            vs->parallelism, JoinFilterFor(ScanUnderSelects(op))));
        job->Connect(ConnectorType::kOneToOne, vs->op_id, id);
        vs->op_id = id;
        return *vs;
      }
      ASTERIX_ASSIGN_OR_RETURN(Stream in, CompileOp(op->inputs[0], job));
      int id = job->AddOperator(
          hyracks::MakeSelect(in.parallelism, CompileExpr(op->expr, in)));
      job->Connect(ConnectorType::kOneToOne, in.op_id, id);
      in.op_id = id;
      return in;
    }
    case LogicalOp::Kind::kAssign: {
      ASTERIX_ASSIGN_OR_RETURN(Stream in, CompileOp(op->inputs[0], job));
      int id = job->AddOperator(
          hyracks::MakeAssign(in.parallelism, {CompileExpr(op->expr, in)}));
      job->Connect(ConnectorType::kOneToOne, in.op_id, id);
      in.op_id = id;
      in.schema[op->var] = in.width++;
      return in;
    }
    case LogicalOp::Kind::kUnnest: {
      ASTERIX_ASSIGN_OR_RETURN(Stream in, CompileOp(op->inputs[0], job));
      int id = job->AddOperator(
          hyracks::MakeUnnest(in.parallelism, CompileExpr(op->expr, in),
                              op->outer, !op->pos_var.empty()));
      job->Connect(ConnectorType::kOneToOne, in.op_id, id);
      in.op_id = id;
      in.schema[op->var] = in.width++;
      if (!op->pos_var.empty()) in.schema[op->pos_var] = in.width++;
      in.sorted = nullptr;
      return in;
    }
    case LogicalOp::Kind::kJoin:
      return CompileJoin(op, job);
    case LogicalOp::Kind::kGroupBy:
      return CompileGroupBy(op, job);
    case LogicalOp::Kind::kOrder: {
      ASTERIX_ASSIGN_OR_RETURN(Stream in, CompileOp(op->inputs[0], job));
      std::vector<TupleEval> key_evals;
      std::vector<bool> asc;
      for (const auto& [e, a] : op->order_keys) {
        key_evals.push_back(CompileExpr(e, in));
        asc.push_back(a);
      }
      TupleCompare cmp = [key_evals, asc](const Tuple& x, const Tuple& y) {
        for (size_t i = 0; i < key_evals.size(); ++i) {
          auto vx = key_evals[i](x);
          auto vy = key_evals[i](y);
          if (!vx.ok() || !vy.ok()) return 0;
          int c = vx.value().Compare(vy.value());
          if (c != 0) return asc[i] ? c : -c;
        }
        return 0;
      };
      int id = job->AddOperator(hyracks::MakeSort(in.parallelism, cmp));
      job->Connect(ConnectorType::kOneToOne, in.op_id, id);
      in.op_id = id;
      in.sorted = cmp;
      return in;
    }
    case LogicalOp::Kind::kLimit: {
      ASTERIX_ASSIGN_OR_RETURN(Stream in, CompileOp(op->inputs[0], job));
      int id = job->AddOperator(hyracks::MakeLimit(
          op->limit < 0 ? SIZE_MAX : static_cast<size_t>(op->limit),
          static_cast<size_t>(op->offset)));
      if (in.parallelism > 1 && in.sorted) {
        job->Connect(ConnectorType::kMToNPartitioningMerging, in.op_id, id, 0,
                     nullptr, in.sorted);
      } else if (in.parallelism > 1) {
        job->Connect(ConnectorType::kMToNPartitioning, in.op_id, id, 0, nullptr);
      } else {
        job->Connect(ConnectorType::kOneToOne, in.op_id, id);
      }
      in.op_id = id;
      in.parallelism = 1;
      return in;
    }
    case LogicalOp::Kind::kDistinct: {
      ASTERIX_ASSIGN_OR_RETURN(Stream in, CompileOp(op->inputs[0], job));
      int P = cluster_->num_partitions();
      if (!op->order_keys.empty()) {
        // distinct by <exprs>: shuffle on the key hash so duplicates meet.
        std::vector<TupleEval> key_evals;
        for (const auto& [e, asc] : op->order_keys) {
          (void)asc;
          key_evals.push_back(CompileExpr(e, in));
        }
        int id = job->AddOperator(hyracks::MakeDistinct(P, key_evals));
        job->Connect(ConnectorType::kMToNPartitioning, in.op_id, id, 0,
                     HashOnEvals(key_evals));
        in.op_id = id;
        in.parallelism = P;
        in.sorted = nullptr;
        return in;
      }
      std::vector<int> all_cols;
      for (int i = 0; i < in.width; ++i) all_cols.push_back(i);
      int id = job->AddOperator(hyracks::MakeDistinct(P));
      job->Connect(ConnectorType::kMToNPartitioning, in.op_id, id, 0,
                   hyracks::HashOnColumns(all_cols));
      in.op_id = id;
      in.parallelism = P;
      in.sorted = nullptr;
      return in;
    }
    case LogicalOp::Kind::kDistribute:
      return Status::Internal("distribute compiled at top level only");
  }
  return Status::Internal("unreachable");
}

Result<JobSpec> PhysicalCompiler::Compile(
    const LogicalOpPtr& plan, std::shared_ptr<std::vector<Tuple>> sink) {
  if (plan->kind != LogicalOp::Kind::kDistribute) {
    return Status::Internal("physical plan must end in distribute-result");
  }
  JobSpec job;
  ASTERIX_ASSIGN_OR_RETURN(Stream in, CompileOp(plan->inputs[0], &job));

  // Gather to one stream first (order-preserving when sorted), then compute
  // the result expression and sink it.
  int gathered = in.op_id;
  if (in.parallelism > 1) {
    // A pass-through single-instance operator to receive the gather.
    int gather_id = job.AddOperator(hyracks::MakeSelect(
        1, [](const Tuple&) -> Result<Value> { return Value::Boolean(true); }));
    if (in.sorted) {
      job.Connect(ConnectorType::kMToNPartitioningMerging, in.op_id, gather_id,
                   0, nullptr, in.sorted);
    } else {
      job.Connect(ConnectorType::kMToNPartitioning, in.op_id, gather_id, 0,
                   nullptr);
    }
    gathered = gather_id;
  }
  int assign_id = job.AddOperator(
      hyracks::MakeAssign(1, {CompileExpr(plan->expr, in)}));
  job.Connect(ConnectorType::kOneToOne, gathered, assign_id);
  int project_id = job.AddOperator(hyracks::MakeProject(1, {in.width}));
  job.Connect(ConnectorType::kOneToOne, assign_id, project_id);
  int sink_id = job.AddOperator(hyracks::MakeResultSink(std::move(sink)));
  job.Connect(ConnectorType::kOneToOne, project_id, sink_id);
  return job;
}

}  // namespace algebricks
}  // namespace asterix
