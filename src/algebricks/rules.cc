#include "algebricks/rules.h"

#include <algorithm>
#include <atomic>
#include <set>

#include "functions/aggregates.h"
#include "functions/similarity.h"

namespace asterix {
namespace algebricks {

using adm::Value;

namespace {

// ---------------------------------------------------------------------------
// Expression utilities
// ---------------------------------------------------------------------------

void FlattenConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind == Expr::Kind::kAnd) {
    FlattenConjuncts(e->args[0], out);
    FlattenConjuncts(e->args[1], out);
  } else {
    out->push_back(e);
  }
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return Expr::Const(Value::Boolean(true));
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = Expr::And(acc, conjuncts[i]);
  }
  return acc;
}

bool VarsSubset(const std::vector<std::string>& vars,
                const std::vector<std::string>& allowed) {
  for (const auto& v : vars) {
    if (std::find(allowed.begin(), allowed.end(), v) == allowed.end()) {
      return false;
    }
  }
  return true;
}

bool HasSubplan(const ExprPtr& e) {
  if (!e) return false;
  if (e->kind == Expr::Kind::kSubplan) return true;
  if (e->base && HasSubplan(e->base)) return true;
  for (const auto& a : e->args) {
    if (HasSubplan(a)) return true;
  }
  return false;
}

// Functions whose result depends on ambient state: never folded.
bool IsNondeterministic(const std::string& fn) {
  return fn == "current-date" || fn == "current-time" ||
         fn == "current-datetime";
}

bool ContainsNondeterminism(const ExprPtr& e) {
  if (!e) return false;
  if (e->kind == Expr::Kind::kCall && IsNondeterministic(e->fn)) return true;
  if (e->base && ContainsNondeterminism(e->base)) return true;
  for (const auto& a : e->args) {
    if (ContainsNondeterminism(a)) return true;
  }
  return false;
}

void FoldOpExprs(const LogicalOpPtr& op);

ExprPtr FoldExpr(const ExprPtr& e) {
  if (!e) return e;
  auto folded = std::make_shared<Expr>(*e);
  if (folded->base) folded->base = FoldExpr(folded->base);
  for (auto& a : folded->args) a = FoldExpr(a);
  if (folded->kind == Expr::Kind::kSubplan) {
    // Fold inside nested plans too: index selection after subplan hoisting
    // (e.g. avg(...) over a range) depends on constants being visible.
    folded->subplan = CloneOp(folded->subplan);
    FoldOpExprs(folded->subplan);
    return folded;
  }
  if (folded->kind == Expr::Kind::kConst || folded->kind == Expr::Kind::kVar) {
    return folded;
  }
  std::vector<std::string> free_vars;
  folded->CollectFreeVars(&free_vars);
  if (!free_vars.empty() || HasSubplan(folded) ||
      ContainsNondeterminism(folded) ||
      folded->kind == Expr::Kind::kQuantified) {
    return folded;
  }
  EvalContext empty;
  auto v = EvalExpr(*folded, empty);
  if (!v.ok()) return folded;  // leave runtime errors to runtime
  return Expr::Const(v.take());
}

void FoldOpExprs(const LogicalOpPtr& op) {
  if (op->expr) op->expr = FoldExpr(op->expr);
  for (auto& [v, e] : op->group_keys) {
    (void)v;
    e = FoldExpr(e);
  }
  for (auto& a : op->aggs) {
    if (a.arg) a.arg = FoldExpr(a.arg);
  }
  for (auto& [e, asc] : op->order_keys) {
    (void)asc;
    e = FoldExpr(e);
  }
  for (auto& in : op->inputs) FoldOpExprs(in);
}

// ---------------------------------------------------------------------------
// Rule: merge adjacent selects, push selects through joins/assigns/unnests
// ---------------------------------------------------------------------------

bool PushSelectsOnce(LogicalOpPtr& op) {
  bool changed = false;
  for (auto& in : op->inputs) changed |= PushSelectsOnce(in);

  if (op->kind != LogicalOp::Kind::kSelect) return changed;
  LogicalOpPtr child = op->inputs[0];

  // Merge select(select(x)) -> select(and).
  if (child->kind == LogicalOp::Kind::kSelect &&
      child->skip_index == op->skip_index) {
    op->expr = Expr::And(op->expr, child->expr);
    op->inputs[0] = child->inputs[0];
    return true;
  }

  if (child->kind == LogicalOp::Kind::kJoin) {
    std::vector<ExprPtr> conjuncts;
    FlattenConjuncts(op->expr, &conjuncts);
    auto left_vars = child->inputs[0]->OutVars();
    auto right_vars = child->inputs[1]->OutVars();
    std::vector<ExprPtr> keep;
    bool moved = false;
    for (const auto& c : conjuncts) {
      std::vector<std::string> fv;
      c->CollectFreeVars(&fv);
      // Pushing below a left-outer join is only safe on the preserved
      // (left) side; null-padded rows must survive right-side filters.
      if (VarsSubset(fv, left_vars) && !HasSubplan(c)) {
        auto s = MakeOp(LogicalOp::Kind::kSelect);
        s->expr = c;
        s->skip_index = op->skip_index;  // hints survive pushdown
        s->inputs = {child->inputs[0]};
        child->inputs[0] = s;
        moved = true;
      } else if (!child->left_outer && VarsSubset(fv, right_vars) &&
                 !HasSubplan(c)) {
        auto s = MakeOp(LogicalOp::Kind::kSelect);
        s->expr = c;
        s->skip_index = op->skip_index;
        s->inputs = {child->inputs[1]};
        child->inputs[1] = s;
        moved = true;
      } else if (!child->left_outer) {
        // Lift into the join condition (enables equijoin detection).
        child->expr = child->expr ? Expr::And(child->expr, c) : c;
        moved = true;
      } else {
        keep.push_back(c);
      }
    }
    if (moved) {
      if (keep.empty()) {
        op = child;  // select fully absorbed
      } else {
        op->expr = CombineConjuncts(keep);
      }
      return true;
    }
    return changed;
  }

  // Push through assign/unnest when the condition ignores the new variable.
  if ((child->kind == LogicalOp::Kind::kAssign ||
       (child->kind == LogicalOp::Kind::kUnnest && !child->outer))) {
    std::vector<std::string> fv;
    op->expr->CollectFreeVars(&fv);
    if (std::find(fv.begin(), fv.end(), child->var) == fv.end() &&
        !HasSubplan(op->expr)) {
      // swap: select(assign(x)) -> assign(select(x))
      LogicalOpPtr grandchild = child->inputs[0];
      op->inputs[0] = grandchild;
      child->inputs[0] = op;
      op = child;
      return true;
    }
  }
  return changed;
}

// ---------------------------------------------------------------------------
// Rule: scalar aggregate over uncorrelated subplan -> parallel aggregation
// ---------------------------------------------------------------------------

void PlanDefinedVars(const LogicalOpPtr& op, std::set<std::string>* defined) {
  for (const auto& in : op->inputs) PlanDefinedVars(in, defined);
  auto vars = op->OutVars();
  defined->insert(vars.begin(), vars.end());
}

void PlanReferencedVars(const LogicalOpPtr& op, std::set<std::string>* refs) {
  auto visit = [&](const ExprPtr& e) {
    if (!e) return;
    std::vector<std::string> fv;
    e->CollectFreeVars(&fv);
    refs->insert(fv.begin(), fv.end());
  };
  visit(op->expr);
  for (const auto& [v, e] : op->group_keys) {
    (void)v;
    visit(e);
  }
  for (const auto& a : op->aggs) visit(a.arg);
  for (const auto& [e, asc] : op->order_keys) {
    (void)asc;
    visit(e);
  }
  for (const auto& in : op->inputs) PlanReferencedVars(in, refs);
}

bool PlanIsUncorrelated(const LogicalOpPtr& plan) {
  std::set<std::string> defined, refs;
  PlanDefinedVars(plan, &defined);
  PlanReferencedVars(plan, &refs);
  for (const auto& r : refs) {
    if (!defined.count(r)) return false;
  }
  // Subplans inside could still be correlated with this plan's vars, which
  // is fine; correlation with the *outer* query is what we ruled out.
  return true;
}

// Finds Call(agg, [Subplan(distribute-plan)]) inside `e`; returns it.
ExprPtr FindScalarAggOverSubplan(const ExprPtr& e) {
  if (!e) return nullptr;
  if (e->kind == Expr::Kind::kCall && e->args.size() == 1 &&
      functions::IsAggregateName(e->fn) &&
      e->args[0]->kind == Expr::Kind::kSubplan &&
      e->args[0]->subplan->kind == LogicalOp::Kind::kDistribute &&
      PlanIsUncorrelated(e->args[0]->subplan)) {
    return std::const_pointer_cast<Expr>(e);
  }
  if (e->base) {
    if (auto r = FindScalarAggOverSubplan(e->base)) return r;
  }
  for (const auto& a : e->args) {
    if (auto r = FindScalarAggOverSubplan(a)) return r;
  }
  return nullptr;
}

ExprPtr ReplaceExpr(const ExprPtr& e, const ExprPtr& target,
                    const ExprPtr& replacement) {
  if (e == target) return replacement;
  if (!e) return e;
  auto copy = std::make_shared<Expr>(*e);
  if (copy->base) copy->base = ReplaceExpr(copy->base, target, replacement);
  for (auto& a : copy->args) a = ReplaceExpr(a, target, replacement);
  return copy;
}

std::atomic<int> agg_var_counter{0};

bool RewriteScalarAggregates(LogicalOpPtr& plan) {
  if (plan->kind != LogicalOp::Kind::kDistribute) return false;
  if (plan->inputs[0]->kind != LogicalOp::Kind::kEmptySource) return false;
  ExprPtr call = FindScalarAggOverSubplan(plan->expr);
  if (!call) return false;

  LogicalOpPtr inner = call->args[0]->subplan;  // ends in kDistribute
  std::string agg_var = "#agg" + std::to_string(agg_var_counter++);

  auto group = MakeOp(LogicalOp::Kind::kGroupBy);
  group->inputs = {inner->inputs[0]};
  LogicalOp::AggCall agg;
  agg.out_var = agg_var;
  agg.fn = call->fn;
  agg.arg = inner->expr;  // aggregate the subplan's emitted value
  group->aggs.push_back(std::move(agg));

  auto dist = MakeOp(LogicalOp::Kind::kDistribute);
  dist->inputs = {group};
  dist->expr = ReplaceExpr(plan->expr, call, Expr::Var(agg_var));
  plan = dist;
  return true;
}

// ---------------------------------------------------------------------------
// Rule: group-by bags used only in aggregates -> incremental aggregation
// ---------------------------------------------------------------------------

// Collects every expression slot in the plan for usage analysis.
void CollectExprSlots(const LogicalOpPtr& op, std::vector<ExprPtr*>* slots) {
  if (op->expr) slots->push_back(&op->expr);
  for (auto& [v, e] : op->group_keys) {
    (void)v;
    slots->push_back(&e);
  }
  for (auto& a : op->aggs) {
    if (a.arg) slots->push_back(&a.arg);
  }
  for (auto& [e, asc] : op->order_keys) {
    (void)asc;
    slots->push_back(&e);
  }
  for (auto& in : op->inputs) CollectExprSlots(in, slots);
}

// True if `e` references `var` anywhere outside the pattern agg(var).
bool UsesVarOutsideAgg(const ExprPtr& e, const std::string& var) {
  if (!e) return false;
  if (e->kind == Expr::Kind::kVar) return e->var == var;
  if (e->kind == Expr::Kind::kCall && e->args.size() == 1 &&
      functions::IsAggregateName(e->fn) &&
      e->args[0]->kind == Expr::Kind::kVar && e->args[0]->var == var) {
    return false;  // exactly the rewriteable pattern
  }
  if (e->base && UsesVarOutsideAgg(e->base, var)) return true;
  for (const auto& a : e->args) {
    if (UsesVarOutsideAgg(a, var)) return true;
  }
  if (e->kind == Expr::Kind::kSubplan) return true;  // conservative
  return false;
}

ExprPtr ReplaceAggCalls(const ExprPtr& e, const std::string& bag_var,
                        const std::string& fn, const ExprPtr& replacement) {
  if (!e) return e;
  if (e->kind == Expr::Kind::kCall && e->fn == fn && e->args.size() == 1 &&
      e->args[0]->kind == Expr::Kind::kVar && e->args[0]->var == bag_var) {
    return replacement;
  }
  auto copy = std::make_shared<Expr>(*e);
  if (copy->base) copy->base = ReplaceAggCalls(copy->base, bag_var, fn, replacement);
  for (auto& a : copy->args) a = ReplaceAggCalls(a, bag_var, fn, replacement);
  return copy;
}

void CollectAggFns(const ExprPtr& e, const std::string& bag_var,
                   std::set<std::string>* fns) {
  if (!e) return;
  if (e->kind == Expr::Kind::kCall && e->args.size() == 1 &&
      functions::IsAggregateName(e->fn) &&
      e->args[0]->kind == Expr::Kind::kVar && e->args[0]->var == bag_var) {
    fns->insert(e->fn);
  }
  if (e->base) CollectAggFns(e->base, bag_var, fns);
  for (const auto& a : e->args) CollectAggFns(a, bag_var, fns);
}

void FindGroupBys(const LogicalOpPtr& op, std::vector<LogicalOpPtr>* out) {
  if (op->kind == LogicalOp::Kind::kGroupBy) out->push_back(op);
  for (const auto& in : op->inputs) FindGroupBys(in, out);
}

// Collects expression slots from the plan, excluding `excluded` and its
// whole subtree — usages of a bag variable must be looked for strictly
// *above* the group-by, because the same name below it (or in the group
// keys, which evaluate in input scope) refers to the pre-grouping binding.
void CollectSlotsAbove(const LogicalOpPtr& op, const LogicalOpPtr& excluded,
                       std::vector<ExprPtr*>* slots) {
  if (op == excluded) return;
  if (op->expr) slots->push_back(&op->expr);
  for (auto& [v, e] : op->group_keys) {
    (void)v;
    slots->push_back(&e);
  }
  for (auto& a : op->aggs) {
    if (a.arg) slots->push_back(&a.arg);
  }
  for (auto& [e, asc] : op->order_keys) {
    (void)asc;
    slots->push_back(&e);
  }
  for (auto& in : op->inputs) CollectSlotsAbove(in, excluded, slots);
}

bool RewriteGroupAggregation(LogicalOpPtr& plan) {
  std::vector<LogicalOpPtr> groups;
  FindGroupBys(plan, &groups);
  bool changed = false;
  for (auto& g : groups) {
    for (auto it = g->with_vars.begin(); it != g->with_vars.end();) {
      const std::string bag_var = it->first;
      const std::string src_var = it->second;
      std::vector<ExprPtr*> slots;
      CollectSlotsAbove(plan, g, &slots);
      bool other_use = false;
      std::set<std::string> fns;
      for (auto* slot : slots) {
        if (UsesVarOutsideAgg(*slot, bag_var)) {
          other_use = true;
          break;
        }
        CollectAggFns(*slot, bag_var, &fns);
      }
      if (other_use || fns.empty()) {
        ++it;
        continue;
      }
      // Add one incremental aggregate per distinct function and substitute
      // the calls.
      for (const auto& fn : fns) {
        std::string agg_var = "#agg" + std::to_string(agg_var_counter++);
        LogicalOp::AggCall agg;
        agg.out_var = agg_var;
        agg.fn = fn;
        agg.arg = Expr::Var(src_var);
        g->aggs.push_back(std::move(agg));
        for (auto* slot : slots) {
          *slot = ReplaceAggCalls(*slot, bag_var, fn, Expr::Var(agg_var));
        }
      }
      it = g->with_vars.erase(it);
      changed = true;
    }
  }
  return changed;
}

// ---------------------------------------------------------------------------
// Rule: introduce secondary-index access paths
// ---------------------------------------------------------------------------

// Matches FieldAccess(Var(scan_var), field); returns field name.
bool MatchFieldOfVar(const ExprPtr& e, const std::string& scan_var,
                     std::string* field) {
  if (e->kind != Expr::Kind::kFieldAccess) return false;
  if (e->base->kind != Expr::Kind::kVar || e->base->var != scan_var) {
    return false;
  }
  *field = e->field;
  return true;
}

const CatalogIndex* FindIndexOn(const CatalogDataset& ds,
                                const std::string& field,
                                CatalogIndex::Kind kind) {
  for (const auto& ix : ds.indexes) {
    if (ix.kind == kind && ix.fields.size() == 1 && ix.fields[0] == field) {
      return &ix;
    }
  }
  return nullptr;
}

bool TryBTreeAccess(const LogicalOpPtr& select, const LogicalOpPtr& scan,
                    const CatalogDataset& ds) {
  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(select->expr, &conjuncts);
  // Gather per-field bounds from constant comparisons.
  struct Bounds {
    ExprPtr lo, hi;
    bool lo_inc = true, hi_inc = true;
  };
  std::map<std::string, Bounds> by_field;
  for (const auto& c : conjuncts) {
    if (c->kind != Expr::Kind::kCompare) continue;
    std::string field;
    ExprPtr constant;
    std::string op = c->fn;
    if (MatchFieldOfVar(c->args[0], scan->var, &field) &&
        c->args[1]->kind == Expr::Kind::kConst) {
      constant = c->args[1];
    } else if (MatchFieldOfVar(c->args[1], scan->var, &field) &&
               c->args[0]->kind == Expr::Kind::kConst) {
      constant = c->args[0];
      // Mirror the comparison.
      if (op == "<") op = ">";
      else if (op == "<=") op = ">=";
      else if (op == ">") op = "<";
      else if (op == ">=") op = "<=";
    } else {
      continue;
    }
    Bounds& b = by_field[field];
    if (op == "=") {
      b.lo = b.hi = constant;
      b.lo_inc = b.hi_inc = true;
    } else if (op == "<") {
      b.hi = constant;
      b.hi_inc = false;
    } else if (op == "<=") {
      b.hi = constant;
      b.hi_inc = true;
    } else if (op == ">") {
      b.lo = constant;
      b.lo_inc = false;
    } else if (op == ">=") {
      b.lo = constant;
      b.lo_inc = true;
    }
  }
  // Primary-key predicates win outright: they become primary-index
  // point/range access with no secondary lookup or post-validation.
  if (ds.pk_fields.size() == 1) {
    auto it = by_field.find(ds.pk_fields[0]);
    if (it != by_field.end() && (it->second.lo || it->second.hi)) {
      scan->access_path.kind = AccessPath::Kind::kPrimary;
      scan->access_path.index_name = "<primary>";
      scan->access_path.lo = it->second.lo;
      scan->access_path.hi = it->second.hi;
      scan->access_path.lo_inclusive = it->second.lo_inc;
      scan->access_path.hi_inclusive = it->second.hi_inc;
      return true;
    }
  }
  for (const auto& [field, b] : by_field) {
    const CatalogIndex* ix = FindIndexOn(ds, field, CatalogIndex::Kind::kBTree);
    if (!ix) continue;
    if (!b.lo && !b.hi) continue;
    scan->access_path.kind = AccessPath::Kind::kBTreeRange;
    scan->access_path.index_name = ix->name;
    scan->access_path.lo = b.lo;
    scan->access_path.hi = b.hi;
    scan->access_path.lo_inclusive = b.lo_inc;
    scan->access_path.hi_inclusive = b.hi_inc;
    return true;
  }
  return false;
}

bool TryRTreeAccess(const LogicalOpPtr& select, const LogicalOpPtr& scan,
                    const CatalogDataset& ds) {
  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(select->expr, &conjuncts);
  for (const auto& c : conjuncts) {
    // spatial-distance($v.f, const-point) <= const-radius
    if (c->kind == Expr::Kind::kCompare && (c->fn == "<=" || c->fn == "<") &&
        c->args[0]->kind == Expr::Kind::kCall &&
        c->args[0]->fn == "spatial-distance" &&
        c->args[1]->kind == Expr::Kind::kConst) {
      const auto& call = c->args[0];
      std::string field;
      ExprPtr center;
      if (MatchFieldOfVar(call->args[0], scan->var, &field) &&
          call->args[1]->kind == Expr::Kind::kConst) {
        center = call->args[1];
      } else if (MatchFieldOfVar(call->args[1], scan->var, &field) &&
                 call->args[0]->kind == Expr::Kind::kConst) {
        center = call->args[0];
      } else {
        continue;
      }
      const CatalogIndex* ix = FindIndexOn(ds, field, CatalogIndex::Kind::kRTree);
      if (!ix) continue;
      double r = c->args[1]->constant.AsDouble();
      if (center->constant.tag() != adm::TypeTag::kPoint) continue;
      auto p = center->constant.AsPoints()[0];
      scan->access_path.kind = AccessPath::Kind::kRTree;
      scan->access_path.index_name = ix->name;
      scan->access_path.query_shape =
          Expr::Const(Value::Rectangle({p.x - r, p.y - r}, {p.x + r, p.y + r}));
      return true;
    }
    // spatial-intersect($v.f, const-shape)
    if (c->kind == Expr::Kind::kCall && c->fn == "spatial-intersect") {
      std::string field;
      ExprPtr shape;
      if (MatchFieldOfVar(c->args[0], scan->var, &field) &&
          c->args[1]->kind == Expr::Kind::kConst) {
        shape = c->args[1];
      } else if (MatchFieldOfVar(c->args[1], scan->var, &field) &&
                 c->args[0]->kind == Expr::Kind::kConst) {
        shape = c->args[0];
      } else {
        continue;
      }
      const CatalogIndex* ix = FindIndexOn(ds, field, CatalogIndex::Kind::kRTree);
      if (!ix) continue;
      scan->access_path.kind = AccessPath::Kind::kRTree;
      scan->access_path.index_name = ix->name;
      scan->access_path.query_shape = shape;
      return true;
    }
  }
  return false;
}

bool TryInvertedAccess(const LogicalOpPtr& select, const LogicalOpPtr& scan,
                       const CatalogDataset& ds) {
  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(select->expr, &conjuncts);
  for (const auto& c : conjuncts) {
    if (c->kind != Expr::Kind::kCall) continue;
    // contains($v.f, "const") with a keyword index: all word tokens of the
    // constant must occur.
    if (c->fn == "contains" && c->args.size() == 2) {
      std::string field;
      if (!MatchFieldOfVar(c->args[0], scan->var, &field)) continue;
      if (c->args[1]->kind != Expr::Kind::kConst ||
          !c->args[1]->constant.IsString()) {
        continue;
      }
      const CatalogIndex* ix =
          FindIndexOn(ds, field, CatalogIndex::Kind::kKeyword);
      if (!ix) continue;
      auto tokens = functions::WordTokens(c->args[1]->constant.AsString());
      if (tokens.empty()) continue;
      scan->access_path.kind = AccessPath::Kind::kInvertedKeyword;
      scan->access_path.index_name = ix->name;
      scan->access_path.probe = c->args[1];
      scan->access_path.min_matches = tokens.size();
      return true;
    }
    // edit-distance-contains($v.f, "const", k) with an ngram index: use the
    // T-occurrence lower bound |grams| - k * q.
    if (c->fn == "edit-distance-contains" && c->args.size() == 3) {
      std::string field;
      if (!MatchFieldOfVar(c->args[0], scan->var, &field)) continue;
      if (c->args[1]->kind != Expr::Kind::kConst ||
          c->args[2]->kind != Expr::Kind::kConst) {
        continue;
      }
      const CatalogIndex* ix = FindIndexOn(ds, field, CatalogIndex::Kind::kNgram);
      if (!ix) continue;
      size_t q = ix->gram_length;
      auto grams = functions::GramTokens(c->args[1]->constant.AsString(), q,
                                         /*pad=*/true);
      int64_t k = c->args[2]->constant.AsInt();
      int64_t threshold = static_cast<int64_t>(grams.size()) - k * static_cast<int64_t>(q);
      if (threshold <= 0) continue;  // bound vacuous: index not useful
      scan->access_path.kind = AccessPath::Kind::kInvertedNgram;
      scan->access_path.index_name = ix->name;
      scan->access_path.probe = c->args[1];
      scan->access_path.min_matches = static_cast<size_t>(threshold);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Projection pushdown (paper §2.3 / columnar storage): compute which fields
// of each scan's record downstream operators actually touch and record the
// set on the scan, plus any sargable constant ranges from the Select directly
// above it. Purely a physical-read optimization: scans materialize fewer
// column pages; results are unchanged (the Select still applies the full
// predicate, and absent fields evaluate to MISSING exactly as before only
// when nothing reads them).
// ---------------------------------------------------------------------------

void CollectScans(const LogicalOpPtr& op, std::vector<LogicalOpPtr>* out) {
  if (op->kind == LogicalOp::Kind::kDataSourceScan) out->push_back(op);
  for (const auto& in : op->inputs) CollectScans(in, out);
}

bool OpContains(const LogicalOpPtr& root, const LogicalOp* target) {
  if (root.get() == target) return true;
  for (const auto& in : root->inputs) {
    if (OpContains(in, target)) return true;
  }
  return false;
}

void CollectVarUsesOp(const LogicalOpPtr& op, const LogicalOp* scan,
                      const std::string& v, bool* whole,
                      std::set<std::string>* fields);

// Walks an expression recording which fields of `v` it reads. Any use of
// `v` other than a direct FieldAccess(Var(v), f) forces the whole record.
// Shadowing inside subplans/quantifiers only over-collects (safe).
void CollectVarUsesExpr(const ExprPtr& e, const std::string& v, bool* whole,
                        std::set<std::string>* fields) {
  if (!e) return;
  if (e->kind == Expr::Kind::kVar) {
    if (e->var == v) *whole = true;
    return;
  }
  if (e->kind == Expr::Kind::kFieldAccess &&
      e->base->kind == Expr::Kind::kVar && e->base->var == v) {
    fields->insert(e->field);
    return;
  }
  if (e->base) CollectVarUsesExpr(e->base, v, whole, fields);
  for (const auto& a : e->args) CollectVarUsesExpr(a, v, whole, fields);
  if (e->kind == Expr::Kind::kSubplan && e->subplan) {
    CollectVarUsesOp(e->subplan, nullptr, v, whole, fields);
  }
}

void CollectVarUsesOp(const LogicalOpPtr& op, const LogicalOp* scan,
                      const std::string& v, bool* whole,
                      std::set<std::string>* fields) {
  if (op.get() == scan) {
    // The scan itself binds `v`; its own exprs (access-path bounds) are
    // constants and cannot reference it.
  } else {
    // Distinct compares full binding tuples; a group-by `with` clause bags
    // up whole source values. Either forces full materialization when the
    // scan's binding is in scope (i.e. the scan is in this op's subtree).
    bool covers = !scan || OpContains(op, scan);
    if (covers && op->kind == LogicalOp::Kind::kDistinct) *whole = true;
    if (covers) {
      for (const auto& [bag, src] : op->with_vars) {
        (void)bag;
        if (src == v) *whole = true;
      }
    }
    CollectVarUsesExpr(op->expr, v, whole, fields);
    for (const auto& [gv, ge] : op->group_keys) {
      (void)gv;
      CollectVarUsesExpr(ge, v, whole, fields);
    }
    for (const auto& a : op->aggs) {
      // count($v) reads no field: the count aggregator skips only MISSING,
      // and a scan's (projected) record never is.
      bool counts_v = (a.fn == "count" || a.fn == "sql-count") && a.arg &&
                      a.arg->kind == Expr::Kind::kVar && a.arg->var == v;
      if (!counts_v) CollectVarUsesExpr(a.arg, v, whole, fields);
    }
    for (const auto& [oe, asc] : op->order_keys) {
      (void)asc;
      CollectVarUsesExpr(oe, v, whole, fields);
    }
  }
  for (const auto& in : op->inputs) {
    CollectVarUsesOp(in, scan, v, whole, fields);
  }
}

// Records sargable constant ranges from the Select directly above a scan
// (for columnar min/max page skipping). The Select stays in place.
void AttachScanRanges(const LogicalOpPtr& op) {
  for (const auto& in : op->inputs) AttachScanRanges(in);
  if (op->kind != LogicalOp::Kind::kSelect || op->inputs.empty()) return;
  const LogicalOpPtr& child = op->inputs[0];
  if (child->kind != LogicalOp::Kind::kDataSourceScan) return;
  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(op->expr, &conjuncts);
  for (const auto& c : conjuncts) {
    if (c->kind != Expr::Kind::kCompare) continue;
    std::string field;
    ExprPtr constant;
    std::string cmp = c->fn;
    if (MatchFieldOfVar(c->args[0], child->var, &field) &&
        c->args[1]->kind == Expr::Kind::kConst) {
      constant = c->args[1];
    } else if (MatchFieldOfVar(c->args[1], child->var, &field) &&
               c->args[0]->kind == Expr::Kind::kConst) {
      constant = c->args[0];
      // Flip: const OP field  ==  field FLIP(OP) const.
      if (cmp == "<") cmp = ">";
      else if (cmp == "<=") cmp = ">=";
      else if (cmp == ">") cmp = "<";
      else if (cmp == ">=") cmp = "<=";
    } else {
      continue;
    }
    const Value& cv = constant->constant;
    if (cv.IsUnknown()) continue;
    LogicalOp::ScanRange r;
    r.field = field;
    if (cmp == "=") {
      r.lo = cv;
      r.hi = cv;
    } else if (cmp == "<") {
      r.hi = cv;
      r.hi_inclusive = false;
    } else if (cmp == "<=") {
      r.hi = cv;
    } else if (cmp == ">") {
      r.lo = cv;
      r.lo_inclusive = false;
    } else if (cmp == ">=") {
      r.lo = cv;
    } else {
      continue;  // != and ~= cannot prune via min/max
    }
    child->scan_ranges.push_back(std::move(r));
  }
}

bool PushProjectionIntoScan(const LogicalOpPtr& root) {
  std::vector<LogicalOpPtr> scans;
  CollectScans(root, &scans);
  bool changed = false;
  for (const auto& scan : scans) {
    bool whole = false;
    std::set<std::string> fields;
    CollectVarUsesOp(root, scan.get(), scan->var, &whole, &fields);
    if (whole) continue;
    scan->scan_project_all = false;
    scan->projected_fields.assign(fields.begin(), fields.end());
    changed = true;
  }
  AttachScanRanges(root);
  return changed;
}

bool IntroduceIndexAccess(const LogicalOpPtr& op, const RuleCatalog& catalog) {
  bool changed = false;
  for (const auto& in : op->inputs) changed |= IntroduceIndexAccess(in, catalog);
  if (op->kind != LogicalOp::Kind::kSelect || op->skip_index) return changed;
  const LogicalOpPtr& child = op->inputs[0];
  if (child->kind != LogicalOp::Kind::kDataSourceScan) return changed;
  if (child->access_path.kind != AccessPath::Kind::kNone) return changed;
  const CatalogDataset* ds = catalog.FindDataset(child->dataset);
  if (!ds) return changed;
  if (TryBTreeAccess(op, child, *ds)) return true;
  if (TryRTreeAccess(op, child, *ds)) return true;
  if (TryInvertedAccess(op, child, *ds)) return true;
  return changed;
}

}  // namespace

Result<LogicalOpPtr> Optimize(const LogicalOpPtr& plan,
                              const RuleCatalog& catalog,
                              const OptimizerOptions& options) {
  LogicalOpPtr p = CloneOp(plan);
  FoldOpExprs(p);
  for (int i = 0; i < 4; ++i) {
    if (!RewriteScalarAggregates(p)) break;
  }
  // After the aggregate rewrite, so that a lifted aggregate's FLWOR has its
  // where clause pushed too: left above its join, an equijoin would stay a
  // filtered cross product.
  for (int i = 0; i < 16; ++i) {
    if (!PushSelectsOnce(p)) break;
  }
  RewriteGroupAggregation(p);
  if (options.use_indexes) IntroduceIndexAccess(p, catalog);
  PushProjectionIntoScan(p);
  return p;
}

std::vector<std::string> RuleNames() {
  return {
      "fold-constants",
      "merge-selects",
      "push-select-through-join",
      "push-select-through-assign-unnest",
      "rewrite-scalar-aggregate-over-subplan",
      "rewrite-group-aggregation (avoid group materialization)",
      "introduce-btree-access-path",
      "introduce-rtree-access-path",
      "introduce-inverted-keyword-access-path",
      "introduce-inverted-ngram-access-path (T-occurrence)",
      "push-projection-into-scan (columnar page pruning)",
      "split-aggregation-local-global (physical)",
      "introduce-exchange-partitioning (physical)",
      "sort-primary-keys-before-primary-lookup (physical)",
      "post-validate-secondary-results (physical)",
      "index-nested-loop-join-on-hint (physical)",
  };
}

}  // namespace algebricks
}  // namespace asterix
