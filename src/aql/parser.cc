#include "aql/parser.h"

#include <cstdlib>
#include <map>
#include <set>

#include "adm/adm_parser.h"
#include "functions/builtins.h"

namespace asterix {
namespace aql {

using adm::Value;
using algebricks::Expr;
using algebricks::ExprPtr;
using algebricks::LogicalOp;
using algebricks::LogicalOpPtr;
using algebricks::MakeOp;

namespace {

// ---------------------------------------------------------------------------
// Variable substitution (UDF inlining)
// ---------------------------------------------------------------------------

void SubstituteInPlan(LogicalOpPtr& plan,
                      const std::map<std::string, ExprPtr>& subs);

ExprPtr SubstituteInExpr(const ExprPtr& e,
                         const std::map<std::string, ExprPtr>& subs) {
  if (!e) return e;
  if (e->kind == Expr::Kind::kVar) {
    auto it = subs.find(e->var);
    return it != subs.end() ? it->second : e;
  }
  auto copy = std::make_shared<Expr>(*e);
  if (copy->base) copy->base = SubstituteInExpr(copy->base, subs);
  for (auto& a : copy->args) a = SubstituteInExpr(a, subs);
  if (copy->kind == Expr::Kind::kQuantified) {
    // Quantifier variable shadows.
    std::map<std::string, ExprPtr> inner = subs;
    inner.erase(copy->qvar);
    copy->args[1] = SubstituteInExpr(e->args[1], inner);
  }
  if (copy->kind == Expr::Kind::kSubplan) {
    copy->subplan = algebricks::CloneOp(copy->subplan);
    SubstituteInPlan(copy->subplan, subs);
  }
  return copy;
}

void SubstituteInPlan(LogicalOpPtr& plan,
                      const std::map<std::string, ExprPtr>& subs) {
  if (!plan) return;
  // Variables bound inside the plan shadow the substitution.
  std::map<std::string, ExprPtr> local = subs;
  // (Conservative: strip any name the plan itself defines.)
  std::set<std::string> defined;
  std::function<void(const LogicalOpPtr&)> collect = [&](const LogicalOpPtr& op) {
    for (const auto& in : op->inputs) collect(in);
    for (const auto& v : op->OutVars()) defined.insert(v);
  };
  collect(plan);
  for (const auto& d : defined) local.erase(d);
  std::function<void(LogicalOpPtr&)> walk = [&](LogicalOpPtr& op) {
    if (op->expr) op->expr = SubstituteInExpr(op->expr, local);
    for (auto& [v, e] : op->group_keys) {
      (void)v;
      e = SubstituteInExpr(e, local);
    }
    for (auto& a : op->aggs) {
      if (a.arg) a.arg = SubstituteInExpr(a.arg, local);
    }
    for (auto& [e, asc] : op->order_keys) {
      (void)asc;
      e = SubstituteInExpr(e, local);
    }
    for (auto& in : op->inputs) walk(in);
  };
  walk(plan);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  Parser(const std::string& text, ParserContext* ctx)
      : text_(text), ctx_(ctx) {}

  Status Init() {
    auto toks = Tokenize(text_);
    if (!toks.ok()) return toks.status();
    tokens_ = toks.take();
    return Status::OK();
  }

  Result<std::vector<Statement>> ParseScript();
  Result<ExprPtr> ParseSingleExpression();

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() {
    const Token& t = Peek();
    if (pos_ < tokens_.size() - 1) ++pos_;
    return t;
  }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }
  bool PeekIdent(const char* kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kIdent && t.text == kw;
  }
  bool PeekPunct(const char* p, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kPunct && t.text == p;
  }
  bool ConsumeIdent(const char* kw) {
    if (PeekIdent(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumePunct(const char* p) {
    if (PeekPunct(p)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(const char* what) {
    return Status::ParseError(std::string("expected ") + what + " but found '" +
                              Peek().text + "' at line " +
                              std::to_string(Peek().line));
  }
  Status ExpectPunct(const char* p) {
    if (ConsumePunct(p)) return Status::OK();
    return Expect((std::string("'") + p + "'").c_str());
  }
  Status ExpectIdent(const char* kw) {
    if (ConsumeIdent(kw)) return Status::OK();
    return Expect((std::string("keyword '") + kw + "'").c_str());
  }
  Result<std::string> ExpectName() {
    if (Peek().kind != TokenKind::kIdent) return Expect("identifier");
    return Advance().text;
  }
  Result<std::string> ExpectVariable() {
    if (Peek().kind != TokenKind::kVariable) return Expect("variable");
    return Advance().text;
  }
  Result<std::string> ExpectString() {
    if (Peek().kind != TokenKind::kString) return Expect("string literal");
    return Advance().text;
  }

  std::string Qualify(const std::string& name) {
    if (name.find('.') != std::string::npos) return name;
    return ctx_->dataverse + "." + name;
  }
  /// Parses NAME or NAME.NAME.
  Result<std::string> ParseQualifiedName() {
    ASTERIX_ASSIGN_OR_RETURN(std::string first, ExpectName());
    if (ConsumePunct(".")) {
      ASTERIX_ASSIGN_OR_RETURN(std::string second, ExpectName());
      return first + "." + second;
    }
    return first;
  }

  std::string FreshVar(const std::string& base) {
    return "#" + base + std::to_string(var_counter_++);
  }

  // Statements.
  Result<Statement> ParseStatement();
  Result<Statement> ParseCreate();
  Result<Statement> ParseCreateType();
  Result<Statement> ParseCreateDataset(bool external);
  Result<Statement> ParseCreateIndex();
  Result<Statement> ParseCreateFunction();
  Result<Statement> ParseCreateFeed();
  Result<Statement> ParseInsert();
  Result<Statement> ParseDelete();
  Result<Statement> ParseLoad();
  Result<TypeExprPtr> ParseTypeExpr();
  Status ParseAdaptorParams(std::map<std::string, std::string>* out);

  // Expressions.
  Result<ExprPtr> ParseExpr();
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePostfix();
  Result<ExprPtr> ParsePrimary();
  Result<ExprPtr> ParseFlwor();
  Result<ExprPtr> ParseQuantified(bool is_every);
  Result<ExprPtr> ParseFunctionCall(const std::string& name);
  Result<ExprPtr> MakeFuzzyEquals(ExprPtr lhs, ExprPtr rhs);

  const std::string& text_;
  ParserContext* ctx_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int var_counter_ = 0;
  // Hints seen while parsing the current FLWOR (applied when it closes).
  std::vector<std::set<std::string>> hint_stack_;
};

// ---------------------------------------------------------------------------
// Statement level
// ---------------------------------------------------------------------------

Result<std::vector<Statement>> Parser::ParseScript() {
  std::vector<Statement> out;
  while (!AtEnd()) {
    while (ConsumePunct(";")) {
    }
    if (AtEnd()) break;
    ASTERIX_ASSIGN_OR_RETURN(Statement st, ParseStatement());
    out.push_back(std::move(st));
    while (ConsumePunct(";")) {
    }
  }
  return out;
}

Result<ExprPtr> Parser::ParseSingleExpression() {
  ASTERIX_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
  if (!AtEnd()) return Expect("end of expression");
  return e;
}

Result<Statement> Parser::ParseStatement() {
  if (PeekIdent("drop")) {
    Advance();
    if (ConsumeIdent("dataverse")) {
      Statement st;
      st.kind = Statement::Kind::kDropDataverse;
      ASTERIX_ASSIGN_OR_RETURN(st.name, ExpectName());
      if (ConsumeIdent("if")) {
        ASTERIX_RETURN_NOT_OK(ExpectIdent("exists"));
        st.if_exists = true;
      }
      st.dataverse = st.name;
      return st;
    }
    if (ConsumeIdent("dataset")) {
      Statement st;
      st.kind = Statement::Kind::kDropDataset;
      ASTERIX_ASSIGN_OR_RETURN(std::string name, ParseQualifiedName());
      st.dataset = Qualify(name);
      st.dataverse = ctx_->dataverse;
      if (ConsumeIdent("if")) {
        ASTERIX_RETURN_NOT_OK(ExpectIdent("exists"));
        st.if_exists = true;
      }
      return st;
    }
    if (ConsumeIdent("index")) {
      // drop index Dataset.IndexName [if exists]
      Statement st;
      st.kind = Statement::Kind::kDropIndex;
      st.dataverse = ctx_->dataverse;
      ASTERIX_ASSIGN_OR_RETURN(std::string ds, ExpectName());
      ASTERIX_RETURN_NOT_OK(ExpectPunct("."));
      ASTERIX_ASSIGN_OR_RETURN(st.name, ExpectName());
      st.dataset = Qualify(ds);
      if (ConsumeIdent("if")) {
        ASTERIX_RETURN_NOT_OK(ExpectIdent("exists"));
        st.if_exists = true;
      }
      return st;
    }
    if (ConsumeIdent("function")) {
      Statement st;
      st.kind = Statement::Kind::kDropFunction;
      st.dataverse = ctx_->dataverse;
      ASTERIX_ASSIGN_OR_RETURN(st.name, ExpectName());
      if (ConsumeIdent("if")) {
        ASTERIX_RETURN_NOT_OK(ExpectIdent("exists"));
        st.if_exists = true;
      }
      return st;
    }
    return Expect("dataverse/dataset/index/function after drop");
  }
  if (PeekIdent("create")) return ParseCreate();
  if (PeekIdent("use")) {
    Advance();
    ASTERIX_RETURN_NOT_OK(ExpectIdent("dataverse"));
    Statement st;
    st.kind = Statement::Kind::kUseDataverse;
    ASTERIX_ASSIGN_OR_RETURN(st.name, ExpectName());
    st.dataverse = st.name;
    ApplySessionStatement(st, ctx_);
    return st;
  }
  if (PeekIdent("set")) {
    Advance();
    Statement st;
    st.kind = Statement::Kind::kSet;
    ASTERIX_ASSIGN_OR_RETURN(st.set_key, ExpectName());
    ASTERIX_ASSIGN_OR_RETURN(st.set_value, ExpectString());
    ApplySessionStatement(st, ctx_);
    st.dataverse = ctx_->dataverse;
    return st;
  }
  if (PeekIdent("insert")) return ParseInsert();
  if (PeekIdent("delete")) return ParseDelete();
  if (PeekIdent("load")) return ParseLoad();
  if (PeekIdent("connect")) {
    Advance();
    ASTERIX_RETURN_NOT_OK(ExpectIdent("feed"));
    Statement st;
    st.kind = Statement::Kind::kConnectFeed;
    ASTERIX_ASSIGN_OR_RETURN(st.name, ParseQualifiedName());
    ASTERIX_RETURN_NOT_OK(ExpectIdent("to"));
    ASTERIX_RETURN_NOT_OK(ExpectIdent("dataset"));
    ASTERIX_ASSIGN_OR_RETURN(std::string ds, ParseQualifiedName());
    st.dataset = Qualify(ds);
    st.dataverse = ctx_->dataverse;
    return st;
  }

  // Otherwise: a query expression, optionally prefixed with
  // `explain [analyze]`.
  Statement st;
  st.kind = Statement::Kind::kQuery;
  if (PeekIdent("explain")) {
    Advance();
    st.explain = true;
    st.analyze = ConsumeIdent("analyze");
  }
  st.dataverse = ctx_->dataverse;
  ASTERIX_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
  if (e->kind == Expr::Kind::kSubplan) {
    st.plan = e->subplan;
  } else {
    auto dist = MakeOp(LogicalOp::Kind::kDistribute);
    dist->inputs = {MakeOp(LogicalOp::Kind::kEmptySource)};
    dist->expr = e;
    st.plan = dist;
  }
  return st;
}

Result<Statement> Parser::ParseCreate() {
  ASTERIX_RETURN_NOT_OK(ExpectIdent("create"));
  if (ConsumeIdent("dataverse")) {
    Statement st;
    st.kind = Statement::Kind::kCreateDataverse;
    ASTERIX_ASSIGN_OR_RETURN(st.name, ExpectName());
    if (ConsumeIdent("if")) {
      ASTERIX_RETURN_NOT_OK(ExpectIdent("not"));
      ASTERIX_RETURN_NOT_OK(ExpectIdent("exists"));
      st.if_exists = true;
    }
    st.dataverse = st.name;
    return st;
  }
  if (PeekIdent("type")) return ParseCreateType();
  if (PeekIdent("external")) {
    Advance();
    ASTERIX_RETURN_NOT_OK(ExpectIdent("dataset"));
    return ParseCreateDataset(/*external=*/true);
  }
  if (ConsumeIdent("dataset")) return ParseCreateDataset(/*external=*/false);
  if (PeekIdent("index")) return ParseCreateIndex();
  if (PeekIdent("function")) return ParseCreateFunction();
  if (PeekIdent("feed")) return ParseCreateFeed();
  return Expect("type/dataset/index/function/feed/dataverse after create");
}

Result<Statement> Parser::ParseCreateType() {
  ASTERIX_RETURN_NOT_OK(ExpectIdent("type"));
  Statement st;
  st.kind = Statement::Kind::kCreateType;
  st.dataverse = ctx_->dataverse;
  ASTERIX_ASSIGN_OR_RETURN(st.name, ExpectName());
  ASTERIX_RETURN_NOT_OK(ExpectIdent("as"));
  bool open = true;
  if (ConsumeIdent("closed")) open = false;
  else ConsumeIdent("open");
  ASTERIX_ASSIGN_OR_RETURN(st.type_expr, ParseTypeExpr());
  if (st.type_expr->kind == TypeExpr::Kind::kRecord) {
    st.type_expr->open = open;
  }
  return st;
}

Result<TypeExprPtr> Parser::ParseTypeExpr() {
  auto t = std::make_shared<TypeExpr>();
  if (ConsumePunct("{{")) {
    t->kind = TypeExpr::Kind::kBag;
    ASTERIX_ASSIGN_OR_RETURN(t->item, ParseTypeExpr());
    ASTERIX_RETURN_NOT_OK(ExpectPunct("}}"));
    return t;
  }
  if (ConsumePunct("[")) {
    t->kind = TypeExpr::Kind::kOrderedList;
    ASTERIX_ASSIGN_OR_RETURN(t->item, ParseTypeExpr());
    ASTERIX_RETURN_NOT_OK(ExpectPunct("]"));
    return t;
  }
  if (ConsumePunct("{")) {
    t->kind = TypeExpr::Kind::kRecord;
    t->open = true;  // records are open unless the create-type says closed
    if (ConsumePunct("}")) return t;
    while (true) {
      TypeExpr::Field f;
      if (Peek().kind == TokenKind::kString) {
        f.name = Advance().text;
      } else {
        ASTERIX_ASSIGN_OR_RETURN(f.name, ExpectName());
      }
      ASTERIX_RETURN_NOT_OK(ExpectPunct(":"));
      ASTERIX_ASSIGN_OR_RETURN(f.type, ParseTypeExpr());
      if (ConsumePunct("?")) f.optional = true;
      t->fields.push_back(std::move(f));
      if (ConsumePunct(",")) continue;
      ASTERIX_RETURN_NOT_OK(ExpectPunct("}"));
      break;
    }
    return t;
  }
  t->kind = TypeExpr::Kind::kNamed;
  ASTERIX_ASSIGN_OR_RETURN(t->name, ExpectName());
  return t;
}

Result<Statement> Parser::ParseCreateDataset(bool external) {
  Statement st;
  st.kind = external ? Statement::Kind::kCreateExternalDataset
                     : Statement::Kind::kCreateDataset;
  st.dataverse = ctx_->dataverse;
  ASTERIX_ASSIGN_OR_RETURN(std::string name, ParseQualifiedName());
  st.name = name;
  st.dataset = Qualify(name);
  ASTERIX_RETURN_NOT_OK(ExpectPunct("("));
  ASTERIX_ASSIGN_OR_RETURN(st.type_name, ExpectName());
  ASTERIX_RETURN_NOT_OK(ExpectPunct(")"));
  if (external) {
    ASTERIX_RETURN_NOT_OK(ExpectIdent("using"));
    ASTERIX_ASSIGN_OR_RETURN(st.adaptor, ExpectName());
    ASTERIX_RETURN_NOT_OK(ParseAdaptorParams(&st.adaptor_params));
    return st;
  }
  ASTERIX_RETURN_NOT_OK(ExpectIdent("primary"));
  ASTERIX_RETURN_NOT_OK(ExpectIdent("key"));
  while (true) {
    ASTERIX_ASSIGN_OR_RETURN(std::string f, ExpectName());
    // Dotted key paths allowed.
    while (ConsumePunct(".")) {
      ASTERIX_ASSIGN_OR_RETURN(std::string part, ExpectName());
      f += "." + part;
    }
    st.primary_key.push_back(std::move(f));
    if (!ConsumePunct(",")) break;
  }
  if (ConsumeIdent("autogenerated")) st.autogenerated_key = true;
  // Storage options: with { "storage-format": "column", "compression": "lz" }.
  if (ConsumeIdent("with")) {
    ASTERIX_RETURN_NOT_OK(ExpectPunct("{"));
    if (!ConsumePunct("}")) {
      while (true) {
        ASTERIX_ASSIGN_OR_RETURN(std::string key, ExpectString());
        ASTERIX_RETURN_NOT_OK(ExpectPunct(":"));
        ASTERIX_ASSIGN_OR_RETURN(std::string value, ExpectString());
        st.with_params[key] = value;
        if (ConsumePunct(",")) continue;
        ASTERIX_RETURN_NOT_OK(ExpectPunct("}"));
        break;
      }
    }
  }
  return st;
}

Result<Statement> Parser::ParseCreateIndex() {
  ASTERIX_RETURN_NOT_OK(ExpectIdent("index"));
  Statement st;
  st.kind = Statement::Kind::kCreateIndex;
  st.dataverse = ctx_->dataverse;
  ASTERIX_ASSIGN_OR_RETURN(st.name, ExpectName());
  ASTERIX_RETURN_NOT_OK(ExpectIdent("on"));
  ASTERIX_ASSIGN_OR_RETURN(std::string ds, ParseQualifiedName());
  st.dataset = Qualify(ds);
  ASTERIX_RETURN_NOT_OK(ExpectPunct("("));
  while (true) {
    ASTERIX_ASSIGN_OR_RETURN(std::string f, ExpectName());
    while (ConsumePunct(".")) {
      ASTERIX_ASSIGN_OR_RETURN(std::string part, ExpectName());
      f += "." + part;
    }
    st.index_fields.push_back(std::move(f));
    if (!ConsumePunct(",")) break;
  }
  ASTERIX_RETURN_NOT_OK(ExpectPunct(")"));
  st.index_kind = "btree";
  if (ConsumeIdent("type")) {
    ASTERIX_ASSIGN_OR_RETURN(st.index_kind, ExpectName());
    if (st.index_kind == "ngram") {
      ASTERIX_RETURN_NOT_OK(ExpectPunct("("));
      if (Peek().kind != TokenKind::kInteger) return Expect("gram length");
      st.gram_length = static_cast<size_t>(Advance().int_value);
      ASTERIX_RETURN_NOT_OK(ExpectPunct(")"));
    }
  }
  return st;
}

Result<Statement> Parser::ParseCreateFunction() {
  ASTERIX_RETURN_NOT_OK(ExpectIdent("function"));
  Statement st;
  st.kind = Statement::Kind::kCreateFunction;
  st.dataverse = ctx_->dataverse;
  ASTERIX_ASSIGN_OR_RETURN(st.name, ExpectName());
  ASTERIX_RETURN_NOT_OK(ExpectPunct("("));
  if (!PeekPunct(")")) {
    while (true) {
      ASTERIX_ASSIGN_OR_RETURN(std::string p, ExpectVariable());
      st.function_params.push_back(std::move(p));
      if (!ConsumePunct(",")) break;
    }
  }
  ASTERIX_RETURN_NOT_OK(ExpectPunct(")"));
  if (!PeekPunct("{")) return Expect("'{' starting function body");
  // Capture the raw body text between balanced braces.
  size_t open_offset = Peek().offset;
  int depth = 0;
  size_t close_offset = std::string::npos;
  while (!AtEnd()) {
    const Token& t = Advance();
    if (t.kind == TokenKind::kPunct) {
      if (t.text == "{") depth += 1;
      else if (t.text == "{{") depth += 2;
      else if (t.text == "}") depth -= 1;
      else if (t.text == "}}") depth -= 2;
      if (depth == 0) {
        close_offset = t.offset;
        break;
      }
    }
  }
  if (close_offset == std::string::npos) {
    return Status::ParseError("unterminated function body for " + st.name);
  }
  st.function_body = text_.substr(open_offset + 1, close_offset - open_offset - 1);
  return st;
}

Result<Statement> Parser::ParseCreateFeed() {
  ASTERIX_RETURN_NOT_OK(ExpectIdent("feed"));
  Statement st;
  st.kind = Statement::Kind::kCreateFeed;
  st.dataverse = ctx_->dataverse;
  ASTERIX_ASSIGN_OR_RETURN(st.name, ExpectName());
  ASTERIX_RETURN_NOT_OK(ExpectIdent("using"));
  ASTERIX_ASSIGN_OR_RETURN(st.adaptor, ExpectName());
  ASTERIX_RETURN_NOT_OK(ParseAdaptorParams(&st.adaptor_params));
  if (ConsumeIdent("apply")) {
    ASTERIX_RETURN_NOT_OK(ExpectIdent("function"));
    ASTERIX_ASSIGN_OR_RETURN(st.feed_function, ExpectName());
  }
  return st;
}

Status Parser::ParseAdaptorParams(std::map<std::string, std::string>* out) {
  ASTERIX_RETURN_NOT_OK(ExpectPunct("("));
  if (ConsumePunct(")")) return Status::OK();
  while (true) {
    ASTERIX_RETURN_NOT_OK(ExpectPunct("("));
    ASTERIX_ASSIGN_OR_RETURN(std::string key, ExpectString());
    ASTERIX_RETURN_NOT_OK(ExpectPunct("="));
    ASTERIX_ASSIGN_OR_RETURN(std::string value, ExpectString());
    (*out)[key] = value;
    ASTERIX_RETURN_NOT_OK(ExpectPunct(")"));
    if (!ConsumePunct(",")) break;
  }
  return ExpectPunct(")");
}

Result<Statement> Parser::ParseInsert() {
  ASTERIX_RETURN_NOT_OK(ExpectIdent("insert"));
  ASTERIX_RETURN_NOT_OK(ExpectIdent("into"));
  ASTERIX_RETURN_NOT_OK(ExpectIdent("dataset"));
  Statement st;
  st.kind = Statement::Kind::kInsert;
  st.dataverse = ctx_->dataverse;
  ASTERIX_ASSIGN_OR_RETURN(std::string ds, ParseQualifiedName());
  st.dataset = Qualify(ds);
  ASTERIX_RETURN_NOT_OK(ExpectPunct("("));
  ASTERIX_ASSIGN_OR_RETURN(st.expr, ParseExpr());
  ASTERIX_RETURN_NOT_OK(ExpectPunct(")"));
  return st;
}

Result<Statement> Parser::ParseDelete() {
  ASTERIX_RETURN_NOT_OK(ExpectIdent("delete"));
  Statement st;
  st.kind = Statement::Kind::kDelete;
  st.dataverse = ctx_->dataverse;
  ASTERIX_ASSIGN_OR_RETURN(st.var, ExpectVariable());
  ASTERIX_RETURN_NOT_OK(ExpectIdent("from"));
  ASTERIX_RETURN_NOT_OK(ExpectIdent("dataset"));
  ASTERIX_ASSIGN_OR_RETURN(std::string ds, ParseQualifiedName());
  st.dataset = Qualify(ds);
  if (ConsumeIdent("where")) {
    ASTERIX_ASSIGN_OR_RETURN(st.expr, ParseExpr());
  }
  return st;
}

Result<Statement> Parser::ParseLoad() {
  ASTERIX_RETURN_NOT_OK(ExpectIdent("load"));
  ASTERIX_RETURN_NOT_OK(ExpectIdent("dataset"));
  Statement st;
  st.kind = Statement::Kind::kLoad;
  st.dataverse = ctx_->dataverse;
  ASTERIX_ASSIGN_OR_RETURN(std::string ds, ParseQualifiedName());
  st.dataset = Qualify(ds);
  ASTERIX_RETURN_NOT_OK(ExpectIdent("using"));
  ASTERIX_ASSIGN_OR_RETURN(st.adaptor, ExpectName());
  ASTERIX_RETURN_NOT_OK(ParseAdaptorParams(&st.adaptor_params));
  return st;
}

// ---------------------------------------------------------------------------
// Expression level
// ---------------------------------------------------------------------------

Result<ExprPtr> Parser::ParseExpr() {
  if (PeekIdent("for") || PeekIdent("let")) return ParseFlwor();
  if (PeekIdent("some")) {
    Advance();
    return ParseQuantified(false);
  }
  if (PeekIdent("every")) {
    Advance();
    return ParseQuantified(true);
  }
  if (PeekIdent("if")) {
    Advance();
    ASTERIX_RETURN_NOT_OK(ExpectPunct("("));
    ASTERIX_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
    ASTERIX_RETURN_NOT_OK(ExpectPunct(")"));
    ASTERIX_RETURN_NOT_OK(ExpectIdent("then"));
    ASTERIX_ASSIGN_OR_RETURN(ExprPtr then_e, ParseExpr());
    ASTERIX_RETURN_NOT_OK(ExpectIdent("else"));
    ASTERIX_ASSIGN_OR_RETURN(ExprPtr else_e, ParseExpr());
    // if(c, t, e) via switch-like builtin lowering: (c and t) or (not c and e)
    // loses type generality, so use a dedicated call evaluated lazily...
    // Implemented via nested conditional on boolean: use a subexpressionless
    // encoding with Quantified would be obscure. Add a builtin-like ternary
    // using kIfMissingOrNull is wrong; introduce Call("if-then-else").
    return Expr::Call("if-then-else", {cond, then_e, else_e});
  }
  return ParseOr();
}

Result<ExprPtr> Parser::ParseOr() {
  ASTERIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
  while (PeekIdent("or")) {
    Advance();
    ASTERIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
    lhs = Expr::Or(lhs, rhs);
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAnd() {
  ASTERIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseComparison());
  while (PeekIdent("and")) {
    Advance();
    ASTERIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseComparison());
    lhs = Expr::And(lhs, rhs);
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseComparison() {
  ASTERIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
  // Hints may precede the comparison operator (Query 14).
  if (Peek().kind == TokenKind::kHint) {
    if (!hint_stack_.empty()) hint_stack_.back().insert(Peek().text);
    Advance();
  }
  static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">=", "~="};
  for (const char* op : kOps) {
    if (PeekPunct(op)) {
      Advance();
      ASTERIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      if (std::string(op) == "~=") return MakeFuzzyEquals(lhs, rhs);
      return Expr::Compare(op, lhs, rhs);
    }
  }
  return lhs;
}

Result<ExprPtr> Parser::MakeFuzzyEquals(ExprPtr lhs, ExprPtr rhs) {
  // `set simfunction`/`set simthreshold` choose the semantics (paper §3,
  // Queries 6 and 13).
  if (ctx_->sim_function == "edit-distance") {
    int64_t k = static_cast<int64_t>(ctx_->sim_threshold);
    auto check = Expr::Call(
        "edit-distance-check",
        {lhs, rhs, Expr::Const(Value::Int64(k))});
    return Expr::IndexAccess(check, Expr::Const(Value::Int64(0)));
  }
  if (ctx_->sim_function == "jaccard") {
    return Expr::Compare(
        ">=", Expr::Call("similarity-jaccard", {lhs, rhs}),
        Expr::Const(Value::Double(ctx_->sim_threshold)));
  }
  return Status::InvalidArgument("unknown simfunction: " + ctx_->sim_function);
}

Result<ExprPtr> Parser::ParseAdditive() {
  ASTERIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
  while (PeekPunct("+") || PeekPunct("-")) {
    std::string op = Advance().text;
    ASTERIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
    lhs = Expr::Arith(op, {lhs, rhs});
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  ASTERIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  while (PeekPunct("*") || PeekPunct("/") || PeekPunct("%") ||
         PeekIdent("idiv")) {
    std::string op = Advance().text;
    if (op == "idiv") op = "%";  // approximate: integer ops via modulo family
    ASTERIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
    lhs = Expr::Arith(op, {lhs, rhs});
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseUnary() {
  if (ConsumePunct("-")) {
    ASTERIX_ASSIGN_OR_RETURN(ExprPtr e, ParseUnary());
    return Expr::Arith("neg", {e});
  }
  if (ConsumePunct("+")) return ParseUnary();
  if (PeekIdent("not") && PeekPunct("(", 1)) {
    // `not(...)` is also a builtin; both spellings accepted.
    Advance();
    ASTERIX_RETURN_NOT_OK(ExpectPunct("("));
    ASTERIX_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    ASTERIX_RETURN_NOT_OK(ExpectPunct(")"));
    return Expr::Not(e);
  }
  return ParsePostfix();
}

Result<ExprPtr> Parser::ParsePostfix() {
  ASTERIX_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
  while (true) {
    if (PeekPunct(".")) {
      Advance();
      ASTERIX_ASSIGN_OR_RETURN(std::string field, ExpectName());
      e = Expr::FieldAccess(e, field);
      continue;
    }
    if (PeekPunct("[")) {
      Advance();
      ASTERIX_ASSIGN_OR_RETURN(ExprPtr idx, ParseExpr());
      ASTERIX_RETURN_NOT_OK(ExpectPunct("]"));
      e = Expr::IndexAccess(e, idx);
      continue;
    }
    break;
  }
  return e;
}

Result<ExprPtr> Parser::ParseQuantified(bool is_every) {
  ASTERIX_ASSIGN_OR_RETURN(std::string var, ExpectVariable());
  ASTERIX_RETURN_NOT_OK(ExpectIdent("in"));
  ASTERIX_ASSIGN_OR_RETURN(ExprPtr coll, ParseExpr());
  ASTERIX_RETURN_NOT_OK(ExpectIdent("satisfies"));
  ASTERIX_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
  return Expr::Quantified(is_every, var, coll, pred);
}

Result<ExprPtr> Parser::ParseFunctionCall(const std::string& name) {
  std::vector<ExprPtr> args;
  if (!PeekPunct(")")) {
    while (true) {
      ASTERIX_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
      args.push_back(std::move(a));
      if (!ConsumePunct(",")) break;
    }
  }
  ASTERIX_RETURN_NOT_OK(ExpectPunct(")"));

  // UDF? Inline its body with parameters substituted (views with params).
  if (ctx_->find_function) {
    const FunctionDef* def =
        ctx_->find_function(ctx_->dataverse, name, args.size());
    if (def) {
      ParserContext inner_ctx = *ctx_;
      inner_ctx.dataverse = def->dataverse;
      Parser inner(def->body, &inner_ctx);
      ASTERIX_RETURN_NOT_OK(inner.Init());
      auto body_r = inner.ParseSingleExpression();
      if (!body_r.ok()) return body_r.status();
      std::map<std::string, ExprPtr> subs;
      for (size_t i = 0; i < def->params.size(); ++i) {
        subs[def->params[i]] = args[i];
      }
      return SubstituteInExpr(body_r.value(), subs);
    }
  }
  if (!functions::LookupBuiltin(name) && name != "dataset" &&
      name != "if-then-else" && name != "get-gram-tokens") {
    return Status::ParseError("unknown function: " + name);
  }
  return Expr::Call(name, std::move(args));
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  switch (t.kind) {
    case TokenKind::kString: {
      Advance();
      return Expr::Const(Value::String(t.text));
    }
    case TokenKind::kInteger: {
      Advance();
      return Expr::Const(Value::Int64(t.int_value));
    }
    case TokenKind::kDouble: {
      Advance();
      return Expr::Const(Value::Double(t.double_value));
    }
    case TokenKind::kVariable: {
      Advance();
      return Expr::Var(t.text);
    }
    case TokenKind::kHint: {
      // Stray hints (e.g. before a predicate) are recorded and skipped.
      if (!hint_stack_.empty()) hint_stack_.back().insert(t.text);
      Advance();
      return ParsePrimary();
    }
    default:
      break;
  }
  if (ConsumePunct("(")) {
    ASTERIX_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    ASTERIX_RETURN_NOT_OK(ExpectPunct(")"));
    return e;
  }
  if (PeekPunct("{{")) {
    Advance();
    std::vector<ExprPtr> items;
    if (!PeekPunct("}}")) {
      while (true) {
        ASTERIX_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        items.push_back(std::move(e));
        if (!ConsumePunct(",")) break;
      }
    }
    ASTERIX_RETURN_NOT_OK(ExpectPunct("}}"));
    return Expr::BagCtor(std::move(items));
  }
  if (ConsumePunct("{")) {
    std::vector<std::string> names;
    std::vector<ExprPtr> values;
    if (!PeekPunct("}")) {
      while (true) {
        std::string fname;
        if (Peek().kind == TokenKind::kString) {
          fname = Advance().text;
        } else if (Peek().kind == TokenKind::kIdent) {
          fname = Advance().text;
        } else {
          return Expect("field name");
        }
        ASTERIX_RETURN_NOT_OK(ExpectPunct(":"));
        ASTERIX_ASSIGN_OR_RETURN(ExprPtr v, ParseExpr());
        names.push_back(std::move(fname));
        values.push_back(std::move(v));
        if (!ConsumePunct(",")) break;
      }
    }
    ASTERIX_RETURN_NOT_OK(ExpectPunct("}"));
    return Expr::RecordCtor(std::move(names), std::move(values));
  }
  if (ConsumePunct("[")) {
    std::vector<ExprPtr> items;
    if (!PeekPunct("]")) {
      while (true) {
        ASTERIX_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        items.push_back(std::move(e));
        if (!ConsumePunct(",")) break;
      }
    }
    ASTERIX_RETURN_NOT_OK(ExpectPunct("]"));
    return Expr::ListCtor(std::move(items));
  }
  if (Peek().kind == TokenKind::kIdent) {
    std::string name = Peek().text;
    if (name == "true") {
      Advance();
      return Expr::Const(Value::Boolean(true));
    }
    if (name == "false") {
      Advance();
      return Expr::Const(Value::Boolean(false));
    }
    if (name == "null") {
      Advance();
      return Expr::Const(Value::Null());
    }
    if (name == "missing") {
      Advance();
      return Expr::Const(Value::Missing());
    }
    if (name == "dataset") {
      Advance();
      ASTERIX_ASSIGN_OR_RETURN(std::string dsname, ParseQualifiedName());
      return Expr::Call("dataset",
                        {Expr::Const(Value::String(Qualify(dsname)))});
    }
    Advance();
    if (ConsumePunct("(")) return ParseFunctionCall(name);
    return Status::ParseError("unexpected identifier '" + name + "' at line " +
                              std::to_string(t.line));
  }
  return Expect("expression");
}

Result<ExprPtr> Parser::ParseFlwor() {
  hint_stack_.emplace_back();
  LogicalOpPtr current = MakeOp(LogicalOp::Kind::kEmptySource);
  bool saw_clause = false;
  bool grouped = false;

  while (true) {
    if (ConsumeIdent("for")) {
      saw_clause = true;
      while (true) {
        ASTERIX_ASSIGN_OR_RETURN(std::string var, ExpectVariable());
        std::string pos_var;
        if (ConsumeIdent("at")) {
          ASTERIX_ASSIGN_OR_RETURN(pos_var, ExpectVariable());
        }
        ASTERIX_RETURN_NOT_OK(ExpectIdent("in"));
        ASTERIX_ASSIGN_OR_RETURN(ExprPtr coll, ParseExpr());
        bool is_dataset_ref = coll->kind == Expr::Kind::kCall &&
                              coll->fn == "dataset" && pos_var.empty();
        if (is_dataset_ref) {
          auto scan = MakeOp(LogicalOp::Kind::kDataSourceScan);
          scan->dataset = coll->args[0]->constant.AsString();
          scan->var = var;
          if (current->kind == LogicalOp::Kind::kEmptySource) {
            current = scan;
          } else {
            auto join = MakeOp(LogicalOp::Kind::kJoin);
            join->inputs = {current, scan};
            current = join;
          }
        } else {
          auto unnest = MakeOp(LogicalOp::Kind::kUnnest);
          unnest->inputs = {current};
          unnest->expr = coll;
          unnest->var = var;
          unnest->pos_var = pos_var;
          current = unnest;
        }
        if (!ConsumePunct(",")) break;
      }
      continue;
    }
    if (ConsumeIdent("let")) {
      saw_clause = true;
      while (true) {
        ASTERIX_ASSIGN_OR_RETURN(std::string var, ExpectVariable());
        ASTERIX_RETURN_NOT_OK(ExpectPunct(":="));
        ASTERIX_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        auto assign = MakeOp(LogicalOp::Kind::kAssign);
        assign->inputs = {current};
        assign->var = var;
        assign->expr = e;
        current = assign;
        if (!ConsumePunct(",")) break;
      }
      continue;
    }
    if (ConsumeIdent("where")) {
      saw_clause = true;
      bool skip_index = false;
      if (Peek().kind == TokenKind::kHint) {
        if (Peek().text == "skip-index") skip_index = true;
        hint_stack_.back().insert(Peek().text);
        Advance();
      }
      ASTERIX_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
      auto select = MakeOp(LogicalOp::Kind::kSelect);
      select->inputs = {current};
      select->expr = cond;
      select->skip_index = skip_index;
      current = select;
      continue;
    }
    if (PeekIdent("group") && PeekIdent("by", 1)) {
      Advance();
      Advance();
      saw_clause = true;
      grouped = true;
      auto group = MakeOp(LogicalOp::Kind::kGroupBy);
      group->inputs = {current};
      while (true) {
        if (Peek().kind != TokenKind::kVariable) return Expect("group key");
        std::string key_var = Advance().text;
        ExprPtr key_expr;
        if (ConsumePunct(":=")) {
          ASTERIX_ASSIGN_OR_RETURN(key_expr, ParseExpr());
        } else {
          key_expr = Expr::Var(key_var);
        }
        group->group_keys.emplace_back(key_var, key_expr);
        if (!ConsumePunct(",")) break;
      }
      ASTERIX_RETURN_NOT_OK(ExpectIdent("with"));
      while (true) {
        ASTERIX_ASSIGN_OR_RETURN(std::string wv, ExpectVariable());
        group->with_vars.emplace_back(wv, wv);
        if (!ConsumePunct(",")) break;
      }
      current = group;
      continue;
    }
    if (PeekIdent("order") && PeekIdent("by", 1)) {
      Advance();
      Advance();
      saw_clause = true;
      auto order = MakeOp(LogicalOp::Kind::kOrder);
      order->inputs = {current};
      while (true) {
        ASTERIX_ASSIGN_OR_RETURN(ExprPtr key, ParseExpr());
        bool asc = true;
        if (ConsumeIdent("desc")) asc = false;
        else ConsumeIdent("asc");
        order->order_keys.emplace_back(key, asc);
        if (!ConsumePunct(",")) break;
      }
      current = order;
      continue;
    }
    if (ConsumeIdent("limit")) {
      saw_clause = true;
      auto lim = MakeOp(LogicalOp::Kind::kLimit);
      lim->inputs = {current};
      if (Peek().kind != TokenKind::kInteger) return Expect("limit count");
      lim->limit = Advance().int_value;
      if (ConsumeIdent("offset")) {
        if (Peek().kind != TokenKind::kInteger) return Expect("offset count");
        lim->offset = Advance().int_value;
      }
      current = lim;
      continue;
    }
    if (ConsumeIdent("distinct")) {
      saw_clause = true;
      auto d = MakeOp(LogicalOp::Kind::kDistinct);
      d->inputs = {current};
      // `distinct by e, ...` dedupes on the given expressions; bare
      // `distinct` dedupes the whole current binding (order_keys doubles as
      // the distinct-key list; the bool is unused).
      if (ConsumeIdent("by")) {
        while (true) {
          ASTERIX_ASSIGN_OR_RETURN(ExprPtr key, ParseExpr());
          d->order_keys.emplace_back(key, true);
          if (!ConsumePunct(",")) break;
        }
      }
      current = d;
      continue;
    }
    break;
  }
  (void)grouped;

  if (!saw_clause) return Expect("FLWOR clause");
  ASTERIX_RETURN_NOT_OK(ExpectIdent("return"));
  ASTERIX_ASSIGN_OR_RETURN(ExprPtr ret, ParseExpr());

  auto dist = MakeOp(LogicalOp::Kind::kDistribute);
  dist->inputs = {current};
  dist->expr = ret;

  // Apply any hints seen in this FLWOR to its join operators.
  std::set<std::string> hints = std::move(hint_stack_.back());
  hint_stack_.pop_back();
  if (hints.count("indexnl") || hints.count("hash")) {
    std::function<void(const LogicalOpPtr&)> apply = [&](const LogicalOpPtr& op) {
      if (op->kind == LogicalOp::Kind::kJoin) {
        op->join_hint = hints.count("indexnl")
                            ? algebricks::JoinHint::kIndexNestedLoop
                            : algebricks::JoinHint::kHash;
      }
      for (const auto& in : op->inputs) apply(in);
    };
    apply(dist);
  }
  return Expr::Subplan(dist);
}

}  // namespace

void ApplySessionStatement(const Statement& st, ParserContext* ctx) {
  if (st.kind == Statement::Kind::kUseDataverse) {
    ctx->dataverse = st.name;
  } else if (st.kind == Statement::Kind::kSet) {
    if (st.set_key == "simfunction") ctx->sim_function = st.set_value;
    if (st.set_key == "simthreshold") {
      ctx->sim_threshold = std::strtod(st.set_value.c_str(), nullptr);
    }
  }
}

Result<std::vector<Statement>> ParseAql(const std::string& text,
                                        ParserContext* ctx) {
  Parser parser(text, ctx);
  ASTERIX_RETURN_NOT_OK(parser.Init());
  return parser.ParseScript();
}

Result<ExprPtr> ParseAqlExpression(const std::string& text, ParserContext* ctx) {
  Parser parser(text, ctx);
  ASTERIX_RETURN_NOT_OK(parser.Init());
  return parser.ParseSingleExpression();
}

}  // namespace aql
}  // namespace asterix
