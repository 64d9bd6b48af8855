#include "transform/interp.h"

#include <map>
#include <stdexcept>

#include "util/strings.h"

namespace nv::transform {

namespace {

struct ReturnSignal {
  Value value;
};

class Interp {
 public:
  Interp(const Program& program, guest::GuestContext& ctx, const InterpOptions& options)
      : program_(program), ctx_(ctx), options_(options) {}

  InterpResult run() {
    const Function* entry = program_.find(options_.entry);
    if (entry == nullptr) throw std::runtime_error("no entry function '" + options_.entry + "'");
    result_.ret = call_function(*entry, {});
    return std::move(result_);
  }

 private:
  using Scope = std::map<std::string, Value>;

  static long long as_int(const Value& value) {
    if (const auto* i = std::get_if<long long>(&value)) return *i;
    throw std::runtime_error("expected integer value");
  }
  static const std::string& as_str(const Value& value) {
    if (const auto* s = std::get_if<std::string>(&value)) return *s;
    throw std::runtime_error("expected string value");
  }
  static os::uid_t as_uid(const Value& value) { return static_cast<os::uid_t>(as_int(value)); }

  void step() {
    if (++result_.steps > options_.max_steps) throw std::runtime_error("step budget exceeded");
  }

  Value call_function(const Function& fn, std::vector<Value> args) {
    if (args.size() != fn.params.size()) {
      throw std::runtime_error("bad argument count calling " + fn.name);
    }
    Scope scope;
    for (std::size_t i = 0; i < args.size(); ++i) scope[fn.params[i].name] = std::move(args[i]);
    try {
      for (const auto& stmt : fn.body) exec_stmt(*stmt, scope);
    } catch (ReturnSignal& signal) {
      return std::move(signal.value);
    }
    return 0LL;
  }

  void exec_stmt(const Stmt& stmt, Scope& scope) {
    step();
    switch (stmt.kind) {
      case Stmt::Kind::kVarDecl:
        scope[stmt.name] = stmt.expr ? eval(*stmt.expr, scope) : Value{0LL};
        return;
      case Stmt::Kind::kExpr:
        (void)eval(*stmt.expr, scope);
        return;
      case Stmt::Kind::kReturn:
        throw ReturnSignal{stmt.expr ? eval(*stmt.expr, scope) : Value{0LL}};
      case Stmt::Kind::kIf:
        if (as_int(eval(*stmt.expr, scope)) != 0) {
          for (const auto& child : stmt.body) exec_stmt(*child, scope);
        } else {
          for (const auto& child : stmt.else_body) exec_stmt(*child, scope);
        }
        return;
      case Stmt::Kind::kWhile:
        while (as_int(eval(*stmt.expr, scope)) != 0) {
          step();
          for (const auto& child : stmt.body) exec_stmt(*child, scope);
        }
        return;
      case Stmt::Kind::kBlock:
        for (const auto& child : stmt.body) exec_stmt(*child, scope);
        return;
    }
  }

  Value eval(const Expr& expr, Scope& scope) {
    step();
    switch (expr.kind) {
      case Expr::Kind::kIntLit:
      case Expr::Kind::kBoolLit:
        return expr.int_value;
      case Expr::Kind::kStrLit:
        return expr.str_value;
      case Expr::Kind::kVar: {
        const auto it = scope.find(expr.name);
        if (it == scope.end()) throw std::runtime_error("unbound variable " + expr.name);
        return it->second;
      }
      case Expr::Kind::kAssign: {
        Value value = eval(*expr.lhs, scope);
        scope[expr.name] = value;
        return value;
      }
      case Expr::Kind::kUnary: {
        const Value operand = eval(*expr.lhs, scope);
        if (expr.un_op == UnOp::kNot) return static_cast<long long>(as_int(operand) == 0);
        return -as_int(operand);
      }
      case Expr::Kind::kBinary:
        return eval_binary(expr, scope);
      case Expr::Kind::kCall:
        return eval_call(expr, scope);
    }
    throw std::runtime_error("unreachable expression kind");
  }

  Value eval_binary(const Expr& expr, Scope& scope) {
    // Short-circuit logicals first.
    if (expr.op == BinOp::kAnd) {
      if (as_int(eval(*expr.lhs, scope)) == 0) return 0LL;
      return static_cast<long long>(as_int(eval(*expr.rhs, scope)) != 0);
    }
    if (expr.op == BinOp::kOr) {
      if (as_int(eval(*expr.lhs, scope)) != 0) return 1LL;
      return static_cast<long long>(as_int(eval(*expr.rhs, scope)) != 0);
    }
    const Value lhs = eval(*expr.lhs, scope);
    const Value rhs = eval(*expr.rhs, scope);
    // UID-typed comparisons operate on the unsigned 32-bit domain — matching
    // the uid_t semantics of the transformed program.
    const bool unsigned_compare = is_uid_type(expr.lhs->type) || is_uid_type(expr.rhs->type);
    if (std::holds_alternative<std::string>(lhs) || std::holds_alternative<std::string>(rhs)) {
      if (expr.op == BinOp::kEq) return static_cast<long long>(as_str(lhs) == as_str(rhs));
      if (expr.op == BinOp::kNeq) return static_cast<long long>(as_str(lhs) != as_str(rhs));
      if (expr.op == BinOp::kAdd) return as_str(lhs) + as_str(rhs);
      throw std::runtime_error("bad string operation");
    }
    const long long a = as_int(lhs);
    const long long b = as_int(rhs);
    const auto ua = static_cast<os::uid_t>(a);
    const auto ub = static_cast<os::uid_t>(b);
    switch (expr.op) {
      case BinOp::kAdd: return a + b;
      case BinOp::kSub: return a - b;
      case BinOp::kMul: return a * b;
      case BinOp::kDiv:
        if (b == 0) throw std::runtime_error("division by zero");
        return a / b;
      case BinOp::kEq: return static_cast<long long>(a == b);
      case BinOp::kNeq: return static_cast<long long>(a != b);
      case BinOp::kLt: return static_cast<long long>(unsigned_compare ? ua < ub : a < b);
      case BinOp::kLeq: return static_cast<long long>(unsigned_compare ? ua <= ub : a <= b);
      case BinOp::kGt: return static_cast<long long>(unsigned_compare ? ua > ub : a > b);
      case BinOp::kGeq: return static_cast<long long>(unsigned_compare ? ua >= ub : a >= b);
      default: throw std::runtime_error("unreachable binop");
    }
  }

  void emit_log(std::string line) {
    if (options_.log_fd >= 0) (void)ctx_.write(options_.log_fd, line + "\n");
    result_.log.push_back(std::move(line));
  }

  Value eval_call(const Expr& expr, Scope& scope) {
    std::vector<Value> args;
    args.reserve(expr.args.size());
    for (const auto& arg : expr.args) args.push_back(eval(*arg, scope));

    if (const Function* fn = program_.find(expr.callee)) {
      return call_function(*fn, std::move(args));
    }

    const std::string& name = expr.callee;
    auto cc = [&](vkernel::CcOp op) -> Value {
      return static_cast<long long>(ctx_.cc(op, as_uid(args.at(0)), as_uid(args.at(1))));
    };
    if (name == "getuid") return static_cast<long long>(ctx_.getuid());
    if (name == "geteuid") return static_cast<long long>(ctx_.geteuid());
    if (name == "getgid") return static_cast<long long>(ctx_.getgid());
    if (name == "getegid") return static_cast<long long>(ctx_.getegid());
    if (name == "setuid") return static_cast<long long>(ctx_.setuid(as_uid(args.at(0))));
    if (name == "seteuid") return static_cast<long long>(ctx_.seteuid(as_uid(args.at(0))));
    if (name == "setreuid") {
      return static_cast<long long>(ctx_.setreuid(as_uid(args.at(0)), as_uid(args.at(1))));
    }
    if (name == "setgid") return static_cast<long long>(ctx_.setgid(as_uid(args.at(0))));
    if (name == "setegid") return static_cast<long long>(ctx_.setegid(as_uid(args.at(0))));
    // Lookup failures return the VARIANT-ENCODED sentinel R_i(-1): a
    // transformed C library reexpresses its UID-typed return values,
    // including error sentinels (the §3.2 "negative UIDs are special"
    // subtlety). Found entries come from the variant's own diversified
    // passwd/group copy and are already encoded.
    if (name == "getpwnam_uid") {
      const auto pw = ctx_.getpwnam(as_str(args.at(0)));
      return static_cast<long long>(pw ? pw->uid : ctx_.uid_const(os::kInvalidUid));
    }
    if (name == "getpwnam_gid") {
      const auto pw = ctx_.getpwnam(as_str(args.at(0)));
      return static_cast<long long>(pw ? pw->gid : ctx_.uid_const(os::kInvalidGid));
    }
    if (name == "getgrnam_gid") {
      const auto gr = ctx_.getgrnam(as_str(args.at(0)));
      return static_cast<long long>(gr ? gr->gid : ctx_.uid_const(os::kInvalidGid));
    }
    if (name == "getpwuid_ok") {
      // Existence probe; routes the UID through a lookup like getpwuid(3).
      const auto content = ctx_.read_file("/etc/passwd");
      if (!content) return 0LL;
      const auto uid = as_uid(args.at(0));
      return static_cast<long long>(vfs::find_uid(*content, uid).has_value());
    }
    if (name == "log_msg") {
      emit_log(as_str(args.at(0)));
      return 0LL;
    }
    if (name == "log_uid") {
      // The §4 hazard: embeds the raw (variant-encoded) UID in log output.
      emit_log(as_str(args.at(0)) + " uid=" + std::to_string(as_uid(args.at(1))));
      return 0LL;
    }
    if (name == "respond") {
      result_.responses.push_back(as_int(args.at(0)));
      return 0LL;
    }
    if (name == "abort_request") return 0LL;
    if (name == "exit") ctx_.exit(static_cast<int>(as_int(args.at(0))));
    if (name == "uid_value") return static_cast<long long>(ctx_.uid_value(as_uid(args.at(0))));
    if (name == "cond_chk") {
      return static_cast<long long>(ctx_.cond_chk(as_int(args.at(0)) != 0));
    }
    if (name == "cc_eq") return cc(vkernel::CcOp::kEq);
    if (name == "cc_neq") return cc(vkernel::CcOp::kNeq);
    if (name == "cc_lt") return cc(vkernel::CcOp::kLt);
    if (name == "cc_leq") return cc(vkernel::CcOp::kLeq);
    if (name == "cc_gt") return cc(vkernel::CcOp::kGt);
    if (name == "cc_geq") return cc(vkernel::CcOp::kGeq);
    throw std::runtime_error("unknown function in interpreter: " + name);
  }

  const Program& program_;
  guest::GuestContext& ctx_;
  const InterpOptions& options_;
  InterpResult result_;
};

}  // namespace

InterpResult interpret(const Program& program, guest::GuestContext& ctx,
                       const InterpOptions& options) {
  return Interp(program, ctx, options).run();
}

}  // namespace nv::transform
