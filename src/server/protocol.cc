#include "server/protocol.h"

#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rel/predicate.h"
#include "rel/schema.h"
#include "rel/value.h"

namespace maywsd::server {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) tokens.push_back(std::move(tok));
  return tokens;
}

std::vector<std::string> SplitComma(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

/// An integer token is an integer value; anything else is a string.
rel::Value ParseValue(const std::string& token) {
  if (!token.empty()) {
    char* end = nullptr;
    long long v = std::strtoll(token.c_str(), &end, 10);
    if (end == token.c_str() + token.size()) return rel::Value::Int(v);
  }
  return rel::Value::String(token);
}

Result<rel::CmpOp> ParseCmpOp(const std::string& token) {
  if (token == "=") return rel::CmpOp::kEq;
  if (token == "!=" || token == "<>") return rel::CmpOp::kNe;
  if (token == "<") return rel::CmpOp::kLt;
  if (token == "<=") return rel::CmpOp::kLe;
  if (token == ">") return rel::CmpOp::kGt;
  if (token == ">=") return rel::CmpOp::kGe;
  return Status::InvalidArgument("bad comparison operator: " + token);
}

Result<rel::Relation> ParseRows(const std::string& name,
                                const std::string& attrs_token,
                                const std::vector<std::string>& row_tokens) {
  std::vector<rel::Attribute> attrs;
  for (const std::string& a : SplitComma(attrs_token)) {
    if (a.empty()) {
      return Status::InvalidArgument("empty attribute in " + attrs_token);
    }
    attrs.emplace_back(a);
  }
  rel::Relation out(rel::Schema(std::move(attrs)), name);
  for (const std::string& row_token : row_tokens) {
    std::vector<rel::Value> row;
    for (const std::string& v : SplitComma(row_token)) {
      // The grammar cannot spell an empty string value; an empty item is a
      // truncated or doubled comma, not data.
      if (v.empty()) {
        return Status::InvalidArgument("empty value in row " + row_token);
      }
      row.push_back(ParseValue(v));
    }
    if (row.size() != out.arity()) {
      return Status::InvalidArgument("row " + row_token + " has " +
                                     std::to_string(row.size()) +
                                     " values, schema wants " +
                                     std::to_string(out.arity()));
    }
    out.AppendRow(row);
  }
  return out;
}

/// run <sid> <out> <scan|select|project> ... — tokens[3:] here.
Result<rel::Plan> ParsePlan(const std::vector<std::string>& t) {
  if (t.empty()) return Status::InvalidArgument("run: missing plan");
  const std::string& op = t[0];
  if (op == "scan") {
    if (t.size() != 2) return Status::InvalidArgument("run: scan <rel>");
    return rel::Plan::Scan(t[1]);
  }
  if (op == "select") {
    if (t.size() != 5) {
      return Status::InvalidArgument("run: select <rel> <attr> <op> <value>");
    }
    MAYWSD_ASSIGN_OR_RETURN(rel::CmpOp cmp, ParseCmpOp(t[3]));
    return rel::Plan::Select(rel::Predicate::Cmp(t[2], cmp, ParseValue(t[4])),
                             rel::Plan::Scan(t[1]));
  }
  if (op == "project") {
    if (t.size() != 3) {
      return Status::InvalidArgument("run: project <rel> <attr,attr,...>");
    }
    std::vector<std::string> attrs = SplitComma(t[2]);
    for (const std::string& a : attrs) {
      if (a.empty()) {
        return Status::InvalidArgument("empty attribute in " + t[2]);
      }
    }
    return rel::Plan::Project(std::move(attrs), rel::Plan::Scan(t[1]));
  }
  return Status::InvalidArgument("run: unknown plan operator " + op);
}

/// apply <sid> <insert|delete|modify> ... — tokens[2:] here.
Result<rel::UpdateOp> ParseUpdate(const std::vector<std::string>& t) {
  if (t.size() < 2) return Status::InvalidArgument("apply: missing update");
  const std::string& op = t[0];
  const std::string& relation = t[1];
  if (op == "insert") {
    // Session::Apply validates inserted attribute names against the
    // target, so the wire carries them (same shape register uses).
    if (t.size() < 4) {
      return Status::InvalidArgument(
          "apply: insert <rel> <attr,attr,...> <v,v,...> ...");
    }
    MAYWSD_ASSIGN_OR_RETURN(
        rel::Relation rows,
        ParseRows(relation, t[2],
                  std::vector<std::string>(t.begin() + 3, t.end())));
    return rel::UpdateOp::InsertTuples(relation, std::move(rows));
  }
  if (op == "delete") {
    if (t.size() != 5) {
      return Status::InvalidArgument("apply: delete <rel> <attr> <op> <value>");
    }
    MAYWSD_ASSIGN_OR_RETURN(rel::CmpOp cmp, ParseCmpOp(t[3]));
    return rel::UpdateOp::DeleteWhere(
        relation, rel::Predicate::Cmp(t[2], cmp, ParseValue(t[4])));
  }
  if (op == "modify") {
    if (t.size() != 7 || t[5] != "set") {
      return Status::InvalidArgument(
          "apply: modify <rel> <attr> <op> <value> set <attr>=<value>[,...]");
    }
    MAYWSD_ASSIGN_OR_RETURN(rel::CmpOp cmp, ParseCmpOp(t[3]));
    std::vector<rel::Assignment> assignments;
    for (const std::string& a : SplitComma(t[6])) {
      size_t eq = a.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == a.size()) {
        return Status::InvalidArgument("bad assignment: " + a);
      }
      assignments.push_back(
          {a.substr(0, eq), ParseValue(a.substr(eq + 1))});
    }
    return rel::UpdateOp::ModifyWhere(
        relation, rel::Predicate::Cmp(t[2], cmp, ParseValue(t[4])),
        std::move(assignments));
  }
  return Status::InvalidArgument("apply: unknown update kind " + op);
}

}  // namespace

Result<Request> ParseRequest(const std::string& line) {
  std::vector<std::string> t = Tokenize(line);
  if (t.empty()) return Status::InvalidArgument("empty request");
  const std::string& verb = t[0];
  Request req;

  if (verb == "sessions") {
    req.kind = Request::Kind::kListSessions;
    return req;
  }
  if (t.size() < 2) {
    return Status::InvalidArgument(verb + ": missing session id");
  }
  req.session = t[1];

  if (verb == "open") {
    if (t.size() != 3) {
      return Status::InvalidArgument("open <sid> <wsd|wsdt|uniform|urel>");
    }
    req.kind = Request::Kind::kOpenSession;
    MAYWSD_ASSIGN_OR_RETURN(req.backend, api::ParseBackendKind(t[2]));
    return req;
  }
  if (verb == "close") {
    req.kind = Request::Kind::kCloseSession;
    return req;
  }
  if (verb == "register") {
    if (t.size() < 4) {
      return Status::InvalidArgument(
          "register <sid> <rel> <attr,attr,...> [<v,v,...> ...]");
    }
    req.kind = Request::Kind::kRegister;
    MAYWSD_ASSIGN_OR_RETURN(
        rel::Relation relation,
        ParseRows(t[2], t[3],
                  std::vector<std::string>(t.begin() + 4, t.end())));
    req.relation = std::move(relation);
    return req;
  }
  if (verb == "run") {
    if (t.size() < 4) return Status::InvalidArgument("run <sid> <out> <plan>");
    req.kind = Request::Kind::kRun;
    req.target = t[2];
    MAYWSD_ASSIGN_OR_RETURN(
        rel::Plan plan,
        ParsePlan(std::vector<std::string>(t.begin() + 3, t.end())));
    req.plan = std::move(plan);
    return req;
  }
  if (verb == "apply") {
    req.kind = Request::Kind::kApply;
    MAYWSD_ASSIGN_OR_RETURN(
        rel::UpdateOp update,
        ParseUpdate(std::vector<std::string>(t.begin() + 2, t.end())));
    req.update = std::move(update);
    return req;
  }
  if (verb == "possible" || verb == "certain" || verb == "read" ||
      verb == "conf") {
    if (t.size() < 3) {
      return Status::InvalidArgument(verb + " <sid> <rel>");
    }
    req.target = t[2];
    if (verb == "possible") {
      req.kind = Request::Kind::kPossible;
    } else if (verb == "certain") {
      req.kind = Request::Kind::kCertain;
    } else if (verb == "read") {
      req.kind = Request::Kind::kSnapshotRead;
    } else {
      if (t.size() != 4) {
        return Status::InvalidArgument("conf <sid> <rel> <v,v,...>");
      }
      req.kind = Request::Kind::kConfidence;
      for (const std::string& v : SplitComma(t[3])) {
        if (v.empty()) {
          return Status::InvalidArgument("empty value in tuple " + t[3]);
        }
        req.tuple.push_back(ParseValue(v));
      }
    }
    return req;
  }
  if (verb == "stats") {
    req.kind = Request::Kind::kStats;
    return req;
  }
  return Status::InvalidArgument("unknown verb: " + verb);
}

namespace {

/// Canonical operator spellings (kNe formats as "!="; "<>" parses only).
std::string_view FormatCmpOp(rel::CmpOp op) {
  switch (op) {
    case rel::CmpOp::kEq:
      return "=";
    case rel::CmpOp::kNe:
      return "!=";
    case rel::CmpOp::kLt:
      return "<";
    case rel::CmpOp::kLe:
      return "<=";
    case rel::CmpOp::kGt:
      return ">";
    case rel::CmpOp::kGe:
      return ">=";
  }
  return "=";
}

/// A value as a wire token; fails when the token would not survive
/// re-tokenization (whitespace/comma split, or a string that re-parses as
/// an integer).
Result<std::string> FormatValue(const rel::Value& v) {
  if (v.is_int()) return std::to_string(v.AsInt());
  if (!v.is_string()) {
    return Status::InvalidArgument("value not expressible on the wire: " +
                                   v.ToString());
  }
  std::string s(v.AsStringView());
  if (s.empty()) return Status::InvalidArgument("empty string value");
  for (char c : s) {
    if (c == ',' || c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      return Status::InvalidArgument("string value would not re-tokenize: " +
                                     s);
    }
  }
  if (!(ParseValue(s) == v)) {
    return Status::InvalidArgument("string value re-parses as integer: " + s);
  }
  return s;
}

/// <v,v,...> tokens of a relation's rows, appended after `out`.
Status FormatRows(const rel::Relation& r, std::ostringstream& os) {
  for (size_t i = 0; i < r.NumRows(); ++i) {
    os << " ";
    const auto row = r.row(i).span();
    for (size_t c = 0; c < row.size(); ++c) {
      MAYWSD_ASSIGN_OR_RETURN(std::string tok, FormatValue(row[c]));
      os << (c == 0 ? "" : ",") << tok;
    }
  }
  return Status::Ok();
}

/// <rel> <attr,attr,...> [<v,v,...> ...] — the register/insert shape.
Status FormatRelation(const rel::Relation& r, std::ostringstream& os) {
  os << r.name();
  if (r.arity() == 0) {
    return Status::InvalidArgument("relation without attributes: " + r.name());
  }
  os << " ";
  for (size_t a = 0; a < r.arity(); ++a) {
    os << (a == 0 ? "" : ",") << r.schema().attr(a).name_view();
  }
  return FormatRows(r, os);
}

/// <attr> <op> <value> of a simple comparison predicate.
Status FormatCmpPredicate(const rel::Predicate& p, std::ostringstream& os) {
  if (p.kind() != rel::Predicate::Kind::kCmpConst) {
    return Status::InvalidArgument("predicate beyond the wire grammar");
  }
  MAYWSD_ASSIGN_OR_RETURN(std::string tok, FormatValue(p.constant()));
  os << p.lhs_attr() << " " << FormatCmpOp(p.op()) << " " << tok;
  return Status::Ok();
}

/// scan/select/project over a scan — the single-operator plan fragment.
Status FormatPlan(const rel::Plan& plan, std::ostringstream& os) {
  switch (plan.kind()) {
    case rel::Plan::Kind::kScan:
      os << "scan " << plan.relation();
      return Status::Ok();
    case rel::Plan::Kind::kSelect: {
      if (plan.child().kind() != rel::Plan::Kind::kScan) break;
      os << "select " << plan.child().relation() << " ";
      return FormatCmpPredicate(plan.predicate(), os);
    }
    case rel::Plan::Kind::kProject: {
      if (plan.child().kind() != rel::Plan::Kind::kScan) break;
      os << "project " << plan.child().relation() << " ";
      const std::vector<std::string>& attrs = plan.attributes();
      for (size_t a = 0; a < attrs.size(); ++a) {
        os << (a == 0 ? "" : ",") << attrs[a];
      }
      return Status::Ok();
    }
    default:
      break;
  }
  return Status::InvalidArgument("plan beyond the wire grammar");
}

Status FormatUpdate(const rel::UpdateOp& update, std::ostringstream& os) {
  if (update.has_world_condition()) {
    return Status::InvalidArgument("world conditions have no wire syntax");
  }
  switch (update.kind()) {
    case rel::UpdateOp::Kind::kInsert: {
      os << "insert ";
      const rel::Relation& rows = update.tuples();
      if (rows.empty()) {
        return Status::InvalidArgument("insert without rows: " +
                                       update.relation());
      }
      return FormatRelation(rows, os);
    }
    case rel::UpdateOp::Kind::kDelete:
      os << "delete " << update.relation() << " ";
      return FormatCmpPredicate(update.predicate(), os);
    case rel::UpdateOp::Kind::kModify: {
      os << "modify " << update.relation() << " ";
      MAYWSD_RETURN_IF_ERROR(FormatCmpPredicate(update.predicate(), os));
      os << " set ";
      const std::vector<rel::Assignment>& as = update.assignments();
      if (as.empty()) {
        return Status::InvalidArgument("modify without assignments");
      }
      for (size_t i = 0; i < as.size(); ++i) {
        MAYWSD_ASSIGN_OR_RETURN(std::string tok, FormatValue(as[i].value));
        os << (i == 0 ? "" : ",") << as[i].attr << "=" << tok;
      }
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown update kind");
}

}  // namespace

Result<std::string> FormatRequest(const Request& request) {
  std::ostringstream os;
  switch (request.kind) {
    case Request::Kind::kListSessions:
      return std::string("sessions");
    case Request::Kind::kOpenSession:
      os << "open " << request.session << " "
         << api::BackendKindName(request.backend);
      return os.str();
    case Request::Kind::kCloseSession:
      os << "close " << request.session;
      return os.str();
    case Request::Kind::kRegister: {
      if (!request.relation.has_value()) {
        return Status::InvalidArgument("register without relation");
      }
      os << "register " << request.session << " ";
      MAYWSD_RETURN_IF_ERROR(FormatRelation(*request.relation, os));
      return os.str();
    }
    case Request::Kind::kRun: {
      if (!request.plan.has_value()) {
        return Status::InvalidArgument("run without plan");
      }
      os << "run " << request.session << " " << request.target << " ";
      MAYWSD_RETURN_IF_ERROR(FormatPlan(*request.plan, os));
      return os.str();
    }
    case Request::Kind::kApply: {
      if (!request.update.has_value()) {
        return Status::InvalidArgument("apply without update");
      }
      os << "apply " << request.session << " ";
      MAYWSD_RETURN_IF_ERROR(FormatUpdate(*request.update, os));
      return os.str();
    }
    case Request::Kind::kPossible:
      os << "possible " << request.session << " " << request.target;
      return os.str();
    case Request::Kind::kCertain:
      os << "certain " << request.session << " " << request.target;
      return os.str();
    case Request::Kind::kSnapshotRead:
      os << "read " << request.session << " " << request.target;
      return os.str();
    case Request::Kind::kConfidence: {
      os << "conf " << request.session << " " << request.target << " ";
      if (request.tuple.empty()) {
        return Status::InvalidArgument("conf without tuple");
      }
      for (size_t i = 0; i < request.tuple.size(); ++i) {
        MAYWSD_ASSIGN_OR_RETURN(std::string tok,
                                FormatValue(request.tuple[i]));
        os << (i == 0 ? "" : ",") << tok;
      }
      return os.str();
    }
    case Request::Kind::kStats:
      os << "stats " << request.session;
      return os.str();
  }
  return Status::InvalidArgument("unknown request kind");
}

std::string FormatResponse(const Response& response) {
  if (!response.status.ok()) return "ERR " + response.status.ToString();
  std::string out = "OK";
  if (response.relation.has_value()) {
    const rel::Relation& r = *response.relation;
    // A guess of a few bytes per cell keeps regrowth rare.
    out.reserve(16 + r.NumRows() * (1 + 4 * r.arity()));
    out += ' ';
    out += std::to_string(r.NumRows());
    out += " rows";
    for (size_t i = 0; i < r.NumRows(); ++i) {
      out += '\n';
      const auto row = r.row(i).span();
      for (size_t c = 0; c < row.size(); ++c) {
        if (c != 0) out += ',';
        row[c].AppendTo(out);
      }
    }
  } else if (response.number.has_value()) {
    out += ' ';
    rel::Value::Double(*response.number).AppendTo(out);
  } else if (!response.text.empty()) {
    out += ' ';
    out += response.text;
  }
  return out;
}

}  // namespace maywsd::server
