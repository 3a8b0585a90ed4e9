#include "lp/lp_io.hpp"

#include <cctype>
#include <cstdlib>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/csv.hpp"  // format_double

namespace billcap::lp {

namespace {

/// LP format identifiers: letters, digits and a few punctuation marks, not
/// starting with a digit or 'e'/'E' (to avoid clashing with numbers).
std::string sanitize(const std::string& name, int index) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.')
      out.push_back(c);
    else
      out.push_back('_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])) ||
      out[0] == 'e' || out[0] == 'E' || out[0] == '.')
    out = "v" + std::to_string(index) + "_" + out;
  return out;
}

void write_terms(std::ostringstream& os,
                 const std::vector<std::pair<std::string, double>>& terms) {
  bool first = true;
  for (const auto& [name, coef] : terms) {
    if (coef == 0.0) continue;
    if (first) {
      if (coef < 0.0) os << "- ";
      first = false;
    } else {
      os << (coef < 0.0 ? " - " : " + ");
    }
    const double mag = std::abs(coef);
    if (mag != 1.0) os << util::format_double(mag) << ' ';
    os << name;
  }
  if (first) os << "0 " << terms.front().first;  // degenerate all-zero row
}

}  // namespace

std::string write_lp_format(const Problem& problem) {
  const int n = problem.num_variables();
  std::vector<std::string> names(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j)
    names[static_cast<std::size_t>(j)] = sanitize(problem.variable(j).name, j);

  std::ostringstream os;
  os << "\\* generated by billcap lp_io *\\\n";
  os << (problem.sense() == Sense::kMinimize ? "Minimize\n" : "Maximize\n");
  os << " obj:";
  {
    std::vector<std::pair<std::string, double>> terms;
    for (int j = 0; j < n; ++j) {
      if (problem.variable(j).objective != 0.0)
        terms.push_back({names[static_cast<std::size_t>(j)],
                         problem.variable(j).objective});
    }
    if (terms.empty()) {
      os << " 0 " << (n > 0 ? names[0] : std::string("x0"));
    } else {
      os << ' ';
      std::ostringstream body;
      write_terms(body, terms);
      os << body.str();
    }
  }
  os << "\nSubject To\n";
  for (int i = 0; i < problem.num_constraints(); ++i) {
    const Constraint& c = problem.constraint(i);
    os << " c" << i << ": ";
    std::map<int, double> merged;
    for (const Term& t : c.terms) merged[t.var] += t.coef;
    std::vector<std::pair<std::string, double>> terms;
    for (const auto& [var, coef] : merged)
      terms.push_back({names[static_cast<std::size_t>(var)], coef});
    if (terms.empty()) terms.push_back({n > 0 ? names[0] : "x0", 0.0});
    std::ostringstream body;
    write_terms(body, terms);
    os << body.str();
    switch (c.relation) {
      case Relation::kLessEqual: os << " <= "; break;
      case Relation::kGreaterEqual: os << " >= "; break;
      case Relation::kEqual: os << " = "; break;
    }
    os << util::format_double(c.rhs) << '\n';
  }

  os << "Bounds\n";
  for (int j = 0; j < n; ++j) {
    const Variable& v = problem.variable(j);
    const std::string& name = names[static_cast<std::size_t>(j)];
    if (v.lower == -kInfinity && v.upper == kInfinity) {
      os << ' ' << name << " free\n";
    } else if (v.lower == v.upper) {
      os << ' ' << name << " = " << util::format_double(v.lower) << '\n';
    } else {
      os << ' ';
      if (v.lower == -kInfinity)
        os << "-inf";
      else
        os << util::format_double(v.lower);
      os << " <= " << name << " <= ";
      if (v.upper == kInfinity)
        os << "+inf";
      else
        os << util::format_double(v.upper);
      os << '\n';
    }
  }

  std::vector<std::string> binaries;
  std::vector<std::string> generals;
  for (int j = 0; j < n; ++j) {
    const Variable& v = problem.variable(j);
    if (!v.is_integer) continue;
    if (v.lower == 0.0 && v.upper == 1.0)
      binaries.push_back(names[static_cast<std::size_t>(j)]);
    else
      generals.push_back(names[static_cast<std::size_t>(j)]);
  }
  if (!generals.empty()) {
    os << "Generals\n";
    for (const auto& name : generals) os << ' ' << name << '\n';
  }
  if (!binaries.empty()) {
    os << "Binaries\n";
    for (const auto& name : binaries) os << ' ' << name << '\n';
  }
  os << "End\n";
  return os.str();
}

void save_lp_format(const Problem& problem, const std::string& path) {
  // LP-format dumps are debug artifacts, not durable state — a torn file
  // cannot corrupt a resume.
  // billcap-lint: allow(raw-write): debug artifact, not durable state
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_lp_format: cannot open " + path);
  out << write_lp_format(problem);
  if (!out) throw std::runtime_error("save_lp_format: write failed: " + path);
}

namespace {

/// Tokenizer/parser state for parse_lp_format.
struct Parser {
  std::vector<std::string> tokens;
  std::size_t pos = 0;

  explicit Parser(std::string_view text) {
    std::string current;
    bool in_comment = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
      const char c = text[i];
      if (in_comment) {
        if (c == '\\') in_comment = false;  // closing "*\" handled loosely
        continue;
      }
      if (c == '\\') {  // "\*" comment start
        in_comment = true;
        if (!current.empty()) { tokens.push_back(current); current.clear(); }
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!current.empty()) { tokens.push_back(current); current.clear(); }
      } else if (c == '+' || c == '-' || c == ':') {
        if (!current.empty()) { tokens.push_back(current); current.clear(); }
        tokens.push_back(std::string(1, c));
      } else if (c == '<' || c == '>' || c == '=') {
        if (!current.empty()) { tokens.push_back(current); current.clear(); }
        std::string op(1, c);
        if ((c == '<' || c == '>') && i + 1 < text.size() && text[i + 1] == '=') {
          op.push_back('=');
          ++i;
        }
        tokens.push_back(op);
      } else {
        current.push_back(c);
      }
    }
    if (!current.empty()) tokens.push_back(current);
  }

  bool done() const { return pos >= tokens.size(); }
  const std::string& peek() const {
    static const std::string kEnd = "";
    return done() ? kEnd : tokens[pos];
  }
  std::string next() {
    if (done()) throw std::runtime_error("parse_lp_format: unexpected end");
    return tokens[pos++];
  }

  static bool is_number(const std::string& token) {
    if (token.empty()) return false;
    char* end = nullptr;
    std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }
  static bool iequals(const std::string& a, const char* b) {
    std::size_t i = 0;
    for (; i < a.size() && b[i]; ++i)
      if (std::tolower(static_cast<unsigned char>(a[i])) !=
          std::tolower(static_cast<unsigned char>(b[i])))
        return false;
    return i == a.size() && b[i] == '\0';
  }
  bool at_keyword() const {
    const std::string& t = peek();
    return iequals(t, "subject") || iequals(t, "st") || iequals(t, "bounds") ||
           iequals(t, "generals") || iequals(t, "general") ||
           iequals(t, "binaries") || iequals(t, "binary") ||
           iequals(t, "end") || iequals(t, "minimize") || iequals(t, "maximize");
  }
};

}  // namespace

Problem parse_lp_format(std::string_view text) {
  Parser parser(text);
  Problem problem;
  std::map<std::string, int> vars;

  auto var_index = [&](const std::string& name) {
    auto it = vars.find(name);
    if (it != vars.end()) return it->second;
    const int idx = problem.add_variable(name, 0.0, kInfinity);
    vars.emplace(name, idx);
    return idx;
  };

  // Linear expression: [sign] [coef] name ...
  auto parse_terms = [&](std::vector<Term>& terms) {
    for (;;) {
      if (parser.done() || parser.at_keyword()) return;
      const std::string& t = parser.peek();
      if (t == "<=" || t == ">=" || t == "=") return;
      double sign = 1.0;
      std::string token = parser.next();
      while (token == "+" || token == "-") {
        if (token == "-") sign = -sign;
        token = parser.next();
      }
      double coef = 1.0;
      if (Parser::is_number(token)) {
        coef = std::stod(token);
        token = parser.next();
      }
      terms.push_back({var_index(token), sign * coef});
    }
  };

  // Sense.
  {
    const std::string head = parser.next();
    if (Parser::iequals(head, "minimize"))
      problem.set_sense(Sense::kMinimize);
    else if (Parser::iequals(head, "maximize"))
      problem.set_sense(Sense::kMaximize);
    else
      throw std::runtime_error("parse_lp_format: expected Minimize/Maximize");
  }

  // Objective: optional "name :" then expression.
  {
    std::vector<Term> objective_terms;
    if (parser.tokens.size() > parser.pos + 1 &&
        parser.tokens[parser.pos + 1] == ":") {
      parser.next();
      parser.next();
    }
    parse_terms(objective_terms);
    // A variable named twice in the objective sums its coefficients.
    for (const Term& t : objective_terms)
      problem.set_objective(t.var,
                            problem.variable(t.var).objective + t.coef);
  }

  // Subject To.
  {
    std::string kw = parser.next();
    if (Parser::iequals(kw, "subject")) {
      const std::string to = parser.next();
      if (!Parser::iequals(to, "to"))
        throw std::runtime_error("parse_lp_format: expected 'Subject To'");
    } else if (!Parser::iequals(kw, "st")) {
      throw std::runtime_error("parse_lp_format: expected constraint section");
    }
    while (!parser.done() && !parser.at_keyword()) {
      std::string row_name = "row";
      if (parser.tokens.size() > parser.pos + 1 &&
          parser.tokens[parser.pos + 1] == ":") {
        row_name = parser.next();
        parser.next();
      }
      std::vector<Term> terms;
      parse_terms(terms);
      const std::string op = parser.next();
      Relation rel;
      if (op == "<=") rel = Relation::kLessEqual;
      else if (op == ">=") rel = Relation::kGreaterEqual;
      else if (op == "=") rel = Relation::kEqual;
      else throw std::runtime_error("parse_lp_format: bad relation " + op);
      const std::string rhs_token = parser.next();
      double rhs_sign = 1.0;
      std::string rhs_text = rhs_token;
      if (rhs_token == "-" || rhs_token == "+") {
        rhs_sign = rhs_token == "-" ? -1.0 : 1.0;
        rhs_text = parser.next();
      }
      if (!Parser::is_number(rhs_text))
        throw std::runtime_error("parse_lp_format: bad rhs " + rhs_text);
      problem.add_constraint(row_name, std::move(terms), rel,
                             rhs_sign * std::stod(rhs_text));
    }
  }

  // Optional sections.
  auto parse_bound_value = [&]() -> double {
    std::string token = parser.next();
    double sign = 1.0;
    if (token == "-" || token == "+") {
      sign = token == "-" ? -1.0 : 1.0;
      token = parser.next();
    }
    if (Parser::iequals(token, "inf") || Parser::iequals(token, "-inf") ||
        Parser::iequals(token, "+inf") || Parser::iequals(token, "infinity")) {
      const bool negative = sign < 0.0 || token[0] == '-';
      return negative ? -kInfinity : kInfinity;
    }
    if (!Parser::is_number(token))
      throw std::runtime_error("parse_lp_format: bad bound " + token);
    return sign * std::stod(token);
  };

  while (!parser.done()) {
    const std::string section = parser.next();
    if (Parser::iequals(section, "end")) break;
    if (Parser::iequals(section, "bounds")) {
      while (!parser.done() && !parser.at_keyword()) {
        // Forms: "lo <= x <= hi" | "x free" | "x = v" | "x <= hi" | "x >= lo"
        const std::string first = parser.next();
        if (Parser::is_number(first) || first == "-" || first == "+" ||
            Parser::iequals(first, "-inf")) {
          // lo <= x <= hi
          parser.pos--;  // rewind, use parse_bound_value
          const double lo = parse_bound_value();
          if (parser.next() != "<=")
            throw std::runtime_error("parse_lp_format: bad bounds line");
          const std::string name = parser.next();
          if (parser.next() != "<=")
            throw std::runtime_error("parse_lp_format: bad bounds line");
          const double hi = parse_bound_value();
          problem.set_bounds(var_index(name), lo, hi);
        } else {
          const std::string name = first;
          const std::string op = parser.peek();
          if (Parser::iequals(op, "free")) {
            parser.next();
            problem.set_bounds(var_index(name), -kInfinity, kInfinity);
          } else if (op == "=") {
            parser.next();
            const double v = parse_bound_value();
            problem.set_bounds(var_index(name), v, v);
          } else if (op == "<=") {
            parser.next();
            const double hi = parse_bound_value();
            const int j = var_index(name);
            problem.set_bounds(j, problem.variable(j).lower, hi);
          } else if (op == ">=") {
            parser.next();
            const double lo = parse_bound_value();
            const int j = var_index(name);
            problem.set_bounds(j, lo, problem.variable(j).upper);
          } else {
            throw std::runtime_error("parse_lp_format: bad bounds line at " + op);
          }
        }
      }
    } else if (Parser::iequals(section, "generals") ||
               Parser::iequals(section, "general") ||
               Parser::iequals(section, "binaries") ||
               Parser::iequals(section, "binary")) {
      const bool binary = Parser::iequals(section, "binaries") ||
                          Parser::iequals(section, "binary");
      while (!parser.done() && !parser.at_keyword()) {
        const int j = var_index(parser.next());
        problem.set_integer(j, true);
        if (binary) problem.set_bounds(j, 0.0, 1.0);
      }
    } else {
      throw std::runtime_error("parse_lp_format: unknown section " + section);
    }
  }
  return problem;
}

}  // namespace billcap::lp
