#include "query/query.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>

#include "common/check.h"

namespace mpcqp {

bool Atom::ContainsVar(int var) const {
  return std::find(vars.begin(), vars.end(), var) != vars.end();
}

std::vector<std::pair<int, int>> DistinctVarCols(const Atom& atom) {
  std::vector<std::pair<int, int>> var_cols;
  for (int c = 0; c < atom.arity(); ++c) {
    if (std::find(atom.vars.begin(), atom.vars.begin() + c, atom.vars[c]) ==
        atom.vars.begin() + c) {
      var_cols.push_back({atom.vars[c], c});
    }
  }
  return var_cols;
}

std::vector<int> DistinctVars(const Atom& atom) {
  std::vector<int> vars;
  for (const auto& [v, c] : DistinctVarCols(atom)) vars.push_back(v);
  return vars;
}

void SharedKeyCols(const std::vector<int>& a_vars,
                   const std::vector<int>& b_vars, std::vector<int>* a_keys,
                   std::vector<int>* b_keys) {
  a_keys->clear();
  b_keys->clear();
  for (size_t i = 0; i < a_vars.size(); ++i) {
    const auto it = std::find(b_vars.begin(), b_vars.end(), a_vars[i]);
    if (it != b_vars.end()) {
      a_keys->push_back(static_cast<int>(i));
      b_keys->push_back(static_cast<int>(it - b_vars.begin()));
    }
  }
}

std::vector<int> ColumnsOf(const std::vector<int>& vars,
                           const std::vector<int>& in_vars) {
  std::vector<int> cols;
  cols.reserve(vars.size());
  for (int v : vars) {
    const auto it = std::find(in_vars.begin(), in_vars.end(), v);
    MPCQP_CHECK(it != in_vars.end()) << "variable " << v << " not held";
    cols.push_back(static_cast<int>(it - in_vars.begin()));
  }
  return cols;
}

std::vector<int> IdOrderColumns(const std::vector<int>& vars, int num_vars) {
  MPCQP_CHECK_EQ(static_cast<int>(vars.size()), num_vars);
  std::vector<int> ids(num_vars);
  for (int v = 0; v < num_vars; ++v) ids[v] = v;
  return ColumnsOf(ids, vars);
}

std::vector<int> JoinOutputVars(const std::vector<int>& left_vars,
                                const std::vector<int>& right_vars,
                                const std::vector<int>& right_keys) {
  std::vector<int> out = left_vars;
  for (size_t c = 0; c < right_vars.size(); ++c) {
    if (std::find(right_keys.begin(), right_keys.end(),
                  static_cast<int>(c)) == right_keys.end()) {
      out.push_back(right_vars[c]);
    }
  }
  return out;
}

ConjunctiveQuery ConjunctiveQuery::Make(std::vector<std::string> var_names,
                                        std::vector<Atom> atoms) {
  const int k = static_cast<int>(var_names.size());
  std::vector<bool> used(k, false);
  MPCQP_CHECK(!atoms.empty());
  for (const Atom& atom : atoms) {
    MPCQP_CHECK(!atom.vars.empty()) << "atom " << atom.name << " is nullary";
    for (int v : atom.vars) {
      MPCQP_CHECK_GE(v, 0);
      MPCQP_CHECK_LT(v, k);
      used[v] = true;
    }
  }
  for (int v = 0; v < k; ++v) {
    MPCQP_CHECK(used[v]) << "variable " << var_names[v] << " not in any atom";
  }
  return ConjunctiveQuery(std::move(var_names), std::move(atoms));
}

namespace {

// Splits "name(a,b,c)" terms out of a comma-separated list; returns false
// on malformed input.
struct ParsedAtom {
  std::string name;
  std::vector<std::string> args;
};

void SkipSpace(const std::string& s, size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}

bool ParseIdent(const std::string& s, size_t& i, std::string& out) {
  SkipSpace(s, i);
  const size_t start = i;
  while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) ||
                          s[i] == '_' || s[i] == '\'')) {
    ++i;
  }
  if (i == start) return false;
  out = s.substr(start, i - start);
  return true;
}

bool ParseAtomList(const std::string& s, size_t& i,
                   std::vector<ParsedAtom>& out) {
  while (true) {
    ParsedAtom atom;
    if (!ParseIdent(s, i, atom.name)) return false;
    SkipSpace(s, i);
    if (i >= s.size() || s[i] != '(') return false;
    ++i;  // '('
    while (true) {
      std::string arg;
      if (!ParseIdent(s, i, arg)) return false;
      atom.args.push_back(arg);
      SkipSpace(s, i);
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    SkipSpace(s, i);
    if (i >= s.size() || s[i] != ')') return false;
    ++i;  // ')'
    out.push_back(std::move(atom));
    SkipSpace(s, i);
    if (i < s.size() && s[i] == ',') {
      ++i;
      continue;
    }
    break;
  }
  return true;
}

}  // namespace

StatusOr<ConjunctiveQuery> ConjunctiveQuery::Parse(const std::string& text) {
  // Split off an optional head at ":-".
  const size_t sep = text.find(":-");
  std::vector<ParsedAtom> head;
  std::vector<ParsedAtom> body;
  size_t i = 0;
  if (sep != std::string::npos) {
    const std::string head_text = text.substr(0, sep);
    size_t hi = 0;
    if (!ParseAtomList(head_text, hi, head) || head.size() != 1) {
      return InvalidArgumentError("malformed query head: " + head_text);
    }
    SkipSpace(head_text, hi);
    if (hi != head_text.size()) {
      return InvalidArgumentError("trailing junk in head: " + head_text);
    }
    i = sep + 2;
  }
  std::string body_text = text.substr(i);
  size_t bi = 0;
  if (!ParseAtomList(body_text, bi, body) || body.empty()) {
    return InvalidArgumentError("malformed query body: " + body_text);
  }
  SkipSpace(body_text, bi);
  if (bi != body_text.size()) {
    return InvalidArgumentError("trailing junk in body: " + body_text);
  }

  // Assign variable ids: head order if given, else first occurrence.
  std::vector<std::string> var_names;
  std::map<std::string, int> var_ids;
  if (!head.empty()) {
    for (const std::string& v : head.front().args) {
      if (var_ids.count(v) > 0) {
        return InvalidArgumentError("head repeats variable " + v);
      }
      var_ids[v] = static_cast<int>(var_names.size());
      var_names.push_back(v);
    }
  }
  std::vector<Atom> atoms;
  for (const ParsedAtom& pa : body) {
    Atom atom;
    atom.name = pa.name;
    for (const std::string& v : pa.args) {
      auto it = var_ids.find(v);
      if (it == var_ids.end()) {
        if (!head.empty()) {
          return InvalidArgumentError("body variable " + v + " not in head");
        }
        it = var_ids.emplace(v, static_cast<int>(var_names.size())).first;
        var_names.push_back(v);
      }
      atom.vars.push_back(it->second);
    }
    atoms.push_back(std::move(atom));
  }
  // Head variables must all be used.
  std::vector<bool> used(var_names.size(), false);
  for (const Atom& a : atoms) {
    for (int v : a.vars) used[v] = true;
  }
  for (size_t v = 0; v < var_names.size(); ++v) {
    if (!used[v]) {
      return InvalidArgumentError("head variable " + var_names[v] +
                                  " not in body");
    }
  }
  return Make(std::move(var_names), std::move(atoms));
}

ConjunctiveQuery ConjunctiveQuery::Triangle() {
  return Make({"x", "y", "z"},
              {{"R", {0, 1}}, {"S", {1, 2}}, {"T", {2, 0}}});
}

ConjunctiveQuery ConjunctiveQuery::Path(int num_atoms) {
  MPCQP_CHECK_GE(num_atoms, 1);
  std::vector<std::string> vars;
  for (int i = 0; i <= num_atoms; ++i) vars.push_back("x" + std::to_string(i));
  std::vector<Atom> atoms;
  for (int i = 0; i < num_atoms; ++i) {
    atoms.push_back({"R" + std::to_string(i + 1), {i, i + 1}});
  }
  return Make(std::move(vars), std::move(atoms));
}

ConjunctiveQuery ConjunctiveQuery::Star(int num_atoms) {
  MPCQP_CHECK_GE(num_atoms, 1);
  std::vector<std::string> vars;
  for (int i = 0; i <= num_atoms; ++i) vars.push_back("x" + std::to_string(i));
  std::vector<Atom> atoms;
  for (int i = 0; i < num_atoms; ++i) {
    atoms.push_back({"R" + std::to_string(i + 1), {0, i + 1}});
  }
  return Make(std::move(vars), std::move(atoms));
}

ConjunctiveQuery ConjunctiveQuery::Cycle(int num_atoms) {
  MPCQP_CHECK_GE(num_atoms, 2);
  std::vector<std::string> vars;
  for (int i = 0; i < num_atoms; ++i) vars.push_back("x" + std::to_string(i));
  std::vector<Atom> atoms;
  for (int i = 0; i < num_atoms; ++i) {
    atoms.push_back(
        {"R" + std::to_string(i + 1), {i, (i + 1) % num_atoms}});
  }
  return Make(std::move(vars), std::move(atoms));
}

ConjunctiveQuery ConjunctiveQuery::TwoWayJoin() {
  return Make({"x", "y", "z"}, {{"R", {0, 1}}, {"S", {1, 2}}});
}

ConjunctiveQuery ConjunctiveQuery::CartesianProduct() {
  return Make({"x", "y"}, {{"R", {0}}, {"S", {1}}});
}

ConjunctiveQuery ConjunctiveQuery::Bowtie() {
  return Make({"x", "y"}, {{"R", {0}}, {"S", {0, 1}}, {"T", {1}}});
}

const Atom& ConjunctiveQuery::atom(int index) const {
  MPCQP_CHECK_GE(index, 0);
  MPCQP_CHECK_LT(index, num_atoms());
  return atoms_[index];
}

const std::string& ConjunctiveQuery::var_name(int var) const {
  MPCQP_CHECK_GE(var, 0);
  MPCQP_CHECK_LT(var, num_vars());
  return var_names_[var];
}

std::vector<int> ConjunctiveQuery::AtomsWithVar(int var) const {
  std::vector<int> result;
  for (int j = 0; j < num_atoms(); ++j) {
    if (atoms_[j].ContainsVar(var)) result.push_back(j);
  }
  return result;
}

namespace {

// Shape string of the atoms taken in `order`, with variables renamed to
// 0,1,2,... by first occurrence along that order.
std::string ShapeForOrder(const ConjunctiveQuery& q,
                          const std::vector<int>& order) {
  std::vector<int> rename(q.num_vars(), -1);
  int next_id = 0;
  std::string shape;
  for (size_t k = 0; k < order.size(); ++k) {
    const Atom& atom = q.atom(order[k]);
    if (k > 0) shape += '|';
    shape += std::to_string(atom.arity());
    shape += ':';
    for (size_t c = 0; c < atom.vars.size(); ++c) {
      int& id = rename[atom.vars[c]];
      if (id < 0) id = next_id++;
      if (c > 0) shape += ',';
      shape += std::to_string(id);
    }
  }
  return shape;
}

}  // namespace

CanonicalQueryShape CanonicalizeShape(const ConjunctiveQuery& q) {
  std::vector<int> order(q.num_atoms());
  for (int j = 0; j < q.num_atoms(); ++j) order[j] = j;

  CanonicalQueryShape best;
  best.shape = ShapeForOrder(q, order);
  best.atom_order = order;
  if (q.num_atoms() > 7) {
    // Exact canonicalization is factorial in the atom count; fall back to
    // a deterministic greedy order (stable sort by each atom's
    // self-contained signature, ties kept in input order).
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return ShapeForOrder(q, {a}) < ShapeForOrder(q, {b});
    });
    best.shape = ShapeForOrder(q, order);
    best.atom_order = order;
    return best;
  }
  while (std::next_permutation(order.begin(), order.end())) {
    std::string shape = ShapeForOrder(q, order);
    if (shape < best.shape) {
      best.shape = std::move(shape);
      best.atom_order = order;
    }
  }
  return best;
}

std::string ConjunctiveQuery::ToString() const {
  std::ostringstream os;
  os << "Q(";
  for (int v = 0; v < num_vars(); ++v) {
    if (v > 0) os << ",";
    os << var_names_[v];
  }
  os << ") :- ";
  for (int j = 0; j < num_atoms(); ++j) {
    if (j > 0) os << ", ";
    os << atoms_[j].name << "(";
    for (size_t c = 0; c < atoms_[j].vars.size(); ++c) {
      if (c > 0) os << ",";
      os << var_names_[atoms_[j].vars[c]];
    }
    os << ")";
  }
  return os.str();
}

}  // namespace mpcqp
