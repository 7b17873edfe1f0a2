#include "oracle.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty() || s.size() > 63) return false;
  char buf[64];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  *out = std::strtod(buf, &end);
  return end == buf + s.size();
}

bool ParseInt(std::string_view s, int64_t* out) {
  if (s.empty()) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// "@N" -> N-1, or -1.
int ParseAttr(std::string_view s) {
  s = Trim(s);
  if (s.size() < 2 || s[0] != '@') return -1;
  int64_t n = 0;
  if (!ParseInt(s.substr(1), &n) || n < 1 ||
      n > static_cast<int64_t>(UserVisitsKinds().size())) {
    return -1;
  }
  return static_cast<int>(n - 1);
}

bool ParseTerm(std::string_view text, OracleTerm* term) {
  text = Trim(text);
  const size_t sp = text.find(' ');
  if (sp == std::string_view::npos) return false;
  term->column = ParseAttr(text.substr(0, sp));
  if (term->column < 0) return false;
  std::string_view rest = Trim(text.substr(sp + 1));
  if (rest.substr(0, 8) == "between(") {
    if (rest.back() != ')') return false;
    const std::string_view args = rest.substr(8, rest.size() - 9);
    const size_t comma = args.find(',');
    if (comma == std::string_view::npos) return false;
    term->op = OracleOp::kBetween;
    term->lo = std::string(Trim(args.substr(0, comma)));
    term->hi = std::string(Trim(args.substr(comma + 1)));
    return !term->lo.empty() && !term->hi.empty();
  }
  static const struct {
    std::string_view text;
    OracleOp op;
  } kOps[] = {{"<=", OracleOp::kLe}, {">=", OracleOp::kGe},
              {"!=", OracleOp::kNe}, {"=", OracleOp::kEq},
              {"<", OracleOp::kLt},  {">", OracleOp::kGt}};
  for (const auto& o : kOps) {
    if (rest.substr(0, o.text.size()) == o.text) {
      term->op = o.op;
      term->lo = std::string(Trim(rest.substr(o.text.size())));
      return !term->lo.empty();
    }
  }
  return false;
}

bool OpHolds(OracleOp op, int cmp) {
  switch (op) {
    case OracleOp::kEq:
      return cmp == 0;
    case OracleOp::kNe:
      return cmp != 0;
    case OracleOp::kLt:
      return cmp < 0;
    case OracleOp::kLe:
      return cmp <= 0;
    case OracleOp::kGt:
      return cmp > 0;
    case OracleOp::kGe:
      return cmp >= 0;
    case OracleOp::kBetween:
      break;
  }
  return false;
}

}  // namespace

const std::vector<FieldKind>& UserVisitsKinds() {
  static const std::vector<FieldKind> kinds = {
      FieldKind::kString, FieldKind::kString, FieldKind::kDate,
      FieldKind::kDouble, FieldKind::kString, FieldKind::kString,
      FieldKind::kString, FieldKind::kString, FieldKind::kInt};
  return kinds;
}

bool ParseOracleQuery(std::string_view filter, std::string_view projection,
                      OracleQuery* out, std::string* error) {
  *out = OracleQuery{};
  filter = Trim(filter);
  while (!filter.empty()) {
    const size_t cut = filter.find(" and ");
    OracleTerm term;
    if (!ParseTerm(filter.substr(0, cut), &term)) {
      *error = "bad filter term: " + std::string(filter.substr(0, cut));
      return false;
    }
    out->terms.push_back(std::move(term));
    filter = cut == std::string_view::npos ? std::string_view()
                                           : Trim(filter.substr(cut + 5));
  }
  projection = Trim(projection);
  if (!projection.empty() && projection.front() == '{') {
    if (projection.back() != '}') {
      *error = "unbalanced projection";
      return false;
    }
    projection = projection.substr(1, projection.size() - 2);
  }
  while (!Trim(projection).empty()) {
    const size_t comma = projection.find(',');
    const int attr = ParseAttr(projection.substr(0, comma));
    if (attr < 0) {
      *error = "bad projection: " + std::string(projection);
      return false;
    }
    out->projection.push_back(attr);
    projection = comma == std::string_view::npos
                     ? std::string_view()
                     : projection.substr(comma + 1);
  }
  return true;
}

void SplitFields(std::string_view row, std::vector<std::string_view>* out) {
  out->clear();
  size_t start = 0;
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i] == ',') {
      out->push_back(row.substr(start, i - start));
      start = i + 1;
    }
  }
  out->push_back(row.substr(start));
}

int CompareField(FieldKind kind, std::string_view a, std::string_view b) {
  switch (kind) {
    case FieldKind::kString:
    case FieldKind::kDate: {
      // YYYY-MM-DD is fixed width, so byte order is date order.
      const int c = a.compare(b);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case FieldKind::kDouble: {
      double x = 0, y = 0;
      ParseDouble(a, &x);
      ParseDouble(b, &y);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case FieldKind::kInt: {
      int64_t x = 0, y = 0;
      ParseInt(a, &x);
      ParseInt(b, &y);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
  }
  return 0;
}

bool RowWellFormed(const std::vector<std::string_view>& fields) {
  const std::vector<FieldKind>& kinds = UserVisitsKinds();
  if (fields.size() != kinds.size()) return false;
  for (size_t i = 0; i < kinds.size(); ++i) {
    double d = 0;
    int64_t n = 0;
    if (kinds[i] == FieldKind::kDouble && !ParseDouble(fields[i], &d)) {
      return false;
    }
    if (kinds[i] == FieldKind::kInt && !ParseInt(fields[i], &n)) return false;
    if (kinds[i] == FieldKind::kDate &&
        (fields[i].size() != 10 || fields[i][4] != '-' ||
         fields[i][7] != '-')) {
      return false;
    }
  }
  return true;
}

bool RowMatches(const OracleQuery& query,
                const std::vector<std::string_view>& fields) {
  if (!RowWellFormed(fields)) return false;
  const std::vector<FieldKind>& kinds = UserVisitsKinds();
  for (const OracleTerm& t : query.terms) {
    const FieldKind kind = kinds[static_cast<size_t>(t.column)];
    const std::string_view v = fields[static_cast<size_t>(t.column)];
    if (t.op == OracleOp::kBetween) {
      if (CompareField(kind, v, t.lo) < 0 || CompareField(kind, v, t.hi) > 0) {
        return false;
      }
    } else if (!OpHolds(t.op, CompareField(kind, v, t.lo))) {
      return false;
    }
  }
  return true;
}

std::string RenderField(FieldKind kind, std::string_view text) {
  switch (kind) {
    case FieldKind::kString:
    case FieldKind::kDate:
      return std::string(text);
    case FieldKind::kDouble: {
      double d = 0;
      ParseDouble(text, &d);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", d);
      return buf;
    }
    case FieldKind::kInt: {
      int64_t n = 0;
      ParseInt(text, &n);
      return std::to_string(n);
    }
  }
  return {};
}

void EvaluateText(const std::vector<OracleQuery>& queries,
                  std::string_view text, bool collect_rows,
                  std::vector<OracleAnswer>* answers) {
  answers->resize(queries.size());
  const std::vector<FieldKind>& kinds = UserVisitsKinds();
  std::vector<std::string_view> fields;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view row = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (row.empty()) continue;
    SplitFields(row, &fields);
    for (size_t q = 0; q < queries.size(); ++q) {
      if (!RowMatches(queries[q], fields)) continue;
      OracleAnswer& a = (*answers)[q];
      ++a.count;
      if (!collect_rows) continue;
      std::string out;
      const std::vector<int>& proj = queries[q].projection;
      const size_t n = proj.empty() ? kinds.size() : proj.size();
      for (size_t i = 0; i < n; ++i) {
        const size_t col = proj.empty() ? i : static_cast<size_t>(proj[i]);
        if (i > 0) out += ',';
        out += RenderField(kinds[col], fields[col]);
      }
      a.rows.push_back(std::move(out));
    }
  }
}

}  // namespace perfbench
