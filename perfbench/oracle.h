/// \file oracle.h
/// \brief The benchmark's answer oracle: evaluates a query's filter and
/// projection straight over generated UserVisits text.
///
/// It shares no code with the program's parser or query engine: it has its
/// own field splitter, its own filter-text parser, its own comparators and
/// its own renderer, so agreement with the program is evidence rather than
/// a tautology. Rows are rendered the way the default map function emits
/// them (projected fields joined by ',', doubles as "%.6g").

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// How the oracle compares and renders one UserVisits field.
enum class FieldKind { kString, kDate, kDouble, kInt };

/// The nine UserVisits fields: sourceIP, destURL, visitDate, adRevenue,
/// userAgent, countryCode, languageCode, searchWord, duration.
const std::vector<FieldKind>& UserVisitsKinds();

enum class OracleOp { kEq, kNe, kLt, kLe, kGt, kGe, kBetween };

struct OracleTerm {
  int column = 0;  // 0-based
  OracleOp op = OracleOp::kEq;
  std::string lo;  // the literal; the low end for kBetween
  std::string hi;  // the high end for kBetween (inclusive)
};

struct OracleQuery {
  std::vector<OracleTerm> terms;  // conjunction
  std::vector<int> projection;    // 0-based; empty = every field
};

/// Parses the annotation text ("@3 between(a,b) and @1 = x", "{@8,@9,@4}").
/// Returns false with \p error set on malformed text.
bool ParseOracleQuery(std::string_view filter, std::string_view projection,
                      OracleQuery* out, std::string* error);

/// Splits \p row on ','; UserVisits text has no quoting.
void SplitFields(std::string_view row, std::vector<std::string_view>* out);

/// Three-way comparison of two field texts of kind \p kind.
int CompareField(FieldKind kind, std::string_view a, std::string_view b);

/// True when the split row satisfies every term. Rows whose arity or
/// numeric fields do not parse never match (the program hands them to the
/// map function as bad records, which the default map drops).
bool RowMatches(const OracleQuery& query,
                const std::vector<std::string_view>& fields);

/// The field as the default map function renders it.
std::string RenderField(FieldKind kind, std::string_view text);

/// True when the row has the schema's arity and its numeric fields parse.
bool RowWellFormed(const std::vector<std::string_view>& fields);

struct OracleAnswer {
  uint64_t count = 0;
  std::vector<std::string> rows;  // filled when collecting
};

/// Evaluates every query over newline-terminated \p text in one pass and
/// adds each query's matches to \p answers (resized to queries.size()).
void EvaluateText(const std::vector<OracleQuery>& queries,
                  std::string_view text, bool collect_rows,
                  std::vector<OracleAnswer>* answers);

}  // namespace perfbench
