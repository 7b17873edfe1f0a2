// Tests of the answer oracle on hand-made UserVisits rows. Exits nonzero on
// the first failed expectation; run with `ctest` in the benchmark's build
// directory or directly.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "oracle.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

perfbench::OracleQuery Query(const char* filter, const char* projection) {
  perfbench::OracleQuery q;
  std::string error;
  if (!perfbench::ParseOracleQuery(filter, projection, &q, &error)) {
    std::fprintf(stderr, "FAIL: parse %s: %s\n", filter, error.c_str());
    std::exit(1);
  }
  return q;
}

std::string Row(const char* ip, const char* date, const char* revenue) {
  return std::string(ip) + ",http://www.a.com/b," + date + "," + revenue +
         ",Mozilla,USA,en,kilo,42\n";
}

uint64_t Count(const perfbench::OracleQuery& q, const std::string& text) {
  std::vector<perfbench::OracleAnswer> answers;
  perfbench::EvaluateText({q}, text, false, &answers);
  return answers[0].count;
}

}  // namespace

int main() {
  // Bob-Q1: inclusive date range, both edges and their neighbours.
  const auto q1 = Query("@3 between(1999-01-01,2000-01-01)", "{@1}");
  Expect(Count(q1, Row("1.1.1.1", "1999-01-01", "5.00")) == 1,
         "between includes the low date");
  Expect(Count(q1, Row("1.1.1.1", "2000-01-01", "5.00")) == 1,
         "between includes the high date");
  Expect(Count(q1, Row("1.1.1.1", "1998-12-31", "5.00")) == 0,
         "day before the low date is out");
  Expect(Count(q1, Row("1.1.1.1", "2000-01-02", "5.00")) == 0,
         "day after the high date is out");

  // Bob-Q2/Q3: IP equality and the needle rows.
  const auto q2 = Query("@1 = 172.101.11.46", "{@8,@9,@4}");
  const auto q3 = Query("@1 = 172.101.11.46 and @3 = 1992-12-22",
                        "{@8,@9,@4}");
  const std::string needle = Row("172.101.11.46", "1992-12-22", "7.50");
  const std::string needle_other_day =
      Row("172.101.11.46", "1992-12-23", "7.50");
  Expect(Count(q2, needle + needle_other_day) == 2, "needle IP matches");
  Expect(Count(q2, Row("172.101.11.4", "1992-12-22", "7.50")) == 0,
         "IP prefix is not equal");
  Expect(Count(q2, Row("172.101.11.460", "1992-12-22", "7.50")) == 0,
         "IP extension is not equal");
  Expect(Count(q3, needle + needle_other_day) == 1,
         "needle date narrows Q3 to one row");

  // Bob-Q4/Q5: adRevenue edges compare numerically.
  const auto q4 = Query("@4 between(1,10)", "{@8,@9,@4}");
  const auto q5 = Query("@4 between(1,100)", "{@8,@9,@4}");
  Expect(Count(q4, Row("1.1.1.1", "2001-01-01", "1.00")) == 1,
         "1.00 is inside [1,10]");
  Expect(Count(q4, Row("1.1.1.1", "2001-01-01", "10.00")) == 1,
         "10.00 is inside [1,10]");
  Expect(Count(q4, Row("1.1.1.1", "2001-01-01", "10.01")) == 0,
         "10.01 is outside [1,10]");
  Expect(Count(q4, Row("1.1.1.1", "2001-01-01", "0.99")) == 0,
         "0.99 is outside [1,10]");
  Expect(Count(q4, Row("1.1.1.1", "2001-01-01", "9.50")) == 1,
         "9.50 compares as a number, not as text");
  Expect(Count(q5, Row("1.1.1.1", "2001-01-01", "100.00")) == 1,
         "100.00 is inside [1,100]");
  Expect(Count(q5, Row("1.1.1.1", "2001-01-01", "100.01")) == 0,
         "100.01 is outside [1,100]");

  // Projection and rendering follow the default map function.
  std::vector<perfbench::OracleAnswer> answers;
  perfbench::EvaluateText({q5}, Row("9.9.9.9", "2001-01-01", "100.00"), true,
                          &answers);
  Expect(answers[0].rows.size() == 1 && answers[0].rows[0] == "kilo,42,100",
         "projection renders searchWord,duration,adRevenue with %.6g");
  answers.clear();
  perfbench::EvaluateText({q1}, Row("9.9.9.9", "1999-06-01", "12.50"), true,
                          &answers);
  Expect(answers[0].rows.size() == 1 && answers[0].rows[0] == "9.9.9.9",
         "projection of sourceIP");

  // Malformed rows never match.
  Expect(Count(q5, "1.1.1.1,short,row\n") == 0, "wrong arity is a bad record");
  Expect(Count(q5, "1.1.1.1,u,2001-01-01,abc,a,b,c,d,1\n") == 0,
         "unparsable double is a bad record");

  perfbench::OracleQuery bad;
  std::string error;
  Expect(!perfbench::ParseOracleQuery("@0 = 1", "", &bad, &error),
         "attribute positions start at 1");
  Expect(!perfbench::ParseOracleQuery("@3 between(1999-01-01)", "", &bad,
                                      &error),
         "between needs two literals");

  if (failures == 0) std::printf("oracle_test: all expectations hold\n");
  return failures == 0 ? 0 : 1;
}
