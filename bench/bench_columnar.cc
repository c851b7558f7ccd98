// Columnar relation vs row-view selection study (EXPERIMENTS.md E22): the
// same single-column range selection timed through the default row-view
// SelectRange (which strides over narrow rows and gathers the column out
// of wide ones) and the ColumnarRelation overload (a unit-stride scan of
// an already-transposed column), plus the arity x selectivity crossover
// sweep over the same pair.
//
// Emits BENCH_columnar.json. CI runs this binary as a Release gate and
// fails (exit 1) if
//  - either overload's match list differs from the serial predicate,
//    across {1, 8} threads and morsel sizes {1024, 65536}, or
//  - the wide-arity filter shows less than 1.5x ColumnarRelation speedup
//    over the row view at t=8.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "relation/columnar.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

using bench::BenchJson;
using bench::Fmt;
using bench::Table;
using bench::WallTimer;

constexpr int kReps = 3;  // Best-of-N wall times.
// Headline gate on the wide-arity filter shape.
constexpr double kHeadlineSpeedup = 1.5;
const int64_t kMorselSweep[] = {1024, 65536};

double BestOf(const std::function<void()>& body) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    WallTimer timer;
    body();
    const double ms = timer.ElapsedMs();
    if (ms < best) best = ms;
  }
  return best;
}

bool g_ok = true;

void Gate(bool pass, const std::string& what) {
  if (!pass) {
    std::printf("FAIL: %s\n", what.c_str());
    g_ok = false;
  }
}

// ---- Wide-arity filter (the gated shape) ----
// A 16-wide fact relation filtered on one column at ~50% selectivity: the
// row view gathers the column out of 128-byte rows per morsel, the
// ColumnarRelation streams one contiguous column. Scans repeat against a
// transposed snapshot, so the transpose is amortized and reported
// separately.
void RunWideFilter(Table* table, BenchJson* json) {
  Rng rng(31);
  const int64_t rows = 600000;
  const Relation rel = GenerateUniform(rng, rows, 16, 1000);
  const Value lo = 250, hi = 749;
  ThreadPool pool1(1);
  ThreadPool pool8(8);

  // Serial predicate: the oracle both overloads must reproduce.
  std::vector<int64_t> reference;
  for (int64_t r = 0; r < rows; ++r) {
    if (rel.at(r, 0) >= lo && rel.at(r, 0) <= hi) reference.push_back(r);
  }

  WallTimer transpose_timer;
  const ColumnarRelation col =
      ColumnarRelation::FromRowMajor(rel, &pool8, 65536);
  const double transpose_ms = transpose_timer.ElapsedMs();

  const double row_t8 =
      BestOf([&] { SelectRange(rel, 0, lo, hi, &pool8, 65536); });
  const double col_t8 =
      BestOf([&] { SelectRange(col, 0, lo, hi, &pool8, 65536); });
  const double row_t1 =
      BestOf([&] { SelectRange(rel, 0, lo, hi, &pool1, 65536); });
  const double col_t1 =
      BestOf([&] { SelectRange(col, 0, lo, hi, &pool1, 65536); });

  for (ThreadPool* pool : {&pool1, &pool8}) {
    for (const int64_t morsel : kMorselSweep) {
      Gate(SelectRange(rel, 0, lo, hi, pool, morsel) == reference,
           "wide_filter row-view output mismatch");
      Gate(SelectRange(col, 0, lo, hi, pool, morsel) == reference,
           "wide_filter columnar output mismatch");
    }
  }

  Gate(row_t8 / col_t8 >= kHeadlineSpeedup,
       "wide_filter: columnar speedup below " + Fmt(kHeadlineSpeedup, 1) +
           "x at t=8 (" + Fmt(row_t8 / col_t8, 2) + "x)");

  table->AddRow({"wide_filter(a=16)", bench::FmtInt(rows), Fmt(row_t1, 2),
                 Fmt(col_t1, 2), Fmt(row_t8, 2), Fmt(col_t8, 2),
                 Fmt(row_t8 / col_t8, 2)});
  json->Set("wide_filter_rows", rows);
  json->Set("wide_filter_transpose_ms", transpose_ms);
  json->Set("wide_filter_row_t1_ms", row_t1);
  json->Set("wide_filter_columnar_t1_ms", col_t1);
  json->Set("wide_filter_row_t8_ms", row_t8);
  json->Set("wide_filter_columnar_t8_ms", col_t8);
  json->Set("wide_filter_speedup_t8", row_t8 / col_t8);
}

// ---- Ungated: arity x selectivity crossover sweep (E22) ----
// Constant total values (4.8M) across arities, so row counts shrink as
// rows widen; selectivity varies the branch density of the predicate.
// The row view strides at arity 2 and gathers from arity 4 up
// (UseColumnarScan in relation/columnar.h).
void RunCrossoverSweep(BenchJson* json) {
  ThreadPool pool8(8);
  bench::Banner("E22 crossover: scan ms by arity x selectivity, t=8");
  Table sweep({"arity", "rows", "selectivity", "row ms", "columnar ms",
               "speedup"});
  for (const int arity : {2, 4, 8, 16}) {
    const int64_t rows = 4800000 / arity;
    Rng rng(40 + arity);
    const Relation rel = GenerateUniform(rng, rows, arity, 1000);
    const ColumnarRelation col =
        ColumnarRelation::FromRowMajor(rel, &pool8, 65536);
    for (const double selectivity : {0.01, 0.5, 0.99}) {
      const Value hi = static_cast<Value>(1000 * selectivity);
      const double row_ms = BestOf([&] {
        SelectRange(rel, 0, 0, hi, &pool8, 65536);
      });
      const double col_ms =
          BestOf([&] { SelectRange(col, 0, 0, hi, &pool8, 65536); });
      sweep.AddRow({bench::FmtInt(arity), bench::FmtInt(rows),
                    Fmt(selectivity, 2), Fmt(row_ms, 2), Fmt(col_ms, 2),
                    Fmt(row_ms / col_ms, 2)});
      const std::string key = "sweep_a" + std::to_string(arity) + "_s" +
                              std::to_string(static_cast<int>(
                                  selectivity * 100));
      json->Set(key + "_row_ms", row_ms);
      json->Set(key + "_columnar_ms", col_ms);
    }
  }
  sweep.Print();
}

}  // namespace
}  // namespace mpcqp

int main() {
  using namespace mpcqp;  // NOLINT
  BenchJson json("columnar");

  bench::Banner(
      "ColumnarRelation vs row-view SelectRange — threads {1, 8}, best of " +
      std::to_string(kReps));
  Table table({"shape", "rows", "row t1", "col t1", "row t8", "col t8",
               "speedup t8"});

  RunWideFilter(&table, &json);
  table.Print();

  RunCrossoverSweep(&json);

  json.Set("gate_ok", g_ok ? "pass" : "fail");
  json.Write();
  if (!g_ok) {
    std::printf("\ncolumnar bench gate FAILED\n");
    return 1;
  }
  std::printf(
      "\ncolumnar bench gate passed: outputs match the serial predicate "
      "across threads x morsels, wide filter >= %.1fx at t=8\n",
      kHeadlineSpeedup);
  return 0;
}
