// Package repro is a production-quality Go reproduction of Wenfei Fan,
// "Dependencies Revisited for Improving Data Quality" (PODS 2008): the
// complete framework of conditional functional dependencies (CFDs),
// conditional inclusion dependencies (CINDs), extended CFDs, matching
// dependencies with relative candidate keys, their static analyses
// (consistency, implication, finite axiomatization, view propagation),
// and the three dependency-based approaches to inconsistent data —
// repairing, consistent query answering, and condensed representations of
// repairs — together with every substrate they need (in-memory relational
// engine, SPCU algebra, similarity operators, object identification,
// dependency discovery, synthetic dirty-data generators, and a parallel
// index-sharing violation-detection engine in internal/detect).
//
// See DESIGN.md for the system inventory and the per-experiment index,
// EXPERIMENTS.md for paper-vs-measured results, and the examples/
// directory for runnable walk-throughs. The root-level benchmarks in
// bench_test.go regenerate the scaling behaviour behind every table and
// figure of the paper; tests check the qualitative claims, each one named
// by its experiment id in DESIGN.md (TestPaperClaims in claims_test.go).
package repro
