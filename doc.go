// Package repro is the root of the WARLOCK reproduction (Stöhr/Rahm,
// VLDB 2001: "WARLOCK: A Data Allocation Tool for Parallel Warehouses").
//
// The public API lives in repro/warlock; the advisor pipeline and its
// substrates live under internal/ (schema, skew, disk, workload, fragment,
// bitmap, costmodel, alloc, rank, sim, sweep, analysis, core, apb, config).
// internal/sweep is the what-if scenario engine: warlock.Advisor.Sweep
// evaluates a declarative grid of scenarios (disk counts, query-mix
// reweightings, skew, prefetch granules, allocation schemes) through one
// shared, memoizing pipeline, with per-scenario results bit-identical to
// independent Advise calls; cmd/warlock exposes it as the -sweep mode.
// internal/server is the long-running advisory service behind cmd/warlockd:
// POST /v1/advise and /v1/sweep over the same JSON documents, with an LRU
// response cache keyed by the canonical request fingerprint
// (config.Fingerprint), singleflight coalescing of concurrent identical
// requests, and evaluation state shared per schema identity; embed it via
// warlock.NewServer. Requests are request-scoped — a departed or timed-out
// client cancels its own evaluation unless coalesced waiters remain — and
// the service sheds load beyond a bounded queue (503 + Retry-After scaled
// to queue fill), with stage latency histograms and timeout/shed counters
// on /metrics. Those counters cover the running process: a sweep resumed
// from checkpoints counts the prune and panic diagnostics of the scenarios
// it evaluates, never those of the scenarios it replays.
// internal/jobs runs the same documents asynchronously: POST /v1/jobs
// returns a job id (the canonical fingerprint, so identical submissions
// coalesce), GET /v1/jobs/{id} reports live per-scenario progress, and the
// finished result is byte-identical to the synchronous endpoint's body;
// with -jobs-dir the daemon checkpoints completed scenarios and resumes
// interrupted sweeps across restarts. Errors carry a structured envelope
// {"error":{"code","message","retry_after_seconds"}} when the client sends
// Accept: application/json; the code taxonomy is documented in the
// repro/warlock package docs under "Error codes".
// The pipeline prunes with branch and bound: an admissible lower bound on
// each candidate's cost pair (costmodel.LowerBound — per-class service-time
// floors at each usable prefetch granule, no geometry, no allocation) is
// computed once, candidates are evaluated best-first in ascending bound
// order, and a provable loser under the ranking collector's admission
// cutoff skips the full evaluation; results are bit-identical with
// pruning on or off (Input.DisablePruning), and Result.PruneStats reports
// the work saved.
//
// # Concurrency and performance
//
// Candidate pricing is organized so the advisor scales with cores without
// ever changing a bit of output. The evaluation hot path runs on a
// size-class cost kernel: a candidate geometry records its fragment sizes
// only as distinct (rows, pages) size classes (fragment.SizeClasses),
// filled in the one pass that sizes the fragments; the
// transcendental-heavy per-fragment cost math (Cardenas' formula,
// service times) is computed once per (query class, size class), and the
// per-fragment accumulation folds the precomputed addends in exact
// logical fragment order — bit-identical to the naive loop it replaced
// and O(distinct sizes) instead of O(fragments). The granule search, the
// branch-and-bound floor, the bitmap footprint and the co-located bitmap
// pages of the allocation weights share the same dedup; the passes that
// still visit every fragment are the geometry, the placement and the
// fold, and the hit-pattern walk visits every hit fragment of each
// pattern it evaluates. The response-time expectation builds each
// dimension's outcome table in one O(values) pass and evaluates a hit
// pattern by stride — an odometer over the outer
// dimensions carries the fragment-id prefix and the innermost values are
// added to it — visiting fragments in the same order as a per-hit id
// computation, so every busy-time sum is unchanged. Under round-robin
// placement, patterns that only relabel the disks (one dimension's hit
// set shifted, with bit-equal shares along it) have the same maximum, so
// the walk evaluates one pattern per group and adds the stored value
// once per pattern, in order: the same sum, bit for bit. Greedy
// placements are walked pattern by pattern. Around the kernel,
// core's pipeline enumerates the surviving candidates into a slice and
// its workers claim them one at a time from a shared atomic cursor; each
// worker owns its evaluation scratch for its whole lifetime (no pool
// contention, no cross-CPU buffer migration) and prices every candidate
// it claims on its own, so the workers are the only goroutines an
// advisory starts. Every per-candidate computation is pure and
// deterministically seeded; Input.Parallelism changes wall-clock time
// only.
// bench_test.go in this directory hosts one benchmark per experiment in
// EXPERIMENTS.md; cmd/warlock-bench regenerates the experiment tables.
package repro
