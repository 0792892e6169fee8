//! # dhmm-bench
//!
//! Criterion benchmarks for the dHMM reproduction, plus the `mstep-bench`
//! binary (`src/bin/mstep-bench.rs`) that times the fused M-step engine
//! against the scalar reference and records the numbers in
//! `BENCH_mstep.json` — the repository's machine-readable perf trajectory.
//! The crate has no library code of its own; see the `benches/` directory:
//!
//! * `substrate` — microbenchmarks of forward–backward, Viterbi, the DPP
//!   log-determinant/gradient, the simplex projection and the Hungarian
//!   algorithm,
//! * `toy_experiments` — Table 1, Fig. 2 and the Figs. 3–5 σ sweep,
//! * `pos_experiments` — Table 2 and Figs. 7–9,
//! * `ocr_experiments` — Table 3 and Figs. 10–12,
//! * `ablations` — kernel exponent ρ, step-size strategy and prior family.
//!
//! Each experiment bench prints the reproduced table/series once before
//! timing it, so `cargo bench` output doubles as a reproduction log
//! (quick-scale; the `exp-*` binaries print the full-size tables when run
//! with `--paper`).
