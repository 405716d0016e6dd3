//! # msaf-bench
//!
//! Experiment harness: one binary per paper figure or table
//! (`fig1_plb_inventory`, `fig2_le_inventory`, `fig3_full_adder`,
//! `table_filling_ratio`), the `ext_*` extension experiments, and
//! `bench_summary`, which writes and checks the `BENCH_*.json` perf
//! snapshots. [`workloads`] holds the workload builders they share.
//! Run e.g.:
//!
//! ```text
//! cargo run -p msaf-bench --bin table_filling_ratio
//! cargo run --release -p msaf-bench --bin bench_summary -- . --check
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod workloads;
