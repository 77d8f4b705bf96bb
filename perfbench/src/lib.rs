//! # perfbench — the repository's filter-then-parse benchmark
//!
//! One closed-loop client feeds record-aligned ingest batches of about
//! 256 KiB through the public sharded runners (default [`RunnerConfig`],
//! so one shard per core), parses every record the filter kept, and
//! checks every verdict. Three seeded gateway workloads stress different
//! layers; see `LAYERS.md` next to this crate for which per-layer metric
//! should move which end-to-end metric on which workload.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload iot-qs0 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! per-layer ladder instead: it times calls into each module's public
//! functions from this crate, takes `rfjson_telemetry` snapshot deltas
//! around them, keeps one span per call in memory and writes the spans
//! out at exit. Nothing is traced inside the library.
//!
//! [`RunnerConfig`]: rfjson_runtime::RunnerConfig

#![forbid(unsafe_code)]

pub mod batch;
pub mod e2e;
pub mod ladder;
pub mod names;
pub mod output;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workload;
