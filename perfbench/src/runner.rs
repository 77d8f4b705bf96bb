//! The runner under test: `ShardedRunner<Engine>` for one query,
//! `MultiShardedRunner<MultiEngine>` for a fused batch, behind one call.

use rfjson_core::{BatchVerdicts, Engine, Expr, IngestLimits, MultiEngine};
use rfjson_jsonstream::parse;
use rfjson_runtime::{MultiShardedRunner, RunnerConfig, RuntimeError, ShardedRunner};
use std::hint::black_box;
use std::ops::Range;

/// Does column `q` of the record-major `expect` (`queries` entries per
/// record) equal one query's decisions `got`?
pub fn column_equals(expect: &[bool], queries: usize, q: usize, got: &[bool]) -> bool {
    expect.len() == got.len() * queries
        && got
            .iter()
            .enumerate()
            .all(|(r, &v)| expect[r * queries + q] == v)
}

/// Does the record-major `expect` equal the batch verdicts `got`?
pub fn batch_equals(expect: &[bool], queries: usize, got: &BatchVerdicts) -> bool {
    got.num_records() * queries == expect.len()
        && expect
            .chunks(queries)
            .enumerate()
            .all(|(r, row)| row.iter().enumerate().all(|(q, &e)| got.matched(r, q) == e))
}

/// One public runner and the buffer its last call answered into.
#[derive(Debug)]
pub enum Runner {
    /// Single-query runner and its decision buffer.
    Single(ShardedRunner<Engine>, Vec<bool>),
    /// Fused multi-query runner and its last verdicts.
    Fused(MultiShardedRunner<MultiEngine>, BatchVerdicts),
}

impl Runner {
    /// Builds a runner for `exprs` (fused when `fused`, otherwise over
    /// the single expression `exprs[0]`).
    ///
    /// # Panics
    ///
    /// Panics on an invalid expression: the benchmark's queries are
    /// fixed and valid.
    pub fn new(exprs: &[Expr], fused: bool, config: RunnerConfig) -> Runner {
        if fused {
            let r = MultiShardedRunner::try_with_config(exprs, config)
                .expect("benchmark queries compile");
            Runner::Fused(r, BatchVerdicts::new(exprs.len()))
        } else {
            let r = ShardedRunner::try_with_config(&exprs[0], config)
                .expect("benchmark query compiles");
            Runner::Single(r, Vec::new())
        }
    }

    /// The timed call: filters one batch through the public runner API.
    pub fn call(&mut self, batch: &[u8]) -> Result<(), RuntimeError> {
        match self {
            Runner::Single(r, out) => {
                out.clear();
                r.try_filter_stream_into(batch, out)
            }
            Runner::Fused(r, out) => {
                *out = r.filter_stream_verdicts(batch, IngestLimits::UNLIMITED)?;
                Ok(())
            }
        }
    }

    /// Shards the runner's plan gives a batch.
    pub fn shards_for(&self, batch: &[u8]) -> usize {
        match self {
            Runner::Single(r, _) => r.plan(batch).len(),
            Runner::Fused(r, _) => r.plan(batch).len(),
        }
    }

    /// Records answered by the last call.
    pub fn records(&self) -> usize {
        match self {
            Runner::Single(_, out) => out.len(),
            Runner::Fused(_, out) => out.num_records(),
        }
    }

    /// Parses every record of `batch` (at `records`) that the last call
    /// kept, as the consumer behind the filter would; false if one fails.
    pub fn parse_kept(&self, batch: &[u8], records: &[Range<usize>]) -> bool {
        let mut ok = true;
        for (r, rec) in records.iter().enumerate() {
            if self.kept(r) {
                ok &= black_box(parse(black_box(&batch[rec.clone()]))).is_ok();
            }
        }
        ok
    }

    /// Did some query keep record `r` in the last call?
    fn kept(&self, r: usize) -> bool {
        match self {
            Runner::Single(_, out) => out[r],
            Runner::Fused(out_r, out) => (0..out_r.num_queries()).any(|q| out.matched(r, q)),
        }
    }

    /// Does the last call's answer equal `expect` (record-major, one
    /// entry per record and query)?
    pub fn answer_equals(&self, expect: &[bool]) -> bool {
        match self {
            Runner::Single(_, out) => out.as_slice() == expect,
            Runner::Fused(r, out) => batch_equals(expect, r.num_queries(), out),
        }
    }
}
