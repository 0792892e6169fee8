//! Metric names, units and the result line the benchmark prints last.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; the
//! smoke test checks that the two agree.

use crate::common::{calibrate, out_dir, REFERENCE_SPEED};
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics, printed by the untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("tokens_per_s", "tok/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("label_accuracy", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`). A layer the
/// workload never enters reads 0 (e.g. `serve.*` on `train_pos`).
pub const PER_LAYER: [(&str, &str); 25] = [
    ("serve.protocol_ns_per_req", "ns"),
    ("serve.engine_ns_per_req", "ns"),
    ("serve.transport_ns_per_req", "ns"),
    ("serve.swap_us", "us"),
    ("serve.lifecycle_us", "us"),
    ("serve.refused", "count"),
    ("stream.push_ns_per_token", "ns"),
    ("stream.tick_ns_per_token", "ns"),
    ("stream.take_ns_per_token", "ns"),
    ("stream.lockstep_share", "ratio"),
    ("stream.smoothing_batched_share", "ratio"),
    ("stream.scalar_push_ns_per_token", "ns"),
    ("hmm.forward_ns_per_token", "ns"),
    ("hmm.viterbi_ns_per_token", "ns"),
    ("hmm.viterbi_over_forward", "ratio"),
    ("hmm.sparse_density", "ratio"),
    ("hmm.sparse_error_bound_max", "nats"),
    ("hmm.estep_ns_per_token", "ns"),
    ("core.mstep_ms_per_iter", "ms"),
    ("core.em_other_ms_per_iter", "ms"),
    ("core.ascent_accept_share", "ratio"),
    ("dpp.value_grad_us_per_call", "us"),
    ("core.decode_ns_per_token", "ns"),
    ("runtime.busy_share", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// What one measured phase observed, before it is reduced to metrics.
///
/// Times are scaled to [`REFERENCE_SPEED`]: the machine's speed is measured
/// with [`calibrate`] when the phase starts and after every block, and each
/// block's duration and operation latencies are multiplied by the mean of
/// the two readings around it over the reference. On a shared host the
/// speed drifts by ±15% over seconds; the scaled figures do not, while a
/// change to the program moves them as much as the unscaled ones.
#[derive(Debug)]
pub struct Phase {
    /// Latency of every timed operation, in nanoseconds, scaled.
    pub op_ns: Vec<f64>,
    /// Labeled tokens per second of each block, scaled (a block is a
    /// stretch of a quarter second or so of a workload's passes; a pass is
    /// one replay of its input script).
    pub block_rates: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused, failed, or answered with labels that differ from
    /// the untimed reference.
    pub failed: u64,
    /// Output labels equal to the generator's hidden state (or, on
    /// `train_pos`, the mapped gold tag).
    pub labels_right: u64,
    /// Output labels compared against the generator.
    pub labels_total: u64,
    /// Labeled tokens per wall second of each block, unscaled.
    pub raw_rates: Vec<f64>,
    /// Threads the workload runs on, and so the calibration too.
    threads: usize,
    /// Machine speed measured at the end of the last block.
    speed: f64,
    /// When the open block started, and its first operation.
    block_start: Instant,
    block_first_op: usize,
}

impl Phase {
    /// Starts a phase of a workload that keeps `threads` cores busy, with a
    /// first speed reading.
    pub fn new(threads: usize) -> Self {
        Self {
            op_ns: Vec::new(),
            block_rates: Vec::new(),
            attempted: 0,
            failed: 0,
            labels_right: 0,
            labels_total: 0,
            raw_rates: Vec::new(),
            threads,
            speed: calibrate(threads),
            block_start: Instant::now(),
            block_first_op: 0,
        }
    }

    /// Starts timing a block of work.
    pub fn start_block(&mut self) {
        self.block_first_op = self.op_ns.len();
        self.block_start = Instant::now();
    }

    /// Ends the block started by [`Phase::start_block`], in which `tokens`
    /// were labeled, and reads the machine's speed again.
    pub fn end_block(&mut self, tokens: usize) {
        let secs = self.block_start.elapsed().as_secs_f64();
        let after = calibrate(self.threads);
        let scale = (self.speed + after) / 2.0 / REFERENCE_SPEED;
        self.speed = after;
        self.raw_rates.push(tokens as f64 / secs);
        self.block_rates.push(tokens as f64 / (secs * scale));
        for ns in &mut self.op_ns[self.block_first_op..] {
            *ns *= scale;
        }
    }

    /// Median block rate. The median over blocks, rather than total tokens
    /// over total time, keeps a burst of load from a neighbour on a shared
    /// machine out of the figure.
    pub fn tokens_per_s(&self) -> f64 {
        stats::median(&mut self.block_rates.clone())
    }
}

/// A workload's result: end-to-end or per-layer values plus details.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (see [`Phase::failed`]).
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra facts printed on the detail line (JSON values, pre-rendered).
    pub detail: BTreeMap<String, String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Adds a detail entry; `value` must already be JSON.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.detail.insert(key.to_string(), value.to_string());
    }

    /// Adds the end-to-end metrics of a measured phase.
    pub fn end_to_end(&mut self, phase: &Phase, setup_s: f64) {
        let mut us: Vec<f64> = phase.op_ns.iter().map(|ns| ns / 1e3).collect();
        let (pct, tail_us) = stats::tail(&us);
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.set("tokens_per_s", phase.tokens_per_s());
        self.set("op_p50_us", stats::median(&mut us));
        self.set("op_tail_us", tail_us);
        self.set(
            "label_accuracy",
            phase.labels_right as f64 / phase.labels_total.max(1) as f64,
        );
        self.set("setup_s", setup_s);
        self.note("op_samples", us.len());
        self.note("op_tail_percentile", pct);
        self.note("blocks", phase.block_rates.len());
        self.note(
            "raw_tokens_per_s",
            stats::median(&mut phase.raw_rates.clone()),
        );
        self.note("labels_compared", phase.labels_total);
    }

    /// Writes the traced run's spans to `out/spans-<workload>.jsonl` and
    /// notes where.
    pub fn write_spans(&mut self, tracer: &Tracer, workload: &str) {
        let path = out_dir().join(format!("spans-{workload}.jsonl"));
        tracer.write_jsonl(&path).expect("write spans");
        self.note("spans", tracer.spans().len());
        self.note("spans_file", format!("\"{}\"", path.display()));
    }

    /// The detail line: error rate, sample counts, tail percentile and
    /// anything the workload noted.
    pub fn detail_line(&self, workload: &str) -> String {
        let mut s = format!(
            "{{\"workload\":\"{workload}\",\"error_rate\":{}",
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (k, v) in &self.detail {
            let _ = write!(s, ",\"{k}\":{v}");
        }
        s.push('}');
        s
    }

    /// The result line: every end-to-end metric (untraced) or every
    /// per-layer metric (traced), with its unit.
    pub fn result_line(&self, traced: bool) -> String {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}
