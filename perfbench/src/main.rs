//! The benchmark of record for the PseudoLRU replay simulator.
//!
//! Usage: `perfbench --workload roster-replay|ga-generation|serve-mixed
//!         [--seed N] [--seconds S (default 20)] [--trace 0|1] [--work-dir DIR]
//!         [--commit ID] [--source-digest HEX]`
//!
//! Normally started through `run.py`, which builds this package first.
//! Each run builds its inputs from `--seed`, sets up several times, warms
//! up with one untimed round, then times rounds for at least `--seconds`,
//! checking every simulated result against a reference engine. It prints
//! one detail line (`{"perfbench": ...}`: host stamp, digests, extra
//! metrics) and, last, the result line. With `--trace 0` the result line
//! carries the end-to-end metrics; with `--trace 1` every other round is
//! traced, a layer probe runs after the rounds, and the result line carries
//! the per-layer metrics. Spans and the simulated-result digest text are
//! written under `--work-dir`.

mod ga;
mod inputs;
mod report;
mod roster;
mod serve;
mod trace;

use report::{json_num, json_str, metric, metrics_json, Metric};
use sim_core::{pool, CacheGeometry, ShardedStream};
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: u32 = 5;

pub const WORKLOADS: [&str; 3] = ["roster-replay", "ga-generation", "serve-mixed"];

/// The end-to-end metrics, in output order (tracing off).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("round_s", "s"),
    ("policy_steps_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Layers that own spans; each gets a `self_s.<layer>` metric.
pub const LAYERS: [&str; 16] = [
    "bench",
    "traces",
    "hierarchy",
    "shard",
    "batch",
    "sliced",
    "mono",
    "optimal",
    "mattson",
    "sample",
    "ladder",
    "fitness",
    "client",
    "server",
    "protocol",
    "session",
];

/// The per-layer metrics, in output order (traced run). Every workload
/// reports every one; a layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("traces.generate_s", "s"),
    ("hierarchy.capture_s", "s"),
    ("hierarchy.llc_per_ref", "ratio"),
    ("shard.route_s", "s"),
    ("shard.count", "count"),
    ("shard.imbalance", "ratio"),
    ("plan.sharded", "count"),
    ("plan.sliced", "count"),
    ("plan.mono", "count"),
    ("sliced.steps_per_s", "1/s"),
    ("mono.steps_per_s", "1/s"),
    ("batch.shard_step_s", "s"),
    ("batch.merge_s", "s"),
    ("optimal.min_s", "s"),
    ("mattson.capture_s", "s"),
    ("sample.build_s", "s"),
    ("ladder.profile_evals", "count"),
    ("ladder.sampled_evals", "count"),
    ("ladder.full_evals", "count"),
    ("ladder.pruned", "count"),
    ("ladder.full_saved", "count"),
    ("fitness.profile_ms_p50", "ms"),
    ("fitness.sampled_ms_p50", "ms"),
    ("fitness.full_ipv_ms_p50", "ms"),
    ("fitness.full_set_ms_p50", "ms"),
    ("protocol.encode_us_p50", "us"),
    ("protocol.decode_crc_us_p50", "us"),
    ("session.apply_us_p50", "us"),
    ("session.cut_delta_us_p50", "us"),
    ("session.snapshot_ms_p50", "ms"),
    ("session.snapshot_bytes", "bytes"),
    ("client.send_blocked_s", "s"),
    ("server.deltas", "count"),
    ("server.throttled", "count"),
    ("server.error_frames", "count"),
    ("delta_latency_ms_p50", "ms"),
    ("delta_latency_ms_p99", "ms"),
    ("tracing.overhead_s", "s"),
];

/// One benchmark invocation's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub work_dir: PathBuf,
}

impl Run {
    /// Timed rounds to run at least, whatever `--seconds` says: enough
    /// for a median, and in a traced run at least two of each kind.
    pub fn min_rounds(&self) -> usize {
        if self.tracer.enabled() {
            4
        } else {
            3
        }
    }

    /// Traced runs alternate untraced and traced rounds, so the tracing
    /// overhead is measured on the same inputs in the same process.
    pub fn round_traced(&self, id: u32) -> bool {
        self.tracer.enabled() && id % 2 == 1
    }
}

/// What a workload hands back: the correctness tally, digests, the
/// end-to-end metrics, the per-layer values it measured and any extras.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub digest: u32,
    pub digest_text: String,
    pub input_digest: u32,
    pub e2e: Vec<Metric>,
    pub layers: BTreeMap<&'static str, f64>,
    pub extra: Vec<Metric>,
    pub streams: Vec<(String, usize)>,
}

impl Outcome {
    pub fn new(
        attempted: u64,
        failed: u64,
        digest: u32,
        digest_text: String,
        input_digest: u32,
    ) -> Self {
        Outcome {
            attempted,
            failed,
            digest,
            digest_text,
            input_digest,
            e2e: Vec::new(),
            layers: BTreeMap::new(),
            extra: Vec::new(),
            streams: Vec::new(),
        }
    }

    /// The end-to-end metrics, in `END_TO_END` order. `peak_rss_mb` is
    /// the median over untraced rounds of each round's peak resident set.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        round_s: f64,
        policy_steps_per_s: f64,
        peak_rss_mb: f64,
    ) {
        self.e2e = vec![
            metric("setup_s", setup_s, "s"),
            metric("round_s", round_s, "s"),
            metric("policy_steps_per_s", policy_steps_per_s, "1/s"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
        ];
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }

    pub fn tracing_overhead(&mut self, traced_round_s: f64, untraced_round_s: f64) {
        self.layer("tracing.overhead_s", traced_round_s - untraced_round_s);
    }

    pub fn stamp_streams(&mut self, streams: impl Iterator<Item = (String, usize)>) {
        self.streams = streams.collect();
    }
}

/// Shards the batch engine routes into on this host for `geom`.
pub fn host_shards(geom: &CacheGeometry) -> usize {
    ShardedStream::for_parallelism(&[], geom, 0, pool::global().cap()).shards()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    commit: String,
    source_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        work_dir: PathBuf::from("."),
        commit: "unknown".into(),
        source_digest: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            "--commit" => args.commit = value()?,
            "--source-digest" => args.source_digest = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        work_dir: args.work_dir.clone(),
    };
    let out = match args.workload.as_str() {
        "roster-replay" => roster::run(&run),
        "ga-generation" => ga::run(&run),
        _ => serve::run(&run),
    };

    let stem = format!("{}-seed{}", args.workload, args.seed);
    let digest_path = args.work_dir.join(format!("digest-{stem}.txt"));
    if let Err(e) = std::fs::write(&digest_path, &out.digest_text) {
        eprintln!("perfbench: cannot write {}: {e}", digest_path.display());
    }
    let correct = out.failed == 0;
    let failed_op_frac = out.failed as f64 / out.attempted.max(1) as f64;

    let mut detail = vec![
        format!("\"workload\": {}", json_str(&args.workload)),
        format!("\"seed\": {}", args.seed),
        format!("\"default_seed\": {}", inputs::DEFAULT_SEED),
        format!("\"heldout_seed\": {}", inputs::HELDOUT_SEED),
        format!("\"trace\": {}", args.trace),
        format!(
            "\"host\": {{\"cores\": {}, \"pool_cap\": {}, \"arch\": {}, \"target_features\": [{}]}}",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool::global().cap(),
            json_str(std::env::consts::ARCH),
            report::target_features()
                .iter()
                .map(|f| json_str(f))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!("\"commit\": {}", json_str(&args.commit)),
        format!("\"source_digest\": {}", json_str(&args.source_digest)),
        "\"scale\": \"medium\"".to_string(),
        format!(
            "\"streams\": {{{}}}",
            out.streams
                .iter()
                .map(|(n, len)| format!("{}: {len}", json_str(n)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        "\"validation\": \"simulated statistics from an unvalidated model of the cache \
         hierarchy; not checked against hardware, no error figure is claimed\""
            .to_string(),
        format!("\"inputs_digest\": \"{:08x}\"", out.input_digest),
        format!("\"results_digest\": \"{:08x}\"", out.digest),
        format!(
            "\"results_digest_file\": {}",
            json_str(&digest_path.display().to_string())
        ),
        format!("\"failed_op_frac\": {}", json_num(failed_op_frac)),
        format!("\"end_to_end\": {}", metrics_json(&out.e2e)),
        format!("\"extra\": {}", metrics_json(&out.extra)),
    ];

    let metrics = if args.trace {
        let spans = run.tracer.spans();
        let span_path = args.work_dir.join(format!("spans-{stem}.jsonl"));
        if let Err(e) = run.tracer.write_jsonl(&span_path) {
            eprintln!("perfbench: cannot write {}: {e}", span_path.display());
        }
        detail.push(format!("\"spans\": {}", spans.len()));
        detail.push(format!(
            "\"spans_file\": {}",
            json_str(&span_path.display().to_string())
        ));
        let self_s = trace::layer_self_s(&spans);
        let mut m: Vec<Metric> = PER_LAYER
            .iter()
            .map(|(name, unit)| metric(name, out.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        m.push(metric("failed_op_frac", failed_op_frac, "ratio"));
        for layer in LAYERS {
            m.push(metric(
                &format!("self_s.{layer}"),
                self_s.get(layer).copied().unwrap_or(0.0),
                "s",
            ));
        }
        m
    } else {
        out.e2e.clone()
    };
    println!("{{\"perfbench\": {{{}}}}}", detail.join(", "));
    println!(
        "{}",
        report::result_line(correct, out.attempted, out.failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names this binary prints are exactly the ones
    /// `BENCHMARK.json` declares, in both modes.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let names_in = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let mut layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        layer.push("failed_op_frac".into());
        layer.extend(LAYERS.iter().map(|l| format!("self_s.{l}")));
        assert_eq!(names_in("per_layer"), layer);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(names_in("workloads"), workloads);
    }
}
