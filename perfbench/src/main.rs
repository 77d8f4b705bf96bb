//! Command-line entry point; see the crate docs in `lib.rs`.

use perfbench::batch::BATCH_BYTES;
use perfbench::e2e::{peak_rss_mib, reset_peak_rss, Client, Timings};
use perfbench::ladder;
use perfbench::names::contract;
use perfbench::output::result_line;
use perfbench::stats::{percentile_label, Summary};
use perfbench::workload::{Gate, Prepared, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload <iot-qs0|taxi-qt-b2-mixed|gateway-5q> --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let workload = Workload::from_name(workload).ok_or_else(|| {
        format!(
            "unknown workload {workload:?} (known: {:?})",
            contract().workloads
        )
    })?;
    let seed = value("--seed")?;
    let seed = seed
        .parse()
        .map_err(|_| format!("--seed expects an unsigned integer, got {seed:?}"))?;
    let seconds = value("--seconds")?;
    let seconds: f64 = seconds
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
        .ok_or_else(|| format!("--seconds expects a number in (0, 600], got {seconds:?}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace expects 0 or 1, got {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn timing_line(name: &str, unit: &str, s: &Summary, what: &str) {
    println!(
        "# {name:<20} {:>12.4} {unit:<5} median of N={} {what}, IQR {:.4}..{:.4} (spread {:.3})",
        s.p50,
        s.n,
        s.q1,
        s.q3,
        s.spread()
    );
}

/// Where the traced run leaves its spans: next to the build output.
fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    dir.join("perfbench-spans")
        .join(format!("{}-seed{seed}.jsonl", workload.name()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let t = Instant::now();
    let mut gate = Gate::default();
    let prep = Prepared::new(args.workload, args.seed, &mut gate);
    let prep_s = t.elapsed().as_secs_f64();
    // From here on the peak resident set is the runner's, the batches'
    // and the per-request parse's, not the generator's.
    let rss_at_reset = match reset_peak_rss().and_then(|()| peak_rss_mib()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: cannot reset the peak resident set: {e}");
            return ExitCode::from(1);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let shards = perfbench::runner::Runner::new(
        &prep.exprs,
        prep.workload.fused(),
        rfjson_runtime::RunnerConfig::default(),
    )
    .shards_for(prep.bytes(0));
    let query_names: Vec<&str> = prep.specs.iter().map(|s| s.name).collect();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# nproc={nproc} shards={shards} batch_bytes={BATCH_BYTES} batches={} records={} stream_bytes={} queries={}",
        prep.batches.len(),
        prep.records(),
        prep.stream.len(),
        query_names.join(",")
    );
    println!(
        "# prepare (generate, ground truth, correctness gate): {prep_s:.3} s, not part of setup_s; resident set after it {rss_at_reset:.3} MiB, where peak_rss_mib starts"
    );
    // A fresh runner per run, warmed up before anything is timed; set-up
    // is timed on further fresh runners, between the timed requests.
    let mut client = Client::new(&prep);
    client.warm_up(&mut gate);

    let (metrics, table) = if args.trace {
        let (metrics, tracer) = ladder::run(&mut client, args.seconds, &mut gate);
        let path = spans_path(args.workload, args.seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
        match written {
            Ok(()) => println!(
                "# {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
        for (name, v) in &metrics {
            let unit = contract().metric(name).map_or("", |d| d.unit.as_str());
            println!("# {name:<30} {v:>14.6} {unit}");
        }
        (metrics, &contract().per_layer)
    } else {
        let (samples, setup) = client.run_for(args.seconds, &mut gate);
        let t = Timings::of(&samples);
        let setup_summary = Summary::of(&setup.setup_s);
        timing_line("filter_mbps", "MB/s", &t.filter, "runner calls");
        timing_line("call_ms_p50", "ms", &t.call_ms, "runner calls");
        // Printed, not in the result line: on a shared box its run-to-run
        // spread exceeds any bound a gated metric may have (see LAYERS.md).
        let tail = t.call_tail;
        println!(
            "# {:<20} {:>12.4} {:<5} {} of N={} runner calls ({} beyond); not gated",
            "call_ms_tail",
            tail.value,
            "ms",
            percentile_label(tail.p),
            t.call_ms.n,
            tail.beyond
        );
        timing_line(
            "answer_mbps",
            "MB/s",
            &t.answer,
            "call + parse of kept records",
        );
        timing_line(
            "setup_s",
            "s",
            &setup_summary,
            "fresh runners spread over the run, constructor + first call",
        );
        let peak_rss = match peak_rss_mib() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("perfbench: cannot read the peak resident set: {e}");
                return ExitCode::from(1);
            }
        };
        let metrics = vec![
            ("filter_mbps", t.filter.p50),
            ("call_ms_p50", t.call_ms.p50),
            ("answer_mbps", t.answer.p50),
            ("bytes_dropped_frac", prep.bytes_dropped_frac()),
            ("setup_s", setup_summary.p50),
            ("peak_rss_mib", peak_rss),
        ];
        for (name, v) in [
            ("bytes_dropped_frac", metrics[3].1),
            ("peak_rss_mib", metrics[5].1),
            ("fpr", prep.fpr()),
        ] {
            println!("# {name:<20} {v:>12.6}");
        }
        (metrics, &contract().end_to_end)
    };

    for note in &gate.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    println!(
        "# error_frac {} ({} of {} checks failed)",
        gate.failed as f64 / gate.attempted.max(1) as f64,
        gate.failed,
        gate.attempted
    );
    let correct = gate.failed == 0;
    match result_line(correct, gate.attempted, gate.failed, &metrics, table) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
