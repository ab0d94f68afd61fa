//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Untraced (`--trace 0`): runs the workload's campaign repeatedly for
//! about `--seconds`, checks every run's trace digest against `repro`, and
//! prints the end-to-end metrics. Traced (`--trace 1`): one plain and one
//! instrumented pass over the same inputs (plus an instrumented 2-shard pass
//! for the crawl); prints the per-layer metrics and
//! writes the spans and a per-layer table under `--out`
//! (default `.bench_out/<workload>-seed<n>`). The last stdout line is the
//! JSON result.

use perfbench::report::result_line;
use perfbench::trace::{rollup, to_jsonl, Span};
use perfbench::{measure, per_layer, pins, trace, Workload, WORKLOADS};
use std::path::PathBuf;
use std::process::exit;

/// Variables that silently change placement, lookahead or telemetry.
const REFUSED_ENV: [&str; 4] = [
    "TCSB_SHARDS",
    "TCSB_BALANCE",
    "TCSB_LOOKAHEAD",
    "TCSB_TELEMETRY",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn fail_usage(msg: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1> [--out <dir>]",
        names.join("|")
    );
    exit(2);
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, 42, 10.0, false, None);
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| fail_usage(&format!("{} needs a value", args[i])));
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .unwrap_or_else(|| fail_usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--seed takes a u64"))
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| fail_usage("--seconds takes a positive number"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail_usage("--trace takes 0 or 1"),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => fail_usage(&format!("unknown flag {other}")),
        }
        i += 2;
    }
    Args {
        workload: workload.unwrap_or_else(|| fail_usage("--workload is required")),
        seed,
        seconds,
        trace,
        out,
    }
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn layer_table(title: &str, spans: &[Span]) -> String {
    let mut out = format!("## {title}: spans by call (samples, total s, self s)\n");
    for (name, r) in rollup(spans, false) {
        out += &format!(
            "  {name:<34} {:>4} {:>12.6} {:>12.6}\n",
            r.samples,
            r.total_ns as f64 / 1e9,
            r.self_ns as f64 / 1e9
        );
    }
    out += &format!("## {title}: self time by layer (samples, self s)\n");
    for (layer, r) in rollup(spans, true) {
        out += &format!(
            "  {layer:<34} {:>4} {:>12.6}\n",
            r.samples,
            r.self_ns as f64 / 1e9
        );
    }
    out
}

fn main() {
    let args = parse_args();
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: refusing to run with {var} set: it changes placement, lookahead or \
telemetry behind the workload's pinned configuration"
        );
        exit(2);
    }
    let w = args.workload;
    let pin = pins::for_seed(args.seed);
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let header = format!(
        "workload={} seed={} repro_seed={} shards={} host_cpus={host_cpus} commit={}",
        w.name,
        args.seed,
        pin.seed,
        w.shards,
        commit()
    );
    println!("# perfbench {header}");

    if !args.trace {
        let m = measure(&w, pin.seed, &pin, args.seconds);
        for (i, it) in m.iterations.iter().enumerate() {
            let o = &it.outcome;
            eprintln!(
                "perfbench: run {i}: set-up {:.4} s, wall {:.4} s, cpu {:.4} s, {} requests in {:.4} s, \
digest {:#018x} ({})",
                it.setup_s,
                o.wall_s,
                it.usage.user_s + it.usage.sys_s,
                o.requests,
                o.window_s,
                o.digest,
                it.gate
                    .as_ref()
                    .map_or_else(|e| e.as_str(), |()| "matches repro")
            );
        }
        let metrics = m.end_to_end();
        let (attempted, failed, correct) = m.accounting();
        eprintln!(
            "perfbench: {} campaign run(s), {} set-up(s); end-to-end metrics:\n{}",
            m.iterations.len(),
            m.setups.len(),
            metrics.to_table()
        );
        println!("{}", result_line(correct, attempted, failed, &metrics));
        exit(if correct { 0 } else { 1 });
    }

    let t = trace(&w, &pin);
    let metrics = per_layer(&w, &t);
    for (name, (it, _)) in t.passes() {
        if let Err(e) = &it.gate {
            eprintln!("perfbench: {name} pass failed the digest gate: {e}");
        }
    }
    let correct = t.correct();
    let attempted: u64 = t.passes().map(|(_, (it, _))| it.outcome.attempted).sum();
    let failed = if correct {
        t.passes().map(|(_, (it, _))| it.outcome.failed).sum()
    } else {
        attempted
    };

    let dir = args
        .out
        .unwrap_or_else(|| PathBuf::from(format!(".bench_out/{}-seed{}", w.name, args.seed)));
    let mut spans = String::new();
    let mut table = format!(
        "# perfbench trace {header}\n# span runs: 0 plain pass, 1 traced pass, 2 2-shard pass\n"
    );
    for (name, (_, rec)) in t.passes() {
        spans += &to_jsonl(rec.tracer.spans());
        table += &layer_table(&format!("{name} pass"), rec.tracer.spans());
    }
    table += &format!("## per-layer metrics\n{}", metrics.to_table());
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("spans.jsonl"), spans))
        .and_then(|()| std::fs::write(dir.join("layers.txt"), &table));
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write the trace to {}: {e}",
            dir.display()
        );
        exit(1);
    }
    eprintln!(
        "{table}perfbench: wrote {}/spans.jsonl and layers.txt",
        dir.display()
    );
    println!("{}", result_line(correct, attempted, failed, &metrics));
    exit(if correct { 0 } else { 1 });
}
