//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (see `perfbench::bench::WORKLOADS`) for about
//! `--seconds` seconds of timed passes and prints, as its last line, one
//! JSON object with the output-check tally and the metrics: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced run with `--trace 1`. Lines before it (prefixed `#`) record the
//! host facts and secondary figures. Exits 1 when any output check
//! failed, 2 on bad arguments or a failed set-up.

use perfbench::bench::{self, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::workloads::STANDARD;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let run = if args.trace {
        bench::run_traced(&args.workload, args.seed, args.seconds, &STANDARD)
    } else {
        bench::run_untraced(&args.workload, args.seed, args.seconds, &STANDARD)
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(2);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    if let Some(spans) = &outcome.spans {
        let path = bench::work_dir().join(format!("spans-{}-{}.json", args.workload, args.seed));
        match std::fs::write(&path, spans.to_json()) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match perfbench::result_line(
        outcome.tally.attempted,
        outcome.tally.failed,
        &outcome.metrics,
        units,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
    if outcome.tally.failed > 0 {
        eprintln!(
            "perfbench: {} of {} output checks failed",
            outcome.tally.failed, outcome.tally.attempted
        );
        std::process::exit(1);
    }
}
