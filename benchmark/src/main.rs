//! `mfbench` — the repo's layered end-to-end benchmark.
//!
//! ```text
//! mfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//! mfbench list
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics of one
//! workload; `--trace 1` replays a seeded sample of its jobs down the
//! ladder of layers and reports the per-layer metrics. Either way the last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; everything readable
//! goes to standard error and the details to `benchmark/out/`.
//!
//! Run it from the repository root (`benchmark/run.sh` does), with
//! `mf-served` and `subsolve_worker` built into the same target directory.

mod coord;
mod daemon;
mod gen;
mod layers;
mod load;
mod os;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::time::Duration;

use report::Json;

#[global_allocator]
static ALLOC: layers::CountingAlloc = layers::CountingAlloc;

/// The driver allows a run 180 s; give up before it does, reaping
/// children on the way out.
const WATCHDOG: Duration = Duration::from_secs(170);

const USAGE: &str =
    "usage: mfbench --workload W [--seed N] [--seconds S] [--trace 0|1]\n       mfbench list";

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv.first().map(String::as_str) == Some("list") {
        for w in &workload::ALL {
            println!("{}", w.name);
        }
        return Ok(None);
    }
    let (mut name, mut seed, mut seconds, mut traced) = (None, 1u64, 20.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err(format!("--seconds must be at least 1\n{USAGE}"));
    }
    let name = name.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let workload = workload::find(&name).ok_or_else(|| {
        let known: Vec<&str> = workload::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        traced,
    }))
}

/// Measure, write the side file, print the listing and the result line.
/// `Ok(false)` means it ran and reported, but some operation failed.
fn measure(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    // Scratch sockets, journals and results all live under benchmark/out,
    // relative to the working directory.
    if !std::path::Path::new("benchmark/Cargo.toml").is_file() {
        return Err("run mfbench from the repository root (benchmark/run.sh does)".into());
    }
    std::fs::create_dir_all("benchmark/out").map_err(|e| format!("benchmark/out: {e}"))?;
    let out = if args.traced {
        run::traced(w, args.seed, args.seconds)?
    } else {
        run::untraced(w, args.seed, args.seconds)?
    };
    report::check(out.ops, &out.metrics)?;

    let kind = if args.traced { "trace" } else { "run" };
    let side = Json::obj([
        (
            "provenance",
            report::provenance(w.name, args.seed, args.seconds, args.traced),
        ),
        ("attempted", Json::Num(out.ops.attempted as f64)),
        ("failed", Json::Num(out.ops.failed as f64)),
        ("metrics", report::metrics_json(&out.metrics)),
        ("informational", report::metrics_json(&out.informational)),
        ("detail", out.detail),
    ]);
    let path = format!(
        "benchmark/out/metrics-{kind}-{}-seed{}.json",
        w.name, args.seed
    );
    std::fs::write(&path, side.render() + "\n").map_err(|e| format!("{path}: {e}"))?;

    report::print_listing(
        &format!(
            "mfbench {kind} — {} (seed {}, {} s measured) → {path}\n  \
             operations: {} attempted, {} succeeded, {} failed",
            w.name,
            args.seed,
            args.seconds,
            out.ops.attempted,
            out.ops.attempted - out.ops.failed,
            out.ops.failed
        ),
        &out.metrics,
    );
    if !out.informational.is_empty() {
        report::print_listing("informational, not gated on:", &out.informational);
    }
    println!("{}", report::result_line(out.ops, &out.metrics));
    Ok(out.ops.failed == 0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => return,
        Err(e) => {
            eprintln!("mfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("mfbench: still running after {WATCHDOG:?} — giving up");
        os::kill_descendants();
        std::process::exit(3);
    });
    // Whatever happens in there — error, panic — no child outlives us.
    let outcome = std::panic::catch_unwind(|| measure(&args));
    os::kill_descendants();
    std::process::exit(match outcome {
        Ok(Ok(true)) => 0,
        Ok(Ok(false)) => {
            eprintln!("mfbench: operations failed — see the result line");
            1
        }
        Ok(Err(e)) => {
            eprintln!("mfbench: {e}");
            1
        }
        Err(_) => {
            eprintln!("mfbench: panicked");
            101
        }
    });
}
