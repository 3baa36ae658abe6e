//! `bdsm-benchmark`: the repo's end-to-end and per-layer benchmark.
//!
//! ```text
//! bdsm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! bdsm-benchmark compare <base.tsv> <new.tsv>
//! bdsm-benchmark manifest
//! ```
//!
//! A run prints every metric of its mode by name and unit, then one JSON
//! object as the last line of standard output. See `README.md`.

mod affinity;
mod gen;
mod layers;
mod oracle;
mod report;
mod run;
mod spec;
mod stats;

use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: bdsm-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]\n\
         \x20      bdsm-benchmark compare <base.tsv> <new.tsv>\n\
         \x20      bdsm-benchmark manifest",
        names.join("|")
    )
}

fn parse_run(argv: &[String]) -> Result<run::Args, String> {
    let mut args = run::Args {
        spec: &spec::WORKLOADS[0],
        seed: 11,
        seconds: f64::from(report::RUN_SECONDS),
        trace: false,
        out: None,
    };
    let mut named = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.spec =
                    spec::workload(value).ok_or_else(|| format!("unknown workload: {value}"))?;
                named = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(value.into()),
            _ => return Err(format!("unknown flag: {flag}")),
        }
    }
    named
        .then_some(args)
        .ok_or_else(|| "--workload is required".into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", report::manifest());
            ExitCode::SUCCESS
        }
        Some("compare") => match argv.as_slice() {
            [_, base, new] => match report::compare(base.as_ref(), new.as_ref()) {
                Ok(clean) => {
                    if clean {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        },
        _ => {
            let args = match parse_run(&argv) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{e}\n{}", usage());
                    return ExitCode::from(2);
                }
            };
            // A harness-level failure prints no result line.
            let report = match run::run(&args) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{}: {e}", args.spec.name);
                    return ExitCode::from(2);
                }
            };
            if let Some(dir) = &args.out {
                if let Err(e) = report::append_tsv(dir, &report) {
                    eprintln!("{}: {e}", args.spec.name);
                    return ExitCode::from(2);
                }
            }
            report::print(&report);
            if report.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}
