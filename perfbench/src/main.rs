//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --server-bin <path> [--out-dir <dir>] [--source-id <id>]`
//!
//! Prints a provenance record, then, as the last line of stdout, the
//! result object. Exits non-zero without a result on bad arguments or a
//! failed set-up.

use perfbench::gen::{Scale, Workload};
use perfbench::runner::{run, Args, ServerChoice};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut server = None;
    let mut out_dir = None;
    let mut source_id = "unknown".to_string();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--server-bin" => server = Some(ServerChoice::Binary(PathBuf::from(value()?))),
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            "--source-id" => source_id = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let server = match (workload, server) {
        (Workload::Offline, s) => s.unwrap_or(ServerChoice::InProcess),
        (_, Some(s)) => s,
        (_, None) => return Err("serve workloads need --server-bin".to_string()),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace,
        scale: Scale::Full,
        server,
        out_dir,
        source_id,
        corrupt_oracle: false,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.record);
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
