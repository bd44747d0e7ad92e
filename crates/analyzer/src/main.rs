//! CLI gate:
//!
//! ```text
//! spc-analyzer --check [--root PATH] [--format text|json]
//!              [--baseline FILE] [--write-baseline FILE] [--dot FILE]
//! spc-analyzer --list-rules
//! ```
//!
//! Exits 0 when the tree is clean (after baseline subtraction, if
//! `--baseline` was given), 1 with `file:line: [SPCnn/rule] message`
//! diagnostics otherwise, 2 on usage or I/O errors. CI runs
//! `--check --baseline analyzer-baseline.json --dot lock-order.dot`; run
//! the plain `--check` locally before pushing hot-path changes.

use std::path::PathBuf;
use std::process::ExitCode;

use spc_analyzer::diag;

const USAGE: &str = "usage: spc-analyzer --check [--root PATH] [--format text|json] \
                     [--baseline FILE] [--write-baseline FILE] [--dot FILE] | --list-rules";

fn main() -> ExitCode {
    let mut check = false;
    let mut list_rules = false;
    let mut root = PathBuf::from(".");
    let mut format = String::from("text");
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut dot: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let path_arg = |args: &mut dyn Iterator<Item = String>, flag: &str| match args.next() {
            Some(p) => Ok(PathBuf::from(p)),
            None => {
                eprintln!("{flag} requires a path");
                Err(())
            }
        };
        match a.as_str() {
            "--check" => check = true,
            "--list-rules" => list_rules = true,
            "--root" => match path_arg(&mut args, "--root") {
                Ok(p) => root = p,
                Err(()) => return ExitCode::from(2),
            },
            "--baseline" => match path_arg(&mut args, "--baseline") {
                Ok(p) => baseline = Some(p),
                Err(()) => return ExitCode::from(2),
            },
            "--write-baseline" => match path_arg(&mut args, "--write-baseline") {
                Ok(p) => write_baseline = Some(p),
                Err(()) => return ExitCode::from(2),
            },
            "--dot" => match path_arg(&mut args, "--dot") {
                Ok(p) => dot = Some(p),
                Err(()) => return ExitCode::from(2),
            },
            "--format" => match args.next() {
                Some(f) if matches!(f.as_str(), "text" | "json") => format = f,
                Some(f) => {
                    eprintln!("unknown format `{f}` (expected text or json)");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--format requires text|json");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    if list_rules {
        println!("{:<6} {:<22} description", "id", "name");
        for r in diag::RULES {
            println!("{:<6} {:<22} {}", r.id, r.name, r.desc);
        }
        return ExitCode::SUCCESS;
    }
    if !check {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    // When invoked through `cargo run -p spc-analyzer`, the working
    // directory is the workspace root; honor an explicit --root otherwise.
    let result = match spc_analyzer::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("spc-analyzer: i/o error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(p) = &dot {
        if let Err(e) = std::fs::write(p, &result.dot) {
            eprintln!("spc-analyzer: writing {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }
    if let Some(p) = &write_baseline {
        let text = diag::write_baseline(&result.findings);
        if let Err(e) = std::fs::write(p, text) {
            eprintln!("spc-analyzer: writing {}: {e}", p.display());
            return ExitCode::from(2);
        }
        println!(
            "spc-analyzer: wrote baseline with {} finding(s) to {}",
            result.findings.len(),
            p.display()
        );
        return ExitCode::SUCCESS;
    }
    let findings = match &baseline {
        Some(p) => {
            let text = match std::fs::read_to_string(p) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("spc-analyzer: reading {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            };
            let entries = match diag::parse_baseline(&text) {
                Ok(es) => es,
                Err(e) => {
                    eprintln!("spc-analyzer: {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            };
            diag::diff_baseline(result.findings, &entries)
        }
        None => result.findings,
    };
    match format.as_str() {
        "json" => print!("{}", diag::to_json(&findings)),
        _ => {
            for f in &findings {
                eprintln!("{f}");
            }
            if findings.is_empty() {
                println!("spc-analyzer: clean (0 findings)");
            } else {
                eprintln!("spc-analyzer: {} finding(s)", findings.len());
            }
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
