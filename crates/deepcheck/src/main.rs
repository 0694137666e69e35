//! The deepcheck CLI: run the lock pass over the workspace, print
//! rustc-style diagnostics, write `DEEPCHECK_REPORT.json`, and exit
//! non-zero on any finding (the CI gate).
//!
//! ```text
//! deepcheck [--root <dir>] [--report <file>]
//! ```

#![forbid(unsafe_code)]

use deepcheck::{analyze_workspace, find_workspace_root};
use std::path::PathBuf;
use std::process::ExitCode;

#[expect(
    clippy::disallowed_methods,
    reason = "the analyzer's own CLI: argv carries --root/--report and the cwd seeds workspace discovery; deepcheck is a host tool outside the simulation"
)]
fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--report" => report_path = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("usage: deepcheck [--root <dir>] [--report <file>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("deepcheck: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!(
                "deepcheck: no workspace root found (no ancestor Cargo.toml with [workspace])"
            );
            return ExitCode::from(2);
        }
    };

    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("deepcheck: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", report.render_text());

    let report_path = report_path.unwrap_or_else(|| root.join("DEEPCHECK_REPORT.json"));
    if let Err(e) = std::fs::write(&report_path, report.render_json()) {
        eprintln!("deepcheck: cannot write {}: {e}", report_path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", report_path.display());

    if !report.findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
