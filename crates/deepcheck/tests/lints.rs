//! Fixture corpus tests: every lint code must fire on its bad fixture
//! with the exact (lint, line) diagnostics, stay silent on the clean
//! fixture, and be suppressible through the allowlist.

use deepcheck::{analyze_source, Allowlist, Report};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Run a fixture as if it lived in `crate_name`, returning (lint, line).
fn lints_of(crate_name: &str, name: &str) -> Vec<(String, u32)> {
    analyze_source(
        crate_name,
        &format!("crates/{crate_name}/src/{name}"),
        &fixture(name),
    )
    .into_iter()
    .map(|f| (f.lint.to_string(), f.line))
    .collect()
}

#[test]
fn d001_fires_on_every_clock_and_entropy_source() {
    // Run in obs too: obs timestamps come only from the caller's `SimTime`,
    // so no clock read may appear there, and obs has no waiver.
    for (krate, path) in [
        ("scr", "crates/scr/src/d001_bad.rs"),
        ("obs", "crates/obs/src/x.rs"),
    ] {
        let found: Vec<(&str, u32)> = analyze_source(krate, path, &fixture("d001_bad.rs"))
            .iter()
            .map(|f| (f.lint, f.line))
            .collect();
        assert_eq!(
            found,
            vec![
                ("D001", 5),  // Instant::now
                ("D001", 10), // SystemTime
                ("D001", 15), // thread_rng
                ("D001", 20), // env::var
                ("D001", 24), // rand::random
                ("D001", 28), // StdRng::from_entropy
                ("D001", 33), // OsRng
            ],
            "{krate}"
        );
    }
}

#[test]
fn d002_fires_on_hash_iteration_in_virtual_time_crates() {
    assert_eq!(
        lints_of("scr", "d002_bad.rs"),
        vec![
            ("D002".to_string(), 13), // queues.iter()
            ("D002".to_string(), 21), // dead.retain()
            ("D002".to_string(), 27), // for kv in &pending
            ("D002".to_string(), 34), // for (_, q) in &self.queues
        ]
    );
}

#[test]
fn d002_is_scoped_to_virtual_time_crates() {
    // The same source in the bench crate (host-side) is not a finding.
    let findings = analyze_source("bench", "crates/bench/src/x.rs", &fixture("d002_bad.rs"));
    assert!(
        findings.is_empty(),
        "bench is outside the contract: {findings:?}"
    );
}

#[test]
fn d003_fires_on_available_parallelism() {
    assert_eq!(
        lints_of("ompss", "d003_bad.rs"),
        vec![("D003".to_string(), 5)]
    );
}

#[test]
fn d004_fires_on_unmanaged_parallelism() {
    assert_eq!(
        lints_of("xpic", "d004_bad.rs"),
        vec![
            ("D004".to_string(), 5),  // thread::scope
            ("D004".to_string(), 17), // AtomicU64 + from_bits
        ]
    );
}

#[test]
fn d006_fires_on_missing_ranks_and_inversions() {
    assert_eq!(
        lints_of("psmpi", "d006_bad.rs"),
        vec![
            ("D006".to_string(), 7),  // `orphan` has no rank
            ("D006".to_string(), 13), // state (10) taken under table (20)
            ("D006".to_string(), 20), // table re-acquired while held
        ]
    );
}

#[test]
fn d006_is_scoped_to_virtual_time_crates() {
    // deepcheck itself (a host tool) carries no lock hierarchy.
    let findings = analyze_source(
        "deepcheck",
        "crates/deepcheck/src/x.rs",
        &fixture("d006_bad.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d008_fires_on_blocking_call_under_live_guard() {
    assert_eq!(
        lints_of("psmpi", "d008_bad.rs"),
        vec![
            ("D008".to_string(), 11), // recv_match while nic_free is held
                                      // `good` drops the guard first and stays silent.
        ]
    );
}

#[test]
fn clean_fixture_is_silent_in_the_strictest_crate() {
    // Run as a virtual-time crate so D002/D004 are active too.
    let findings = analyze_source("psmpi", "crates/psmpi/src/clean.rs", &fixture("clean.rs"));
    assert!(
        findings.is_empty(),
        "clean fixture must produce nothing: {findings:?}"
    );
}

#[test]
fn allowlist_suppresses_exactly_the_documented_site() {
    let findings = analyze_source(
        "ompss",
        "crates/ompss/src/d003_bad.rs",
        &fixture("d003_bad.rs"),
    );
    assert_eq!(findings.len(), 1);
    let allow = Allowlist::parse(
        "[[allow]]\nlint = \"D003\"\npath = \"crates/ompss/src/d003_bad.rs\"\nreason = \"fixture: sanctioned sizing site\"\n",
    )
    .unwrap();
    let report = Report::new(findings.clone(), &allow, 1);
    assert_eq!(
        report.violations().count(),
        0,
        "the entry covers the finding"
    );
    assert_eq!(
        report.judged.len(),
        1,
        "the finding is still reported, just allowed"
    );
    assert!(report.unused_allow.is_empty());

    // A different path is NOT covered: the allowlist is site-specific.
    let elsewhere = analyze_source(
        "ompss",
        "crates/ompss/src/other.rs",
        &fixture("d003_bad.rs"),
    );
    let report = Report::new(elsewhere, &allow, 1);
    assert_eq!(report.violations().count(), 1);
    assert_eq!(report.unused_allow.len(), 1, "and the entry is now stale");
}

#[test]
fn test_modules_are_exempt() {
    let src = r#"
        pub fn shipped() {}
        #[cfg(test)]
        mod tests {
            fn toy() {
                let t = std::time::Instant::now();
                let n = std::thread::available_parallelism();
                let _ = (t, n);
            }
        }
    "#;
    assert!(analyze_source("scr", "crates/scr/src/x.rs", src).is_empty());
}
