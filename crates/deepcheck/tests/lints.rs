//! Fixture corpus tests: every lint code must fire on its bad fixture
//! with the exact (lint, line) diagnostics and stay silent on the clean
//! fixture.

use deepcheck::analyze_source;

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
    // Ranked locks taken in ascending order, a blocking receive after the
    // guard is dropped or under a temporary guard, and lock names in
    // strings and comments: nothing for the lock pass to report.
    let findings = analyze_source("psmpi", "crates/psmpi/src/clean.rs", &fixture("clean.rs"));
    assert!(
        findings.is_empty(),
        "clean fixture must produce nothing: {findings:?}"
    );
}

#[test]
fn test_modules_are_exempt() {
    let body = r#"
        struct S {
            orphan: Mutex<u32>,
            table: RwLock<u32>, // lock-order: 20
        }
        fn toy(s: &S, mb: &Mailbox) {
            let t = s.table.write();
            let env = mb.recv_match(1, None, None);
            drop(env);
            drop(t);
        }
    "#;
    // Shipped, the same code is an unranked lock and a blocking receive
    // under a live guard; inside `#[cfg(test)] mod tests` it is nothing.
    let shipped = analyze_source("scr", "crates/scr/src/x.rs", body);
    assert!(shipped.iter().any(|f| f.lint == "D006"), "{shipped:?}");
    assert!(shipped.iter().any(|f| f.lint == "D008"), "{shipped:?}");
    let src = format!("pub fn shipped() {{}}\n#[cfg(test)]\nmod tests {{\n{body}\n}}\n");
    assert!(analyze_source("scr", "crates/scr/src/x.rs", &src).is_empty());
}
