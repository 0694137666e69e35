//! The outcomes of `cb_bench::golden::check`, the one check behind every
//! pin across commits: equal passes; price moves and added lines write a
//! candidate and fail with a table; a moved program token, a removed line
//! or a price key that names nothing fails with nothing written.

use cb_bench::golden::check;
use std::path::PathBuf;

const GOLDEN: &str = "\
header: two rows
Sync clean             block_s=0.000429305 ckpts=2 makespan_s=0.054416222 resumed=[]
Sync after-stage       block_s=0.000000000 ckpts=0 makespan_s=0.154849945 resumed=[2]
FINAL fe=4015214cade57ac0 ke=400e4c1f6a768b56 steps=3
";
const PRICES: [&str; 2] = ["block_s", "makespan_s"];

/// Check `actual` against `GOLDEN` in a fresh directory named after the
/// test; the result and the candidate, if one was written.
fn outcome(test: &str, actual: &str, prices: &[&str]) -> (Result<(), String>, Option<String>) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("golden_check")
        .join(test);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    let golden = dir.join("pin.golden");
    std::fs::write(&golden, GOLDEN).unwrap();
    let candidate = dir.join("candidate").join("pin.golden");
    let result = check(&golden, &candidate, actual, prices);
    (result, std::fs::read_to_string(candidate).ok())
}

#[test]
fn equal_passes() {
    assert_eq!(outcome("equal", GOLDEN, &PRICES), (Ok(()), None));
}

#[test]
fn price_moves_write_the_candidate_and_a_table() {
    let actual = GOLDEN
        .replace("0.054416222", "0.052875466")
        .replace("0.154849945", "0.151000000");
    let (result, candidate) = outcome("price", &actual, &PRICES);
    let failure = result.unwrap_err();
    for row in [
        "\nSync clean makespan_s 0.054416222 → 0.052875466\n",
        "\nSync after-stage makespan_s 0.154849945 → 0.151000000\n",
        "only prices moved",
        "cp ",
    ] {
        assert!(failure.contains(row), "{row:?} not in {failure}");
    }
    assert_eq!(candidate.as_deref(), Some(actual.as_str()));
}

#[test]
fn added_lines_write_the_candidate() {
    let row =
        "Async clean            block_s=0.000155474 ckpts=2 makespan_s=0.054142391 resumed=[]";
    let actual = GOLDEN.replace("FINAL", &format!("{row}\nFINAL"));
    let (result, candidate) = outcome("added", &actual, &PRICES);
    let failure = result.unwrap_err();
    assert!(failure.contains(&format!("\n+ {row}\n")), "{failure}");
    assert_eq!(candidate.as_deref(), Some(actual.as_str()));
}

#[test]
fn a_moved_program_token_is_refused_by_name() {
    // A price moved too, before it: the refusal still names the program
    // token, and nothing is written.
    let actual = GOLDEN
        .replace("0.054416222", "0.052875466")
        .replace("ckpts=0", "ckpts=2");
    let (result, candidate) = outcome("program", &actual, &PRICES);
    let failure = result.unwrap_err();
    assert!(
        failure.contains("line 3: Sync after-stage `ckpts` moved 0 → 2"),
        "{failure}"
    );
    assert!(!failure.contains("cp "), "{failure}");
    assert_eq!(candidate, None);

    let actual = GOLDEN.replace("fe=4015214cade57ac0", "fe=4015214cade57ac1");
    let failure = outcome("final", &actual, &PRICES).0.unwrap_err();
    assert!(
        failure.contains("line 4: FINAL `fe` moved 4015214cade57ac0 → 4015214cade57ac1"),
        "{failure}"
    );
}

#[test]
fn a_removed_line_is_refused() {
    let actual = GOLDEN.replace("header: two rows\n", "");
    let (result, candidate) = outcome("removed", &actual, &PRICES);
    let failure = result.unwrap_err();
    assert!(
        failure.contains("golden line 1 `header: two rows` is gone"),
        "{failure}"
    );
    assert_eq!(candidate, None);

    // A changed label is a removed line, and the refusal quotes its
    // replacement.
    let actual = GOLDEN.replace("header: two rows", "header: three rows");
    let (result, candidate) = outcome("relabelled", &actual, &PRICES);
    let failure = result.unwrap_err();
    assert!(
        failure.contains("`header: two rows` is gone: the output reads `header: three rows`"),
        "{failure}"
    );
    assert_eq!(candidate, None);
}

#[test]
fn a_price_key_absent_from_the_golden_fails() {
    let (result, candidate) = outcome("absent", GOLDEN, &["makespan_s", "wait_s"]);
    let failure = result.unwrap_err();
    assert!(failure.contains("price key `wait_s`"), "{failure}");
    assert_eq!(candidate, None);
}
