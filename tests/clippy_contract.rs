//! The determinism contract's name bans live in the root `clippy.toml`,
//! which ci.sh's `cargo clippy -- -D warnings` stage enforces. Clippy gives
//! no standing proof that its configuration still names what the contract
//! bans, so this test does: it reads the file as text and fails when any
//! banned path leaves it, or moves to the wrong list.

/// The `path = "…"` entries of one top-level `<key> = [ … ]` list.
fn banned(config: &str, key: &str) -> Vec<String> {
    let start = config
        .find(&format!("\n{key} = ["))
        .unwrap_or_else(|| panic!("clippy.toml has no `{key}` list"));
    let body = &config[start..];
    let body = &body[..body.find("\n]").expect("the list is closed")];
    body.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| l.split("path = \"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn ban_list_names_every_contract_path() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/clippy.toml");
    let config = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let methods = banned(&config, "disallowed-methods");
    let types = banned(&config, "disallowed-types");
    for want in [
        // The host wall clock and environment.
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::env::var",
        "std::env::vars",
        "std::env::var_os",
        "std::env::args",
        "std::env::args_os",
        "std::env::current_dir",
        "std::env::temp_dir",
        // The host core count.
        "std::thread::available_parallelism",
        // Threads outside xpic::par's fixed-order merge.
        "std::thread::scope",
        "std::thread::spawn",
    ] {
        assert!(
            methods.iter().any(|m| m == want),
            "clippy.toml's disallowed-methods lost `{want}`: {methods:?}"
        );
    }
    // Per-process hash order.
    for want in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(
            types.iter().any(|t| t == want),
            "clippy.toml's disallowed-types lost `{want}`: {types:?}"
        );
    }
}
