//! Table I: the hardware configuration of the DEEP-ER prototype, printed
//! from the model presets (the model *is* the configuration, so this table
//! doubles as a check that the presets carry the paper's numbers).

use hwmodel::calib::EXTOLL_LINK_BW;
use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
use hwmodel::NodeSpec;

/// One row of Table I: a feature and its Cluster/Booster values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Feature name (left column of Table I).
    pub feature: &'static str,
    /// Cluster value.
    pub cluster: String,
    /// Booster value.
    pub booster: String,
}

fn ram_string(n: &NodeSpec) -> String {
    let parts: Vec<String> = n
        .memory
        .iter()
        .filter_map(|m| match m.kind {
            hwmodel::MemoryKind::Mcdram => Some(format!("{} GB – MCDRAM", m.capacity_bytes >> 30)),
            hwmodel::MemoryKind::Ddr4 => Some(format!("{} GB – DDR4", m.capacity_bytes >> 30)),
            _ => None,
        })
        .collect();
    parts.join(" + ")
}

/// Build the table from the presets.
pub fn rows() -> Vec<Row> {
    let cn = deep_er_cluster_node();
    let bn = deep_er_booster_node();
    let link_gbits = format!("{:.0} Gbit/s", EXTOLL_LINK_BW * 8.0 / 1e9);
    let row = |feature, c: String, b: String| Row {
        feature,
        cluster: c,
        booster: b,
    };
    vec![
        row(
            "Processor",
            cn.processor.name.clone(),
            bn.processor.name.clone(),
        ),
        row(
            "Microarchitecture",
            format!("{:?}", cn.processor.arch),
            format!("{:?}", bn.processor.arch),
        ),
        row(
            "Sockets per node",
            cn.sockets.to_string(),
            bn.sockets.to_string(),
        ),
        row(
            "Cores per node",
            cn.cores().to_string(),
            bn.cores().to_string(),
        ),
        row(
            "Threads per node",
            cn.threads().to_string(),
            bn.threads().to_string(),
        ),
        row(
            "Frequency",
            format!("{} GHz", cn.processor.freq_ghz),
            format!("{} GHz", bn.processor.freq_ghz),
        ),
        row("Memory (RAM)", ram_string(&cn), ram_string(&bn)),
        row(
            "NVMe capacity",
            format!(
                "{} GB",
                cn.nvme().map_or(0, |m| m.capacity_bytes / 1_000_000_000)
            ),
            format!(
                "{} GB",
                bn.nvme().map_or(0, |m| m.capacity_bytes / 1_000_000_000)
            ),
        ),
        row(
            "Interconnect",
            "EXTOLL Tourmalet A3".into(),
            "EXTOLL Tourmalet A3".into(),
        ),
        row("Max. link bandwidth", link_gbits.clone(), link_gbits),
        row(
            "MPI latency",
            format!("{:.1} µs", 2.0 * cn.nic_send_overhead.as_micros() + 0.3),
            format!("{:.1} µs", 2.0 * bn.nic_send_overhead.as_micros() + 0.3),
        ),
        row("Node count", "16".into(), "8".into()),
        row(
            "Peak performance",
            format!("{:.0} TFlop/s", 16.0 * cn.peak_gflops() / 1000.0),
            format!("{:.0} TFlop/s", 8.0 * bn.peak_gflops() / 1000.0),
        ),
    ]
}

/// Render the table as text.
pub fn render() -> String {
    let mut out = String::new();
    out.push_str("TABLE I: Hardware configuration of the DEEP-ER prototype (from the model)\n");
    out.push_str(&format!(
        "{:<22} {:<28} {:<28}\n",
        "Feature", "Cluster", "Booster"
    ));
    out.push_str(&"-".repeat(78));
    out.push('\n');
    for r in rows() {
        out.push_str(&format!(
            "{:<22} {:<28} {:<28}\n",
            r.feature, r.cluster, r.booster
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_values() {
        let rows = rows();
        let get = |f: &str| rows.iter().find(|r| r.feature == f).expect(f).clone();
        assert_eq!(get("Cores per node").cluster, "24");
        assert_eq!(get("Cores per node").booster, "64");
        assert_eq!(get("Threads per node").cluster, "48");
        assert_eq!(get("Threads per node").booster, "256");
        assert_eq!(get("Frequency").cluster, "2.5 GHz");
        assert_eq!(get("Frequency").booster, "1.3 GHz");
        assert_eq!(get("Memory (RAM)").cluster, "128 GB – DDR4");
        assert_eq!(get("Memory (RAM)").booster, "16 GB – MCDRAM + 96 GB – DDR4");
        assert_eq!(get("MPI latency").cluster, "1.0 µs");
        assert_eq!(get("MPI latency").booster, "1.8 µs");
        assert_eq!(get("NVMe capacity").cluster, "400 GB");
        // Model peaks: 16×0.96 TF ≈ 15.4 and 8×2.66 ≈ 21.3 — within ~7% of
        // Table I's quoted 16 / 20 TFlop/s (spec-sheet rounding).
        let peak = |s: &str| -> f64 { s.split_whitespace().next().unwrap().parse().unwrap() };
        let cluster_peak = peak(&get("Peak performance").cluster);
        let booster_peak = peak(&get("Peak performance").booster);
        assert!((cluster_peak - 16.0).abs() <= 1.0, "{cluster_peak}");
        assert!((booster_peak - 20.0).abs() <= 1.5, "{booster_peak}");
    }

    #[test]
    fn render_contains_all_features() {
        let text = render();
        for r in rows() {
            assert!(text.contains(r.feature));
        }
    }
}
