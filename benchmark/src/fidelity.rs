//! How close the simulator's virtual-time results are to the paper's.
//!
//! The reference rows are data (`paper_reference.toml`, compiled in); the
//! measurement behind each row name is here. One pass runs the Fig. 3
//! small-message ping-pong and the Fig. 7 and Fig. 8 xPic experiments at
//! the figure binaries' own shape.

use crate::trace;
use cb_bench::{fig3, fig7, fig8, prototype_launcher};
use std::sync::OnceLock;
use std::time::Instant;

/// Steps of the Fig. 7 / Fig. 8 runs: the figure binaries' default, so the
/// ratios are the ones EXPERIMENTS.md tabulates.
pub const FIGURE_STEPS: u32 = 10;

/// One row of `paper_reference.toml`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub name: String,
    pub paper: f64,
    pub unit: String,
    pub section: String,
}

/// The reference rows, in file order.
pub fn references() -> &'static [Reference] {
    static ROWS: OnceLock<Vec<Reference>> = OnceLock::new();
    ROWS.get_or_init(|| {
        parse_references(include_str!("../paper_reference.toml"))
            .expect("paper_reference.toml is well-formed")
    })
}

/// Parse the subset of TOML the reference file uses: `[[row]]` tables of
/// `key = "string"` and `key = number` lines, `#` comments.
pub fn parse_references(text: &str) -> Result<Vec<Reference>, String> {
    let mut rows: Vec<Reference> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        let fail = |what: &str| format!("paper_reference.toml line {}: {what}", n + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[row]]" {
            rows.push(Reference {
                name: String::new(),
                paper: f64::NAN,
                unit: String::new(),
                section: String::new(),
            });
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| fail("expected key = value"))?;
        let row = rows
            .last_mut()
            .ok_or_else(|| fail("key outside a [[row]]"))?;
        let value = value.trim();
        let text_value = || {
            value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .map(str::to_string)
                .ok_or_else(|| fail("expected a quoted string"))
        };
        match key.trim() {
            "name" => row.name = text_value()?,
            "unit" => row.unit = text_value()?,
            "section" => row.section = text_value()?,
            "paper" => row.paper = value.parse().map_err(|_| fail("expected a number"))?,
            other => return Err(fail(&format!("unknown key {other}"))),
        }
    }
    for row in &rows {
        if row.name.is_empty() || row.section.is_empty() || row.paper.is_nan() || row.paper <= 0.0 {
            return Err(format!(
                "paper_reference.toml: row {:?} needs a name, a section and a positive paper value",
                row.name
            ));
        }
    }
    Ok(rows)
}

/// One scored row.
#[derive(Debug, Clone)]
pub struct Scored {
    pub reference: &'static Reference,
    pub measured: f64,
}

impl Scored {
    pub fn rel_err(&self) -> f64 {
        (self.measured - self.reference.paper).abs() / self.reference.paper
    }
}

/// The result of one figures pass.
#[derive(Debug, Clone)]
pub struct Fidelity {
    pub rows: Vec<Scored>,
    /// Host seconds the pass took.
    pub wall_s: f64,
}

impl Fidelity {
    pub fn max_rel_err(&self) -> f64 {
        self.rows.iter().map(Scored::rel_err).fold(0.0, f64::max)
    }

    pub fn mean_rel_err(&self) -> f64 {
        self.rows.iter().map(Scored::rel_err).sum::<f64>() / self.rows.len() as f64
    }
}

/// Run Fig. 3 (1-byte messages), Fig. 7 and Fig. 8 over `steps` xPic steps
/// ([`FIGURE_STEPS`] for a measurement) and score every reference row.
pub fn run_figures(steps: u32) -> Fidelity {
    let _span = trace::span("bench.figures");
    let t0 = Instant::now();
    let latency = &fig3::series_for(&[1])[0];
    let launcher = prototype_launcher();
    let bars = fig7::run(&launcher, steps);
    let scaling = fig8::run(&launcher, steps, &fig8::paper_node_counts());
    let at8 = scaling.at(8);
    let rows = references()
        .iter()
        .map(|reference| {
            let measured = match reference.name.as_str() {
                "fig3_cn_cn_latency" => latency.cn_cn.0,
                "fig3_bn_bn_latency" => latency.bn_bn.0,
                "fig7_field_ratio" => bars.field_ratio(),
                "fig7_particle_ratio" => bars.particle_ratio(),
                "fig7_gain_vs_cluster" => bars.gain_vs_cluster(),
                "fig7_gain_vs_booster" => bars.gain_vs_booster(),
                "fig8_gain_vs_cluster" => scaling.gain_vs_cluster(8),
                "fig8_gain_vs_booster" => scaling.gain_vs_booster(8),
                "fig8_eff_cluster" => at8.efficiency[0],
                "fig8_eff_booster" => at8.efficiency[1],
                "fig8_eff_cb" => at8.efficiency[2],
                other => panic!("paper_reference.toml names {other}, which nothing measures"),
            };
            Scored {
                reference,
                measured,
            }
        })
        .collect();
    Fidelity {
        rows,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_file_parses_and_names_each_row_once() {
        let rows = references();
        assert!(rows.len() >= 11);
        let mut names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rows.len(), "a row name is used twice");
    }

    #[test]
    fn malformed_reference_text_is_refused() {
        assert!(
            parse_references("name = \"x\"").is_err(),
            "key before a row"
        );
        assert!(parse_references("[[row]]\nname = x\n").is_err(), "unquoted");
        assert!(parse_references("[[row]]\nname = \"x\"\nsection = \"s\"\n").is_err());
        assert!(parse_references("[[row]]\nname = \"x\"\nsection = \"s\"\npaper = 0\n").is_err());
        assert!(parse_references("[[row]]\ncolour = \"x\"\n").is_err());
        let ok = parse_references("# c\n[[row]]\nname = \"x\"\nsection = \"s\"\npaper = 2.5\n");
        assert_eq!(ok.unwrap()[0].paper, 2.5);
    }

    #[test]
    fn relative_error_is_a_share_of_the_paper_value() {
        let reference: &'static Reference = Box::leak(Box::new(Reference {
            name: "x".into(),
            paper: 2.0,
            unit: "ratio".into(),
            section: "s".into(),
        }));
        let low = Scored {
            reference,
            measured: 1.5,
        };
        let high = Scored {
            reference,
            measured: 2.2,
        };
        assert_eq!(low.rel_err(), 0.25);
        let f = Fidelity {
            rows: vec![low, high],
            wall_s: 0.0,
        };
        assert_eq!(f.max_rel_err(), 0.25);
        assert!((f.mean_rel_err() - 0.175).abs() < 1e-12);
    }
}
