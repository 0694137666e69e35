//! Fabric bandwidth contention: max-min fair sharing.
//!
//! When several co-scheduled applications push bulk traffic through the
//! same EXTOLL fabric (the Cluster-Booster interconnect is one uniform
//! network, paper §II-B), each flow gets its max-min fair share of the
//! aggregate bandwidth: progressive filling raises every flow's share
//! uniformly; a flow whose demand is met freezes, and the leftover
//! capacity is recycled among the still-hungry flows. The workload
//! engine (`crates/sched`) uses these shares to stretch the runtime of
//! combined Cluster+Booster jobs whose communication phases overlap.
//!
//! Pure function of its inputs — no clocks, no randomness, no iteration
//! over unordered containers — so the schedules built on top stay
//! bit-identical across hosts and thread counts.

/// Relative head-room under which [`max_min_shares_into`] skips the
/// filling: its subtractions and divisions err by a few ulps per demand,
/// nine orders of magnitude below this.
const UNCONTENDED_MARGIN: f64 = 1e-9;

/// Max-min fair allocation of `capacity` among `demands` (progressive
/// filling). Returns one share per demand, in input order:
///
/// * `shares[i] <= demands[i]` (no flow gets more than it asked for);
/// * `sum(shares) <= capacity` (never oversubscribed);
/// * if `sum(demands) <= capacity` every demand is met exactly;
/// * otherwise the capacity is exhausted and unmet flows all sit at the
///   same water level (the fairness property).
///
/// Zero and negative demands get a zero share. Units are arbitrary
/// (the sched engine passes GB/s).
pub fn max_min_shares(demands: &[f64], capacity: f64) -> Vec<f64> {
    let mut shares = Vec::new();
    max_min_shares_into(demands, capacity, &mut Vec::new(), &mut shares);
    shares
}

/// [`max_min_shares`] into caller-kept buffers (`order` is scratch), for a
/// caller that shares a fabric at every event. Demands that fit under the
/// capacity with [`UNCONTENDED_MARGIN`] to spare are met without sorting:
/// the filling would hand each flow `min(demand, level)` with
/// `level >= demand` at every step, the demand itself.
pub fn max_min_shares_into(
    demands: &[f64],
    capacity: f64,
    order: &mut Vec<usize>,
    shares: &mut Vec<f64>,
) {
    shares.clear();
    let wanted: f64 = demands.iter().filter(|&&d| d > 0.0).sum();
    if wanted <= capacity * (1.0 - UNCONTENDED_MARGIN) {
        shares.extend(demands.iter().map(|&d| if d > 0.0 { d } else { 0.0 }));
        return;
    }
    progressive_fill(demands, capacity, order, shares);
}

/// The filling itself: `shares` (empty on entry) gets one share per demand.
fn progressive_fill(demands: &[f64], capacity: f64, order: &mut Vec<usize>, shares: &mut Vec<f64>) {
    shares.resize(demands.len(), 0.0);
    if capacity <= 0.0 {
        return;
    }
    // Sort demand indices ascending: once the smallest unmet demand fits
    // under the current equal split, it is met exactly and drops out.
    order.clear();
    order.extend(0..demands.len());
    order.sort_unstable_by(|&a, &b| {
        demands[a]
            .partial_cmp(&demands[b])
            .expect("demands must not be NaN")
            .then(a.cmp(&b))
    });
    let mut remaining = capacity;
    let mut active = order.iter().filter(|&&i| demands[i] > 0.0).count();
    for &i in order.iter() {
        if demands[i] <= 0.0 {
            continue;
        }
        let level = remaining / active as f64;
        let s = demands[i].min(level);
        shares[i] = s;
        remaining -= s;
        active -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Skipping the filling moves no bit of a share, hence none of the
        /// `(share / demand).min(1)` the sched engine builds on it: for
        /// demand sets far under, far over, and within 1e-12 of the capacity.
        #[test]
        fn the_uncontended_skip_changes_no_bit(
            demands in prop::collection::vec(prop::option::of(0.5f64..8.0), 0..12),
            off in 0usize..8,
            scale in 0.3f64..3.0,
        ) {
            let demands: Vec<f64> = demands.into_iter().map(|d| d.unwrap_or(0.0)).collect();
            let wanted: f64 = demands.iter().sum();
            let capacity = wanted
                * [1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 0.5e-9, 1.0 + 2e-9, 1.0 + 1e-6, scale, 3.0][off];
            let (mut filled, mut shares) = (Vec::new(), Vec::new());
            progressive_fill(&demands, capacity, &mut Vec::new(), &mut filled);
            max_min_shares_into(&demands, capacity, &mut Vec::new(), &mut shares);
            prop_assert_eq!(shares.len(), demands.len());
            for ((s, f), d) in shares.iter().zip(&filled).zip(&demands) {
                prop_assert_eq!(s.to_bits(), f.to_bits(), "{:?} under {}", &demands, capacity);
                if capacity > wanted * (1.0 + 2e-9) && *d > 0.0 {
                    prop_assert_eq!((s / d).min(1.0).to_bits(), 1f64.to_bits());
                }
            }
        }
    }

    #[test]
    fn undersubscribed_demands_are_met_exactly() {
        let shares = max_min_shares(&[10.0, 20.0, 5.0], 100.0);
        assert_eq!(shares, vec![10.0, 20.0, 5.0]);
    }

    #[test]
    fn oversubscribed_flows_share_the_water_level() {
        // Capacity 90 among demands 10/40/50: the small flow is met (10),
        // the rest split the leftover 80 equally at level 40.
        let shares = max_min_shares(&[10.0, 40.0, 50.0], 90.0);
        assert_eq!(shares[0], 10.0);
        assert_eq!(shares[1], 40.0);
        assert_eq!(shares[2], 40.0);
        let total: f64 = shares.iter().sum();
        assert!((total - 90.0).abs() < 1e-12);
    }

    #[test]
    fn equal_demands_split_equally() {
        let shares = max_min_shares(&[30.0, 30.0, 30.0], 60.0);
        for s in &shares {
            assert!((s - 20.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_demands_and_zero_capacity() {
        assert_eq!(max_min_shares(&[0.0, 5.0], 10.0), vec![0.0, 5.0]);
        assert_eq!(max_min_shares(&[5.0, 5.0], 0.0), vec![0.0, 0.0]);
        assert_eq!(max_min_shares(&[], 10.0), Vec::<f64>::new());
    }

    #[test]
    fn shares_never_exceed_demand_or_capacity() {
        let demands = [3.0, 7.0, 11.0, 2.0, 19.0];
        for cap in [1.0, 10.0, 25.0, 100.0] {
            let shares = max_min_shares(&demands, cap);
            let total: f64 = shares.iter().sum();
            assert!(total <= cap + 1e-12, "cap {cap}: total {total}");
            for (s, d) in shares.iter().zip(&demands) {
                assert!(s <= d, "share {s} over demand {d}");
            }
        }
    }

    #[test]
    fn order_of_demands_does_not_change_each_flows_share() {
        // Shares are positional: permuting the input permutes the output.
        let a = max_min_shares(&[10.0, 40.0, 50.0], 90.0);
        let b = max_min_shares(&[50.0, 10.0, 40.0], 90.0);
        assert_eq!(a[0], b[1]);
        assert_eq!(a[1], b[2]);
        assert_eq!(a[2], b[0]);
    }
}
