//! Property-based tests on the workspace's core invariants.

use proptest::prelude::*;
use sixg::geo::{CellId, GeoPoint, GridSpec, Polyline};
use sixg::measure::scenario::KeyScheme;
use sixg::measure::spec::PACKABLE_GRID_DIM;
use sixg::netsim::calendar::Calendar;
use sixg::netsim::dist::{
    Exponential, LogNormal, Normal, Pareto, Quantile, Sample, Uniform, Weibull,
};
use sixg::netsim::queueing::{md1_wait, mg1_wait, mm1_wait, Load};
use sixg::netsim::radio::{AccessModel, CellEnv, FiveGAccess};
use sixg::netsim::rng::{SimRng, StreamKey};
use sixg::netsim::routing::{shortest_path, AsGraph};
use sixg::netsim::stats::Welford;
use sixg::netsim::time::SimTime;
use sixg::netsim::topology::{Asn, LinkParams, NodeKind, Topology};

/// Distance between two floats in units in the last place, measured on the
/// monotone integer number line (sign-magnitude bits folded around zero).
fn ulps_apart(a: f64, b: f64) -> u64 {
    fn fix(v: i64) -> i64 {
        if v < 0 {
            i64::MIN - v
        } else {
            v
        }
    }
    fix(a.to_bits() as i64).abs_diff(fix(b.to_bits() as i64))
}

/// Neumaier-compensated sum: the correctly rounded reference the streaming
/// accumulator is held against.
fn compensated_sum(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut c) = (0.0f64, 0.0f64);
    for x in xs {
        let t = sum + x;
        c += if sum.abs() >= x.abs() { (sum - t) + x } else { (x - t) + sum };
        sum = t;
    }
    sum + c
}

proptest! {
    // --- geometry -------------------------------------------------------

    #[test]
    fn haversine_is_a_metric(
        lat1 in -80.0f64..80.0, lon1 in -179.0f64..179.0,
        lat2 in -80.0f64..80.0, lon2 in -179.0f64..179.0,
        lat3 in -80.0f64..80.0, lon3 in -179.0f64..179.0,
    ) {
        let a = GeoPoint::new(lat1, lon1);
        let b = GeoPoint::new(lat2, lon2);
        let c = GeoPoint::new(lat3, lon3);
        // Symmetry.
        prop_assert!((a.distance_km(b) - b.distance_km(a)).abs() < 1e-6);
        // Identity.
        prop_assert!(a.distance_km(a) < 1e-6);
        // Triangle inequality (with numeric slack).
        prop_assert!(a.distance_km(c) <= a.distance_km(b) + b.distance_km(c) + 1e-6);
    }

    #[test]
    fn destination_distance_round_trip(
        lat in -70.0f64..70.0, lon in -170.0f64..170.0,
        bearing in 0.0f64..360.0, dist in 0.1f64..5000.0,
    ) {
        let start = GeoPoint::new(lat, lon);
        let end = start.destination(bearing, dist);
        prop_assert!((start.distance_km(end) - dist).abs() / dist < 0.01);
    }

    #[test]
    fn grid_locate_centroid_round_trip(cols in 1u32..12, rows in 1u32..12, cell_km in 0.2f64..3.0) {
        let grid = GridSpec::new(GeoPoint::new(46.6, 14.3), cols, rows, cell_km);
        for cell in grid.cells() {
            prop_assert_eq!(grid.locate(grid.centroid(cell)), Some(cell));
        }
    }

    #[test]
    fn polyline_never_shorter_than_direct(
        pts in prop::collection::vec((-60.0f64..60.0, -150.0f64..150.0), 2..8)
    ) {
        let line = Polyline::new(pts.iter().map(|&(la, lo)| GeoPoint::new(la, lo)).collect());
        prop_assert!(line.geodesic_km() + 1e-6 >= line.direct_km());
    }

    // --- randomness & distributions -------------------------------------

    #[test]
    fn stream_keys_are_reproducible(seed in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let k1 = StreamKey::root(seed).with(a).with(b);
        let k2 = StreamKey::root(seed).with(a).with(b);
        prop_assert_eq!(k1.value(), k2.value());
        let mut r1 = SimRng::for_stream(k1);
        let mut r2 = SimRng::for_stream(k2);
        for _ in 0..16 {
            prop_assert_eq!(r1.bits(), r2.bits());
        }
    }

    #[test]
    fn distributions_are_non_negative(seed in any::<u64>(), mean in 0.1f64..100.0, cv in 0.01f64..2.0) {
        let mut rng = SimRng::from_seed(seed);
        let ln = LogNormal::from_mean_cv(mean, cv);
        let ex = Exponential::with_mean(mean);
        let wb = Weibull::new(mean, 1.3);
        for _ in 0..64 {
            prop_assert!(ln.sample(&mut rng) > 0.0);
            prop_assert!(ex.sample(&mut rng) >= 0.0);
            prop_assert!(wb.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn welford_matches_two_pass_reference(xs in prop::collection::vec(0.1f64..1e3, 2..300)) {
        // Streaming Welford vs a naive two-pass reference (compensated sums,
        // so the reference itself is correctly rounded). On positive,
        // latency-like data the streaming result lands within a handful of
        // ulps — each update's rounding contributes at most ~1 ulp and they
        // mostly cancel. (Bitwise equality is impossible here: the two
        // algorithms perform different operation sequences.)
        const MAX_ULPS: u64 = 24;
        let mut w = Welford::new();
        for &x in &xs { w.push(x); }
        let n = xs.len() as f64;
        let mean_ref = compensated_sum(xs.iter().copied()) / n;
        let m2_ref = compensated_sum(xs.iter().map(|x| (x - mean_ref) * (x - mean_ref)));
        let std_ref = (m2_ref / (n - 1.0)).sqrt();
        let mean_ulps = ulps_apart(w.mean(), mean_ref);
        let std_ulps = ulps_apart(w.sample_std_dev(), std_ref);
        prop_assert!(mean_ulps <= MAX_ULPS,
            "mean {} vs ref {} is {} ulps apart", w.mean(), mean_ref, mean_ulps);
        prop_assert!(std_ulps <= MAX_ULPS,
            "std {} vs ref {} is {} ulps apart", w.sample_std_dev(), std_ref, std_ulps);
    }

    #[test]
    fn welford_merge_equals_concatenation(xs in prop::collection::vec(0.1f64..1e3, 2..300), split in 1usize..299) {
        // Chan's merge of two accumulators must agree with accumulating the
        // concatenated stream — not bitwise (the operation sequences
        // differ), but within the same few-ulp envelope as above.
        const MAX_ULPS: u64 = 48;
        let split = split.min(xs.len() - 1);
        let mut whole = Welford::new();
        for &x in &xs { whole.push(x); }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..split] { left.push(x); }
        for &x in &xs[split..] { right.push(x); }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert_eq!(left.min().to_bits(), whole.min().to_bits());
        prop_assert_eq!(left.max().to_bits(), whole.max().to_bits());
        let mean_ulps = ulps_apart(left.mean(), whole.mean());
        let std_ulps = ulps_apart(left.sample_std_dev(), whole.sample_std_dev());
        prop_assert!(mean_ulps <= MAX_ULPS,
            "merged mean {} vs streamed {} is {} ulps apart", left.mean(), whole.mean(), mean_ulps);
        prop_assert!(std_ulps <= MAX_ULPS,
            "merged std {} vs streamed {} is {} ulps apart",
            left.sample_std_dev(), whole.sample_std_dev(), std_ulps);
    }

    #[test]
    fn quantiles_are_monotone(p1 in 0.001f64..0.999, p2 in 0.001f64..0.999,
                              mean in 0.5f64..100.0, shape in 0.6f64..4.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let dists: Vec<Box<dyn Quantile>> = vec![
            Box::new(Uniform::new(0.0, mean * 2.0)),
            Box::new(Exponential::with_mean(mean)),
            Box::new(Normal::new(mean, mean / shape)),
            Box::new(LogNormal::from_mean_cv(mean, 1.0 / shape)),
            Box::new(Pareto::new(mean, shape + 1.0)),
            Box::new(Weibull::new(mean, shape)),
        ];
        for d in &dists {
            let (qlo, qhi) = (d.quantile(lo), d.quantile(hi));
            prop_assert!(qlo.is_finite() && qhi.is_finite());
            prop_assert!(qlo <= qhi, "quantile not monotone: q({lo}) = {qlo} > q({hi}) = {qhi}");
        }
    }

    #[test]
    fn quantile_round_trips_through_sampler(seed in any::<u64>(), mean in 0.5f64..50.0) {
        // Inverse-transform samplers draw u and return quantile(u): every
        // sample must therefore be *some* quantile, and the empirical CDF at
        // the p-quantile must converge on p (checked coarsely).
        let d = Exponential::with_mean(mean);
        let mut rng = SimRng::from_seed(seed);
        let q90 = d.quantile(0.9);
        let below = (0..2000).filter(|_| d.sample(&mut rng) <= q90).count();
        let frac = below as f64 / 2000.0;
        prop_assert!((frac - 0.9).abs() < 0.04, "frac {frac} at p=0.9");
    }

    #[test]
    fn welford_merge_is_consistent(xs in prop::collection::vec(-1e4f64..1e4, 2..200), split in 1usize..199) {
        let split = split.min(xs.len() - 1);
        let mut whole = Welford::new();
        for &x in &xs { whole.push(x); }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..split] { left.push(x); }
        for &x in &xs[split..] { right.push(x); }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-3);
    }

    // --- cell-key schemes -------------------------------------------------

    #[test]
    fn legacy_keys_match_the_historical_packing(col in 0u32..256, row in 0u32..256) {
        // Every pre-widening golden bit was produced under `(col << 8) | row`;
        // the versioned scheme must reproduce it exactly for packable grids.
        let cell = CellId::new(col, row);
        prop_assert_eq!(KeyScheme::Legacy.cell_key(cell), ((col as u64) << 8) | row as u64);
    }

    #[test]
    fn wide_keys_are_injective(
        c1 in 0u32..1_000_000, r1 in 0u32..1_000_000,
        c2 in 0u32..1_000_000, r2 in 0u32..1_000_000,
    ) {
        let (a, b) = (CellId::new(c1, r1), CellId::new(c2, r2));
        let equal_keys = KeyScheme::Wide.cell_key(a) == KeyScheme::Wide.cell_key(b);
        prop_assert_eq!(equal_keys, a == b, "wide keys must collide iff the cells coincide");
    }

    #[test]
    fn scheme_selection_is_a_pure_function_of_the_dims(cols in 1u32..5000, rows in 1u32..5000) {
        let scheme = KeyScheme::for_dims(cols, rows);
        let packable = cols <= PACKABLE_GRID_DIM && rows <= PACKABLE_GRID_DIM;
        prop_assert_eq!(scheme == KeyScheme::Legacy, packable);
        prop_assert_eq!(scheme, KeyScheme::for_dims(cols, rows));
    }

    #[test]
    fn selected_scheme_never_collides_within_its_grid(
        cols in 1u32..5000, rows in 1u32..5000,
        picks in prop::collection::vec((0u32..5000, 0u32..5000), 2..40),
    ) {
        // Whichever scheme `for_dims` selects for a spec's grid, keys of
        // distinct in-grid cells never collide — the guarantee the
        // per-cell RNG stream derivation rests on.
        let scheme = KeyScheme::for_dims(cols, rows);
        let cells: Vec<CellId> =
            picks.iter().map(|&(c, r)| CellId::new(c % cols, r % rows)).collect();
        for (i, &a) in cells.iter().enumerate() {
            for &b in &cells[i + 1..] {
                if a != b {
                    prop_assert_ne!(scheme.cell_key(a), scheme.cell_key(b),
                        "scheme {:?} collided on {} vs {}", scheme, a, b);
                }
            }
        }
    }

    // --- queueing --------------------------------------------------------

    #[test]
    fn queueing_formulas_ordered(lambda in 0.1f64..9.0, mu in 10.0f64..20.0) {
        let load = Load::new(lambda, mu);
        // M/D/1 <= M/G/1(cs2<1) <= M/M/1.
        prop_assert!(md1_wait(load) <= mg1_wait(load, 0.5) + 1e-12);
        prop_assert!(mg1_wait(load, 0.5) <= mm1_wait(load) + 1e-12);
        // Waits grow with load.
        let heavier = Load::new(lambda * 1.05, mu);
        prop_assert!(mm1_wait(heavier) >= mm1_wait(load));
    }

    // --- radio model ------------------------------------------------------

    #[test]
    fn radio_mean_monotone_in_load(load1 in 0.0f64..1.0, load2 in 0.0f64..1.0, intf in 0.0f64..1.0) {
        let (lo, hi) = if load1 <= load2 { (load1, load2) } else { (load2, load1) };
        let a = FiveGAccess::new(CellEnv::new(lo, intf));
        let b = FiveGAccess::new(CellEnv::new(hi, intf));
        prop_assert!(a.mean_rtt_ms() <= b.mean_rtt_ms() + 1e-9);
    }

    #[test]
    fn radio_variance_monotone_in_interference(load in 0.0f64..1.0, i1 in 0.0f64..1.0, i2 in 0.0f64..1.0) {
        let (lo, hi) = if i1 <= i2 { (i1, i2) } else { (i2, i1) };
        let a = FiveGAccess::new(CellEnv::new(load, lo));
        let b = FiveGAccess::new(CellEnv::new(load, hi));
        prop_assert!(a.var_rtt_ms2() <= b.var_rtt_ms2() + 1e-9);
    }

    #[test]
    fn radio_fit_hits_feasible_targets(mean in 8.0f64..70.0, cv in 0.05f64..0.7) {
        let std = mean * cv;
        let m = FiveGAccess::fit(mean, std);
        // Inside the parameter box the fit must recover the mean well;
        // at the box edges it clamps (checked separately).
        if m.env.load > 0.001 && m.env.load < 0.999 {
            prop_assert!((m.mean_rtt_ms() - mean).abs() < 1.0,
                "mean {} for target {}", m.mean_rtt_ms(), mean);
        }
    }

    // --- calendar ---------------------------------------------------------

    // Kept under its old name: the vendored proptest seeds a property's
    // cases from its name, so the delays are the ones it has always drawn.
    #[test]
    fn engine_executes_in_time_order(delays in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let mut cal = Calendar::default();
        for (i, &d) in delays.iter().enumerate() {
            cal.push(SimTime(d), i);
        }
        let popped: Vec<(SimTime, usize)> =
            std::iter::from_fn(|| cal.pop_due(SimTime(u64::MAX))).collect();
        prop_assert_eq!(popped.len(), delays.len());
        for &(at, i) in &popped {
            prop_assert_eq!(at, SimTime(delays[i]));
        }
        for pair in popped.windows(2) {
            prop_assert!(pair[0] < pair[1], "{:?} then {:?}", pair[0], pair[1]);
        }
    }

    // --- routing -----------------------------------------------------------

    #[test]
    fn spf_path_is_connected_and_acyclic(n in 3usize..12, extra in 0usize..8, seed in any::<u64>()) {
        let mut topo = Topology::new();
        let mut rng = SimRng::from_seed(seed);
        let ids: Vec<_> = (0..n)
            .map(|i| {
                let lat = 46.0 + rng.unit();
                let lon = 14.0 + rng.unit();
                topo.add_node(NodeKind::CoreRouter, format!("r{i}"), GeoPoint::new(lat, lon), Asn(1))
            })
            .collect();
        // Spanning chain guarantees connectivity; extras add shortcuts.
        for w in ids.windows(2) {
            topo.add_link(w[0], w[1], LinkParams::backbone());
        }
        for _ in 0..extra {
            let a = ids[rng.below(n as u64) as usize];
            let b = ids[rng.below(n as u64) as usize];
            if a != b {
                topo.add_link(a, b, LinkParams::metro());
            }
        }
        let (hops, cost) = shortest_path(&topo, ids[0], ids[n - 1], |_| true).expect("connected");
        prop_assert!(cost >= 0.0);
        // Path is loop-free.
        let mut seen = vec![ids[0]];
        for (node, _) in &hops {
            prop_assert!(!seen.contains(node), "loop at {node:?}");
            seen.push(*node);
        }
        prop_assert_eq!(*seen.last().unwrap(), ids[n - 1]);
    }

    #[test]
    fn bgp_paths_are_valley_free(seed in any::<u64>(), n_as in 3u32..10) {
        let mut rng = SimRng::from_seed(seed);
        let mut g = AsGraph::new();
        // Random transit tree + a few peerings.
        for i in 1..n_as {
            let provider = rng.below(i as u64) as u32;
            g.add_transit(Asn(provider), Asn(i));
        }
        for _ in 0..n_as / 2 {
            let a = rng.below(n_as as u64) as u32;
            let b = rng.below(n_as as u64) as u32;
            if a != b && g.relationship(Asn(a), Asn(b)).is_none() {
                g.add_peering(Asn(a), Asn(b));
            }
        }
        for src in 0..n_as {
            for dst in 0..n_as {
                if let Some(path) = g.as_path(Asn(src), Asn(dst)) {
                    prop_assert!(g.is_valley_free(&path.asns), "{:?}", path.asns);
                    prop_assert_eq!(*path.asns.first().unwrap(), Asn(src));
                    prop_assert_eq!(*path.asns.last().unwrap(), Asn(dst));
                }
            }
        }
    }
}

#[test]
fn key_scheme_flips_exactly_past_the_packable_cap() {
    assert_eq!(KeyScheme::for_dims(PACKABLE_GRID_DIM, PACKABLE_GRID_DIM), KeyScheme::Legacy);
    assert_eq!(KeyScheme::for_dims(PACKABLE_GRID_DIM + 1, 1), KeyScheme::Wide);
    assert_eq!(KeyScheme::for_dims(1, PACKABLE_GRID_DIM + 1), KeyScheme::Wide);
}

#[test]
fn cell_ids_round_trip_all_labels() {
    for col in 0..26u32 {
        for row in 0..99u32 {
            let cell = CellId::new(col, row);
            assert_eq!(CellId::parse(&cell.label()), Some(cell));
        }
    }
}
