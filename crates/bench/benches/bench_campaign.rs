//! E2/E3 harness bench: the mobile campaign, sequential vs rayon.

use criterion::{criterion_group, criterion_main, Criterion};
use sixg_bench::shared_scenario;
use sixg_measure::campaign::{CampaignConfig, MobileCampaign};
use sixg_measure::exec::{run_field, run_field_sequential};
use sixg_measure::wired::WiredCampaign;
use sixg_measure::ExecBackend;

fn bench_sequential(c: &mut Criterion) {
    let s = shared_scenario();
    c.bench_function("campaign/sequential_1_pass", |b| {
        b.iter(|| {
            run_field_sequential(s, CampaignConfig::default(), ExecBackend::Analytic)
                .total_samples()
        });
    });
}

fn bench_parallel(c: &mut Criterion) {
    let s = shared_scenario();
    c.bench_function("campaign/rayon_4_passes", |b| {
        b.iter(|| {
            run_field(s, CampaignConfig { passes: 4, ..Default::default() }, ExecBackend::Analytic)
                .total_samples()
        });
    });
    c.bench_function("campaign/sequential_4_passes", |b| {
        b.iter(|| {
            let config = CampaignConfig { passes: 4, ..Default::default() };
            run_field_sequential(s, config, ExecBackend::Analytic).total_samples()
        });
    });
}

fn bench_wired(c: &mut Criterion) {
    let s = shared_scenario();
    c.bench_function("campaign/wired_baseline", |b| {
        b.iter(|| WiredCampaign::new(s, 2).run().count);
    });
}

fn bench_traceroute(c: &mut Criterion) {
    let s = shared_scenario();
    let campaign = MobileCampaign::new(s, CampaignConfig::default());
    c.bench_function("campaign/table1_traceroute", |b| {
        let mut rep = 0u64;
        b.iter(|| {
            rep += 1;
            campaign.table1_traceroute(rep).total_rtt_ms()
        });
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_sequential, bench_parallel, bench_wired, bench_traceroute
}
criterion_main!(benches);
