//! Parallel-backend bench: the same campaign on 1 / 2 / 4 / 8 pool
//! threads, plus the sequential runner as the baseline.
//!
//! On a multi-core machine the `threads_N` rows should shrink roughly with
//! N until the core count is reached; on a single core they bound the
//! pool's scheduling overhead instead. Either way every configuration
//! computes the identical (bitwise) `CellField`.

use criterion::{criterion_group, criterion_main, Criterion};
use sixg_bench::shared_scenario;
use sixg_measure::campaign::{CampaignConfig, MobileCampaign};
use sixg_measure::exec::{run_field, run_field_sequential};
use sixg_measure::parallel::with_thread_count;
use sixg_measure::ExecBackend;

const PASSES: u32 = 4;

fn config() -> CampaignConfig {
    CampaignConfig { passes: PASSES, ..Default::default() }
}

fn bench_sequential_baseline(c: &mut Criterion) {
    let s = shared_scenario();
    c.bench_function("parallel/sequential_baseline", |b| {
        b.iter(|| run_field_sequential(s, config(), ExecBackend::Analytic).total_samples());
    });
}

fn bench_thread_counts(c: &mut Criterion) {
    let s = shared_scenario();
    for threads in [1usize, 2, 4, 8] {
        c.bench_function(&format!("parallel/threads_{threads}"), |b| {
            b.iter(|| {
                with_thread_count(threads, || {
                    run_field(s, config(), ExecBackend::Analytic).total_samples()
                })
            });
        });
    }
}

fn bench_shard_listing(c: &mut Criterion) {
    let s = shared_scenario();
    let campaign = MobileCampaign::new(s, config());
    c.bench_function("parallel/shard_listing", |b| {
        b.iter(|| campaign.shards().len());
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_sequential_baseline, bench_thread_counts, bench_shard_listing
}
criterion_main!(benches);
