//! Table V as a benchmark: full structural synthesis vs the state-based
//! baseline on the fixed benchmark set (throughput of the complete flows).

use criterion::{criterion_group, criterion_main, Criterion};
use si_core::{synthesize, BaselineFlavor, Engine, SynthesisOptions};

fn bench_flows(c: &mut Criterion) {
    let mut g = c.benchmark_group("table5_flows");
    g.sample_size(20);
    let suite = si_bench::small_set();
    g.bench_function("structural_full_suite", |bench| {
        bench.iter(|| {
            for stg in &suite {
                std::hint::black_box(synthesize(stg, &SynthesisOptions::default()).unwrap());
            }
        })
    });
    g.bench_function("baseline_full_suite", |bench| {
        bench.iter(|| {
            for stg in &suite {
                std::hint::black_box(
                    Engine::new(stg)
                        .cap(1_000_000)
                        .synthesize_state_based(BaselineFlavor::ExcitationExact)
                        .unwrap(),
                );
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_flows);
criterion_main!(benches);
