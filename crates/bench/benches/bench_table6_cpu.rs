//! Table VI as a benchmark: the structural-vs-state-based crossover on the
//! generalized C-latch family (|RG| = 2^(n+1)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use si_core::{synthesize, BaselineFlavor, Engine, SynthesisOptions};

fn bench_crossover(c: &mut Criterion) {
    let mut g = c.benchmark_group("table6_crossover");
    g.sample_size(10);
    for n in [6usize, 10, 14] {
        let stg = si_stg::generators::clatch(n);
        g.bench_with_input(BenchmarkId::new("structural", n), &stg, |bench, stg| {
            bench.iter(|| synthesize(stg, &SynthesisOptions::default()).unwrap())
        });
        // The explicit flow only gets the sizes it can finish in reasonable
        // time (the crossover is visible well before n = 14).
        if n <= 10 {
            g.bench_with_input(BenchmarkId::new("state_based", n), &stg, |bench, stg| {
                bench.iter(|| {
                    Engine::new(stg)
                        .cap(10_000_000)
                        .synthesize_state_based(BaselineFlavor::ComplexGateExact)
                        .unwrap()
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_crossover);
criterion_main!(benches);
