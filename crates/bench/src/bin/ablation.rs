//! Ablation: how much does each structural ingredient matter?
//!
//! 1. **Refinement policy** — none vs conflict-driven vs liberal (the
//!    paper's "refine all places" remark): effect on cover cubes, on the
//!    minimized area and on context-build time.
//! 2. **Minimization stages** — the per-stage area deltas, aggregated.

use si_core::{
    synthesize_with_context, Architecture, MinimizeStages, StructuralContext, SynthesisOptions,
};
use std::time::Instant;

fn main() {
    println!("== ablation 1: refinement policy ==");
    let header = format!(
        "{:<14} | {:>9} {:>9} | {:>9} {:>9} | {:>10} {:>10}",
        "benchmark", "cubes(c)", "cubes(l)", "area(c)", "area(l)", "time(c)", "time(l)"
    );
    println!("{header}");
    si_bench::rule(&header);
    let opts = SynthesisOptions {
        architecture: Architecture::PerRegion,
        stages: MinimizeStages::full(),
        ..Default::default()
    };
    for stg in si_bench::small_set() {
        // Conflict-driven only: rebuild the context, then undo the liberal
        // round by rebuilding place covers from the raw cubes when no
        // conflicts exist.
        let t0 = Instant::now();
        let mut conservative = StructuralContext::build(&stg).expect("ctx");
        if conservative.conflicts().is_empty() {
            let nsig = stg.signal_count();
            conservative.place_cover = conservative
                .cubes
                .cubes
                .iter()
                .map(|c| si_boolean::Cover::from_cubes(nsig, [c.clone()]))
                .collect();
        }
        let t_cons = t0.elapsed();
        let area_cons = synthesize_with_context(&conservative, &opts, None)
            .map(|s| s.literal_area)
            .unwrap_or(0);

        let t1 = Instant::now();
        let liberal = StructuralContext::build(&stg).expect("ctx");
        let t_lib = t1.elapsed();
        let area_lib = synthesize_with_context(&liberal, &opts, None)
            .map(|s| s.literal_area)
            .unwrap_or(0);

        println!(
            "{:<14} | {:>9} {:>9} | {:>9} {:>9} | {:>10} {:>10}",
            stg.name(),
            conservative.total_cubes(),
            liberal.total_cubes(),
            area_cons,
            area_lib,
            si_bench::fmt_duration(t_cons),
            si_bench::fmt_duration(t_lib),
        );
    }

    println!("\n== ablation 2: minimization stage deltas (PerRegion, suite totals) ==");
    for stage in 0..=4 {
        let mut total = 0usize;
        for stg in si_bench::small_set() {
            let syn = si_core::synthesize(
                &stg,
                &SynthesisOptions {
                    architecture: Architecture::PerRegion,
                    stages: MinimizeStages::stage(stage),
                    ..Default::default()
                },
            )
            .expect("synthesis");
            total += syn.literal_area;
        }
        println!("  M{stage}: total area = {total}");
    }
}
