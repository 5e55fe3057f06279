//! Table V: area comparison — state-based baselines (SYN / FORCAGE
//! stand-ins) vs the structural flow (S3C), semi-optimized and fully
//! minimized, plus the mapped area.
//!
//! The paper reports S3C within 15–23 % better totals than the baselines;
//! the reproduction target is the ordering and the improvement band, not
//! the absolute numbers (the area model is normalized literal units).

use si_bench::{marking_count, small_set};
use si_core::{
    map_circuit, synthesize, Architecture, BaselineFlavor, Engine, MinimizeStages, SynthesisOptions,
};

fn main() {
    let header = format!(
        "{:<12} {:>4} {:>4} {:>7} | {:>8} {:>8} | {:>9} {:>9} {:>7}",
        "benchmark", "|P|", "|T|", "|M|", "SYN", "FCG", "S3C-semi", "S3C-full", "mapped"
    );
    println!("{header}");
    si_bench::rule(&header);

    let (mut tot_syn, mut tot_fcg, mut tot_semi, mut tot_full) = (0usize, 0usize, 0usize, 0usize);
    for stg in small_set() {
        let engine = Engine::new(&stg).cap(1_000_000);
        let syn_like = engine
            .synthesize_state_based(BaselineFlavor::ExcitationExact)
            .expect("baseline");
        let fcg_like = engine
            .synthesize_state_based(BaselineFlavor::ComplexGateExact)
            .expect("baseline");
        let semi = synthesize(
            &stg,
            &SynthesisOptions {
                architecture: Architecture::ExcitationFunction,
                stages: MinimizeStages::stage(2), // no backward expansion / collapse
                ..Default::default()
            },
        )
        .expect("structural");
        let full = synthesize(
            &stg,
            &SynthesisOptions {
                architecture: Architecture::PerRegion,
                stages: MinimizeStages::full(),
                ..Default::default()
            },
        )
        .expect("structural");
        let mapped = map_circuit(&full.circuit);
        println!(
            "{:<12} {:>4} {:>4} {:>7} | {:>8} {:>8} | {:>9} {:>9} {:>7}",
            stg.name(),
            stg.net().place_count(),
            stg.net().transition_count(),
            marking_count(&stg, 1_000_000),
            syn_like.literal_area,
            fcg_like.literal_area,
            semi.literal_area,
            full.literal_area,
            mapped.area,
        );
        tot_syn += syn_like.literal_area;
        tot_fcg += fcg_like.literal_area;
        tot_semi += semi.literal_area;
        tot_full += full.literal_area;
    }
    si_bench::rule(&header);
    println!(
        "{:<12} {:>4} {:>4} {:>7} | {:>8} {:>8} | {:>9} {:>9}",
        "TOTAL", "", "", "", tot_syn, tot_fcg, tot_semi, tot_full
    );
    let imp_semi = 100.0 * (tot_syn as f64 - tot_semi as f64) / tot_syn as f64;
    let imp_full = 100.0 * (tot_syn as f64 - tot_full as f64) / tot_syn as f64;
    println!("\nimprovement of S3C over the SYN-like baseline:");
    println!("  semi-optimized: {imp_semi:.1} %   (paper: ~15 %)");
    println!("  fully minimized: {imp_full:.1} %  (paper: ~23 %)");
}
