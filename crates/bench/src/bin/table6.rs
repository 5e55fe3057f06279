//! Table VI: CPU time, structural vs state-based (SIS / ASSASSIN
//! stand-ins), on STGs with large reachability graphs.
//!
//! Reproduction target: the structural time stays roughly flat in |RG|
//! while the state-based flows blow up and eventually exceed the state cap
//! ("mem-out"), with the crossover at small sizes.

use si_bench::{fmt_duration, time};
use si_core::{synthesize, BaselineFlavor, Engine, SynthesisOptions};

fn main() {
    let header = format!(
        "{:<14} {:>6} {:>10} | {:>12} {:>12} {:>12}",
        "benchmark", "|P|+|T|", "|M|", "structural", "SIS-like", "ASSASSIN-like"
    );
    println!("{header}");
    si_bench::rule(&header);

    let cases: Vec<si_stg::Stg> = vec![
        si_stg::generators::clatch(6),
        si_stg::generators::clatch(10),
        si_stg::generators::clatch(13),
        si_stg::generators::clatch(18),
        si_stg::generators::burst(6),
        si_stg::generators::muller_pipeline(10),
        si_stg::generators::muller_pipeline(16),
    ];
    // The state-based flows get a 100k-marking budget: past it the
    // explicit flow is reported as "mem-out", which is how the paper's
    // Table VI reports SIS/ASSASSIN on the large entries.
    const CAP: usize = 100_000;
    for stg in cases {
        let (structural, t_structural) = time(|| synthesize(&stg, &SynthesisOptions::default()));
        structural.expect("structural flow");
        // A fresh session per flavor: each time includes its graph build.
        let baseline = |flavor| Engine::new(&stg).cap(CAP).synthesize_state_based(flavor);
        let (sis, t_sis) = time(|| baseline(BaselineFlavor::ComplexGateExact));
        let (assassin, t_assassin) = time(|| baseline(BaselineFlavor::ExcitationExact));
        let fmt = |r: &Result<si_core::BaselineSynthesis, si_core::BaselineError>,
                   t: std::time::Duration| match r {
            Ok(_) => fmt_duration(t),
            Err(si_core::BaselineError::StateExplosion(_)) => "mem-out".to_string(),
            Err(e) => format!("{e}"),
        };
        println!(
            "{:<14} {:>6} {:>10} | {:>12} {:>12} {:>12}",
            stg.name(),
            stg.net().place_count() + stg.net().transition_count(),
            si_bench::marking_count(&stg, CAP),
            fmt_duration(t_structural),
            fmt(&sis, t_sis),
            fmt(&assassin, t_assassin),
        );
    }
}
