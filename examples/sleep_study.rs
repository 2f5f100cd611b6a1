//! Sleep and energy study (paper §IV-B, §V-E): how GPU SSRs destroy CPU
//! deep-sleep residency, and how much each mitigation recovers.
//!
//! Runs the committed `scenarios/fig4.hiss` (per-application CC6
//! residency on idle CPUs) and `scenarios/fig9.hiss` (residency across
//! mitigation combinations under ubench), then reads the energy model
//! off the Fig. 9 rows.
//!
//! ```text
//! cargo run --release --example sleep_study -p hiss-scenario
//! ```

use hiss::Mitigation;
use hiss_scenario::{figures, Scenario};

fn main() {
    let fig4 = Scenario::from_str(include_str!("../scenarios/fig4.hiss")).expect("fig4 parses");
    let fig9 = Scenario::from_str(include_str!("../scenarios/fig9.hiss")).expect("fig9 parses");

    println!("Fig. 4 — CC6 residency with and without SSRs (no CPU work)\n");
    println!(
        "{}",
        figures::render_fig4(&hiss_scenario::run(&fig4, false))
    );
    println!("Reading: bfs clusters faults early and lets the CPUs sleep");
    println!("afterwards; the streaming applications keep at least one core");
    println!("awake; ubench nearly eliminates sleep (paper: 86% -> 12%).\n");

    println!("Fig. 9 — mitigation techniques vs sleep (ubench)\n");
    let pairs = figures::run_pairs(&fig9, false);
    println!("{}", figures::render_fig9(&pairs));
    println!("Reading: steering confines the wake-ups to the steered core,");
    println!("letting the others sleep; coalescing alone still wakes every");
    println!("core (paper §V-E).\n");

    println!("Energy extension: average CPU power while ubench runs\n");
    let row = |m: Mitigation| {
        &pairs
            .iter()
            .find(|(c, _)| c.knobs.mitigation == m)
            .expect("fig9.hiss sweeps every combination")
            .1
    };
    let default = row(Mitigation::DEFAULT);
    let steered = row(Mitigation {
        steer_single_core: true,
        ..Mitigation::DEFAULT
    });
    for (label, r) in [
        ("no SSRs", &default.baseline),
        ("SSRs, default", &default.report),
        ("SSRs, steered", &steered.report),
    ] {
        println!(
            "  {label:>14}: {:5.2} W avg  (CC6 {:4.1}%)",
            r.energy.cpu_avg_watts,
            r.cc6_residency * 100.0
        );
    }
}
