//! Interference sweep: a scaled-down Fig. 3 grid plus the §IV-C
//! interrupt analysis (the committed `scenarios/section4c.hiss`).
//!
//! Shows how each CPU application suffers under each GPU SSR generator
//! and, symmetrically, how CPU work delays the accelerator. Runs a 5 × 3
//! in-memory `.hiss` pack so it finishes in seconds; the full 13 × 6 grid
//! is `scenarios/fig3.hiss` (`hiss-cli figures`).
//!
//! ```text
//! cargo run --release --example interference_sweep -p hiss-scenario
//! ```

use hiss_scenario::{figures, Scenario};

const PACK: &str = r#"
[scenario]
name = "interference-sweep"
[workload]
cpu = ["blackscholes", "fluidanimate", "raytrace", "streamcluster", "x264"]
gpu = ["bfs", "sssp", "ubench"]
"#;

fn main() {
    let sc = Scenario::from_str(PACK).expect("example pack parses");
    let rows = hiss_scenario::run(&sc, false);

    println!("Fig. 3a — CPU application performance under GPU SSRs");
    println!("(normalised to the same pairing without SSRs; lower = more interference)\n");
    println!("{}", figures::fig3_grid(&rows, |r| r.cpu_perf));

    println!("Fig. 3b — GPU performance while CPU applications run");
    println!("(normalised to the GPU with idle CPUs)\n");
    println!("{}", figures::fig3_grid(&rows, |r| Some(r.gpu_perf)));

    let s = figures::fig3_summary(&rows);
    println!(
        "worst CPU loss under ubench : {:.1}%  (paper: up to 44%)",
        (1.0 - s.worst_cpu_ubench) * 100.0
    );
    println!(
        "mean  CPU loss under ubench : {:.1}%  (paper: 28% average)",
        (1.0 - s.mean_cpu_ubench) * 100.0
    );
    println!(
        "worst GPU loss from CPU work: {:.1}%  (paper: up to 18%)",
        (1.0 - s.worst_gpu) * 100.0
    );
    println!();

    println!("§IV-C — sources of SSR overhead\n");
    let s4c =
        Scenario::from_str(include_str!("../scenarios/section4c.hiss")).expect("section4c parses");
    let analysis = figures::section4c(&figures::run_pairs(&s4c, false))
        .expect("section4c.hiss has a default ubench cell");
    println!("{}", figures::render_section4c(&analysis));
}
