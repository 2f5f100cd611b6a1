//! Accelerator-rich future projection (paper §I/§IV: "this problem may be
//! exacerbated as future chips include many such accelerators").
//!
//! Scales the number of concurrent SSR-generating accelerators and
//! measures CPU interference, sleep residency, and aggregate SSR traffic
//! (the committed `scenarios/scaling.hiss`, then the same axis against
//! ubench); then shows that the QoS governor keeps its guarantee even
//! with many accelerators attached.
//!
//! ```text
//! cargo run --release --example accelerator_scaling -p hiss-scenario
//! ```

use hiss_scenario::{figures, Scenario};

/// x264 against one to three copies of ubench.
const UBENCH: &str = r#"
[scenario]
name = "ubench-scaling"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
[sweep]
gpus = [1, 2, 3]
"#;

/// x264 against four copies of sssp, with the governor off and at th_2.
const GUARDED: &str = r#"
[scenario]
name = "guarded-scaling"
[workload]
cpu = ["x264"]
gpu = ["sssp"]
[system]
gpus = 4
[sweep]
qos_percent = [0, 2]
"#;

fn pairs(text: &str) -> Vec<(hiss_scenario::Cell, hiss_scenario::Row)> {
    figures::run_pairs(&Scenario::from_str(text).expect("pack parses"), false)
}

fn main() {
    println!("Multi-accelerator scaling: x264 vs N copies of sssp\n");
    let scaling = pairs(include_str!("../scenarios/scaling.hiss"));
    println!("{}", figures::render_scaling(&scaling));
    println!("Reading: every added accelerator steals more CPU time and");
    println!("sleep opportunity — the paper's motivation for treating SSR");
    println!("interference as a first-class QoS problem.\n");

    println!("The saturation effect: N copies of ubench\n");
    println!("{}", figures::render_scaling(&pairs(UBENCH)));
    println!("Reading: one ubench already saturates the SSR service chain,");
    println!("so additional copies mostly starve each other rather than");
    println!("adding CPU damage.\n");

    println!("QoS with four accelerators attached (th_2):\n");
    for ((_, r), label) in pairs(GUARDED).iter().zip(["unprotected", "th_2"]) {
        println!(
            "  {label:<11}: SSR overhead {:.1}%, runtime {}",
            r.report.gauge("run.cpu_ssr_overhead") * 100.0,
            r.report.cpu_app_runtime().expect("x264 finishes")
        );
    }
}
