//! Compares the four network architectures of the paper's Fig. 2(f) —
//! multi-hop vs. one-hop, with and without renewable energy — under
//! common random numbers, and prints both absolute and normalized costs.
//!
//! ```text
//! cargo run --release --example architecture_comparison [seed]
//! ```

use greencell::sim::{experiments, Architecture, Scenario, SweepOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(42);

    let base = Scenario::fig2f_calibrated(seed);
    let v_values = [1e5, 3e5, 5e5];

    println!("=== architecture comparison (seed {seed}) ===");
    println!(
        "calibration: batteries start full; η = {:.0e} W/Hz (see EXPERIMENTS.md)",
        base.noise_density
    );
    println!();

    let (rows, _) = experiments::fig2f(&base, &v_values, &SweepOptions::serial())?;
    let ours_avg: f64 = rows[0].costs.iter().sum::<f64>() / rows[0].costs.len() as f64;

    println!(
        "{:<42} {:>12} {:>12} {:>12} {:>10}",
        "architecture", "V=1e5", "V=3e5", "V=5e5", "vs ours"
    );
    for row in &rows {
        let avg: f64 = row.costs.iter().sum::<f64>() / row.costs.len() as f64;
        println!(
            "{:<42} {:>12.6} {:>12.6} {:>12.6} {:>9.2}x",
            row.architecture.to_string(),
            row.costs[0],
            row.costs[1],
            row.costs[2],
            if ours_avg > 0.0 {
                avg / ours_avg
            } else {
                f64::NAN
            },
        );
    }

    println!();
    let renewable_saves = rows[1].costs[0] > rows[0].costs[0];
    let multihop_saves = rows[3].costs[0] > rows[2].costs[0];
    println!("renewables reduce cost (ours vs multi-hop w/o RE): {renewable_saves}");
    println!("relaying reduces cost  (one-hop w/ RE vs ours; one-hop w/o RE vs multi-hop w/o RE): {multihop_saves}");
    let _ = Architecture::ALL; // exercised above via experiments::fig2f
    Ok(())
}
