//! Device characterization walkthrough: regenerates Table 1 and the
//! loaded-latency / tail-latency views of §3 for all simulated devices.
//!
//! ```sh
//! cargo run --release --example device_characterization
//! ```

use melody::experiments::{device_curves, table1, tails, Scale};
use melody::prelude::*;

fn main() {
    let scale = Scale::Smoke;
    // Figures 3a and 5 share their read-only sweeps through one journal.
    let mut journal = Journal::in_memory();

    // Table 1: idle latency + peak bandwidth, local and remote.
    let t1 = table1::run(scale);
    println!("{}", t1.render());

    // Figure 3a: loaded latency vs bandwidth per device.
    let f3a = device_curves::fig03a(scale, &mut journal);
    println!("== fig3a: loaded latency at low/medium/saturated load ==");
    for curve in &f3a.curves {
        let first = curve.points.first().expect("points");
        let mid = curve.points[curve.points.len() / 2];
        let last = curve.points.last().expect("points");
        println!(
            "{:10}  idle ~{:>4.0} ns @ {:>5.1} GB/s   mid {:>5.0} ns @ {:>5.1} GB/s   saturated {:>6.0} ns @ {:>5.1} GB/s",
            curve.name, first.1, first.0, mid.1, mid.0, last.1, last.0
        );
    }

    // Figure 5: peak bandwidth per read/write ratio — full-duplex ASICs
    // peak under mixed traffic, the FPGA and local DDR peak read-only.
    println!("\n== fig5: peak total bandwidth by R:W ratio ==");
    for panel in device_curves::fig05(scale, &mut journal) {
        let peaks: Vec<String> = panel
            .peaks
            .iter()
            .map(|(r, bw)| format!("{r}={bw:.0}"))
            .collect();
        println!(
            "{:10}  best ratio {:>4}   [{}] GB/s",
            panel.device,
            device_curves::peak_ratio(&panel),
            peaks.join(" ")
        );
    }

    // Figure 3b: tail-latency gaps under co-located chase threads.
    println!("\n== fig3b: p99.9 - p50 gap (8 chase threads, prefetchers off) ==");
    let cells = tails::fig03b(scale);
    for c in cells.iter().filter(|c| c.threads == 8) {
        println!("{:10}  p50 {:>4} ns   gap {:>5} ns", c.config, c.p50, c.gap);
    }

    // A single probe through the public API, for orientation.
    let mut dev = presets::cxl_c().build(1);
    println!(
        "\nCXL-C idle latency probe: {:.0} ns (nominal {:.0} ns)",
        probe::idle_latency_ns(dev.as_mut(), 2_000),
        dev.nominal_latency_ns()
    );
}
