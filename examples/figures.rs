//! Figure/table regeneration harness: prints the rows/series of any of
//! the paper's evaluation artefacts from the simulated testbed.
//!
//! ```sh
//! cargo run --release --example figures -- fig8a --scale quick
//! cargo run --release --example figures -- all --scale smoke
//! cargo run --release --example figures -- fig16 --json
//! cargo run --release --example figures -- all --scale quick --jobs 8
//! ```
//!
//! `--jobs N` sets the worker-thread count for the parallel experiment
//! engine (`--jobs 1` forces the legacy serial path; the default uses
//! all cores). Output is byte-identical for every worker count.
//!
//! `--telemetry metrics|trace` enables the instrumentation layer: a
//! metrics table is appended to stdout and a per-stage wall-clock
//! breakdown (where each figure's time went) is printed to stderr.
//!
//! `--json` prints each figure as one or more JSON values instead of
//! text.
//!
//! The population figures (fig8a–fig8c, fig8e, fig8f, fig9a, fig9a-full,
//! fig9b, fig11, fig12, fig14, fig15, predict) resolve their cells, and
//! fig1, fig3a and fig5 their MLC sweeps, against one in-memory journal,
//! so a cell or sweep two figures share simulates once per run.
//!
//! IDs: table1, fig1, fig3a, fig3b, fig3c, fig4, fig5, fig6, fig7,
//! fig8a, fig8b, fig8c, fig8d, fig8e, fig8f, fig9a, fig9a-full, fig9b,
//! fig11, fig12, fig14, fig15, fig16, placement, ablation, predict, all.
//! An unknown id or flag exits 2 listing them.

use melody::experiments::{
    ablation, device_curves, fig07, fig08cd, fig09b, fig16, grid, placement, predict, table1,
    tails, Scale,
};
use melody::journal::Journal;
use melody::report::{to_json, Series};
use melody_stats::ViolinSummary;

/// Every figure id the command line accepts.
const IDS: [&str; 27] = [
    "table1",
    "fig1",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig8d",
    "fig8e",
    "fig8f",
    "fig9a",
    "fig9a-full",
    "fig9b",
    "fig11",
    "fig12",
    "fig14",
    "fig15",
    "fig16",
    "placement",
    "ablation",
    "predict",
    "all",
];

fn parse_args() -> (Vec<String>, Scale, bool) {
    let mut ids = Vec::new();
    let mut scale = Scale::Smoke;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .as_deref()
                    .and_then(Scale::parse)
                    .unwrap_or_else(|| {
                        eprintln!("--scale expects smoke|quick|full");
                        std::process::exit(2);
                    });
            }
            "--json" => json = true,
            "--telemetry" => {
                let mode = args
                    .next()
                    .as_deref()
                    .and_then(melody_telemetry::Mode::parse)
                    .unwrap_or_else(|| {
                        eprintln!("--telemetry expects off|metrics|trace");
                        std::process::exit(2);
                    });
                melody_telemetry::set_mode(mode);
            }
            "--jobs" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--jobs expects a worker count");
                        std::process::exit(2);
                    });
                melody::exec::set_jobs(n);
            }
            id if IDS.contains(&id) => ids.push(id.to_string()),
            other => {
                let what = if other.starts_with('-') {
                    "flag"
                } else {
                    "figure id"
                };
                eprintln!(
                    "unknown {what} `{other}` (flags: --scale, --json, --telemetry, --jobs; ids: {})",
                    IDS.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    if ids.is_empty() {
        ids.push("all".into());
    }
    (ids, scale, json)
}

fn print_series(title: &str, series: &[Series]) {
    println!("== {title} ==");
    for s in series {
        println!("{}", s.render());
    }
    println!();
}

fn print_violins(title: &str, violins: &[(String, ViolinSummary)]) {
    println!("== {title} ==");
    for (label, v) in violins {
        println!(
            "{label:12} min {:>6.1} q1 {:>6.1} med {:>6.1} q3 {:>6.1} max {:>7.1}",
            v.min, v.q1, v.median, v.q3, v.max
        );
    }
    println!();
}

fn main() {
    let (ids, scale, json) = parse_args();
    let all = ids.iter().any(|i| i == "all");
    let want = |id: &str| all || ids.iter().any(|i| i == id);
    let mut journal = Journal::in_memory();

    if want("table1") {
        let t = table1::run(scale);
        if json {
            println!("{}", to_json(&t));
        } else {
            println!("{}", t.render());
        }
    }
    if want("fig1") {
        let c = device_curves::fig01(scale, &mut journal);
        if json {
            println!("{}", to_json(&c));
        } else {
            println!("{}", c.render());
        }
    }
    if want("fig3a") {
        let c = device_curves::fig03a(scale, &mut journal);
        if json {
            println!("{}", to_json(&c));
        } else {
            println!("{}", c.render());
        }
    }
    if want("fig3b") {
        let cells = tails::fig03b(scale);
        if json {
            println!("{}", to_json(&cells));
        } else {
            println!(
                "{}",
                tails::render_cells("fig3b: chase latency tails", &cells)
            );
        }
    }
    if want("fig3c") {
        let series = tails::fig03c(scale);
        if json {
            println!("{}", to_json(&series));
        } else {
            print_series("fig3c: (p99.9-p50) vs bandwidth %", &series);
        }
    }
    if want("fig4") {
        let cells = tails::fig04(scale);
        if json {
            println!("{}", to_json(&cells));
        } else {
            println!(
                "{}",
                tails::render_cells("fig4: latency under R/W noise", &cells)
            );
        }
    }
    if want("fig5") {
        let panels = device_curves::fig05(scale, &mut journal);
        if json {
            println!("{}", to_json(&panels));
        } else {
            for p in &panels {
                println!("== fig5 [{}] ==", p.device);
                for c in &p.curves {
                    println!("{}", c.render());
                }
            }
            println!();
        }
    }
    if want("fig6") {
        let cells = tails::fig06(scale);
        if json {
            println!("{}", to_json(&cells));
        } else {
            println!(
                "{}",
                tails::render_cells("fig6: chase latency, prefetchers ON", &cells)
            );
        }
    }
    if want("fig7") {
        let d = fig07::run(scale);
        if json {
            println!("{}", to_json(&d));
        } else {
            print_series(
                "fig7a: per-window max latency (µs) over time (s)",
                &d.latency_series,
            );
            println!("{}", d.bandwidth_series.render());
            println!("{}", d.render());
        }
    }
    if want("fig8a")
        || want("fig8b")
        || want("fig9a")
        || want("fig11")
        || want("fig12")
        || want("fig14")
        || want("fig15")
    {
        let g = grid::run_emr_grid(scale, &mut journal);
        if want("fig8a") {
            let s = g.fig8a();
            if json {
                println!("{}", to_json(&s));
            } else {
                print_series("fig8a: slowdown CDFs (slowdown %, fraction)", &s);
            }
        }
        if want("fig8b") {
            let s = g.fig8b();
            if json {
                println!("{}", to_json(&s));
            } else {
                print_series("fig8b: slowdown CDFs, p90 and above", &s);
            }
        }
        if want("fig9a") {
            let v = g.fig9a();
            if json {
                println!("{}", to_json(&v));
            } else {
                print_violins(
                    "fig9a: slowdown violins (EMR subset; see also spectrum grid)",
                    &v,
                );
            }
        }
        if want("fig11") {
            if !json {
                println!("== fig11: Spa estimator accuracy ==");
            }
            for label in ["EMR-NUMA", "EMR-CXL-A", "EMR-CXL-B"] {
                let r = g.fig11(label);
                if json {
                    println!("{}", to_json(&r));
                } else {
                    let (d, b, m) = r.within_pp(5.0);
                    println!(
                        "{label:10}  within 5pp: Δs {:>5.1}%  backend {:>5.1}%  memory {:>5.1}%",
                        d * 100.0,
                        b * 100.0,
                        m * 100.0
                    );
                }
            }
            if !json {
                println!();
            }
        }
        if want("fig12") {
            let shift = g.fig12a("EMR-CXL-B");
            if json {
                println!("{}", to_json(&shift));
            } else {
                println!("== fig12a: prefetch shift (CXL-B) ==");
                if let (Some(fit), Some(r)) = (shift.fit, shift.pearson) {
                    println!(
                        "fit slope {:.3} intercept {:.0} pearson {:.3}",
                        fit.slope, fit.intercept, r
                    );
                }
                println!("== fig12b: (workload, L2 slowdown %, coverage decrease pp) ==");
                for (w, l2, cov) in g.fig12b("EMR-CXL-B").iter().take(20) {
                    println!("{w:28} {l2:>6.1}% {cov:>6.1}pp");
                }
                println!();
            }
        }
        if want("fig14") {
            for label in ["EMR-NUMA", "EMR-CXL-A", "EMR-CXL-B"] {
                let t = g.fig14(label);
                if json {
                    println!("{}", to_json(&t));
                } else {
                    println!("{}", t.render());
                }
            }
        }
        if want("fig15") {
            let s = g.fig15("EMR-CXL-A");
            if json {
                println!("{}", to_json(&s));
            } else {
                print_series("fig15: breakdown component CDFs (CXL-A)", &s);
            }
        }
    }
    if want("fig8c") {
        let d = fig08cd::fig08c(scale, &mut journal);
        if json {
            println!("{}", to_json(&d));
        } else {
            print_series("fig8c: CXL+NUMA vs 2-hop NUMA vs CXL-A", &d.cdfs);
        }
    }
    if want("fig8d") {
        let d = fig08cd::fig08d(scale);
        if json {
            println!("{}", to_json(&d));
        } else {
            println!("== fig8d: 520.omnetpp latency CDFs & load scaling ==");
            for (label, sd) in &d.slowdowns {
                println!("{label:24} slowdown {sd:>6.1}%");
            }
            println!();
        }
    }
    if want("fig8e") {
        let g = grid::run_fig8e_grid(scale, &mut journal);
        let s = g.fig8a();
        if json {
            println!("{}", to_json(&s));
        } else {
            print_series("fig8e: SPR vs EMR slowdown CDFs", &s);
        }
    }
    if want("fig8f") {
        let d = fig08cd::fig08f(scale, &mut journal);
        if json {
            println!("{}", to_json(&d));
        } else {
            print_series("fig8f: NUMA vs CXL-D x1 vs x2 (SPEC)", &d.cdfs);
        }
    }
    if want("fig9a-full") {
        let v = grid::run_spectrum_grid(scale, &mut journal).fig9a();
        if json {
            println!("{}", to_json(&v));
        } else {
            print_violins("fig9a: full 11-setup latency spectrum", &v);
        }
    }
    if want("fig9b") {
        let d = fig09b::run(scale, &mut journal);
        if json {
            println!("{}", to_json(&d));
        } else {
            println!("{}", d.render());
        }
    }
    if want("fig16") {
        for panel in fig16::run(scale) {
            if json {
                println!("{}", to_json(&panel));
            } else {
                println!("{}", panel.render());
            }
        }
    }
    if want("ablation") {
        let t = ablation::tail_mechanisms(scale);
        if json {
            println!("{}", to_json(&t));
        } else {
            println!("{}", t.render());
        }
        let th = ablation::thermal(scale);
        if json {
            println!("{}", to_json(&th));
        } else {
            println!(
                "== ablation: thermal throttling == mean {:.0} -> {:.0} ns, p99.9 {} -> {} ns\n",
                th.mean_off_ns, th.mean_on_ns, th.p999_off_ns, th.p999_on_ns
            );
        }
        let dimm = ablation::dimm_fairness(scale);
        if json {
            println!("{}", to_json(&dimm));
        } else {
            println!("== ablation: DIMM-fairness control (p99.9-p50 ns) ==");
            for (label, gap) in &dimm {
                println!("  {label:10} {gap}");
            }
            println!();
        }
        let mlp = ablation::mlp_tolerance(scale);
        if json {
            println!("{}", to_json(&mlp));
        } else {
            println!("== ablation: MLP tolerance (LFB entries, CXL-A slowdown) ==");
            for (lfb, s) in &mlp.points {
                println!("  lfb {lfb:>3}  slowdown {:.1}%", s * 100.0);
            }
            println!();
        }
    }
    if want("predict") {
        let d = predict::run(scale, &mut journal);
        if json {
            println!("{}", to_json(&d));
        } else {
            println!("{}", d.render());
        }
    }
    if want("placement") {
        let d = placement::run(scale);
        if json {
            println!("{}", to_json(&d));
        } else {
            println!(
                "== §5.7 placement: {} {:.1}% -> {:.1}% ({} bursty periods) ==\n",
                d.workload,
                d.baseline_slowdown * 100.0,
                d.tuned_slowdown * 100.0,
                d.bursty_periods
            );
        }
    }

    // With telemetry enabled, append the aggregated metrics to stdout
    // and the per-stage wall-clock breakdown to stderr (host timings are
    // nondeterministic, so they never mix into comparable output).
    if melody_telemetry::metrics_on() {
        let c = melody_telemetry::collect();
        let metrics = c.metrics.render();
        if !metrics.is_empty() {
            println!("{metrics}");
        }
        let profile = c.profile.render();
        if !profile.is_empty() {
            eprintln!("{profile}");
        }
    }
}
