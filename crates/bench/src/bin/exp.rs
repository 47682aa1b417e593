//! Experiment runner: regenerates every table of the evaluation.
//!
//! Usage:
//! ```text
//! cargo run --release -p idaa-bench --bin exp -- e3      # one experiment
//! cargo run --release -p idaa-bench --bin exp -- all     # the whole suite
//! ```
//! The experiment ids and what they measure are indexed in DESIGN.md;
//! recorded outputs live in EXPERIMENTS.md.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        let experiments = idaa_bench::experiments::EXPERIMENTS;
        let last = experiments.last().map_or("e1", |(id, _, _)| id);
        eprintln!("usage: exp <e1..{last}|all> [more ids...]");
        for (id, title, _) in experiments {
            eprintln!("  {:<4}{title}", id.to_ascii_uppercase());
        }
        std::process::exit(2);
    }
    for id in &args {
        if !idaa_bench::experiments::run(id) {
            eprintln!("unknown experiment id: {id}");
            std::process::exit(2);
        }
        println!();
    }
}
