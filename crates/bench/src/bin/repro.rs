//! `repro` — regenerate the paper's evaluation figures.
//!
//! Usage:
//! ```text
//! repro [stats|fig4a|fig4b|fig7|fig8|fig9|fig10|fig11|fig12|all] [--quick]
//! ```
//!
//! `--quick` shrinks scales and repetitions for a fast smoke run; the
//! default configuration produces the numbers recorded in `EXPERIMENTS.md`.

use relgo_bench::figures;
use relgo_bench::harness::BenchConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = if args.iter().any(|a| a == "--quick") {
        BenchConfig::quick()
    } else {
        BenchConfig::full()
    };
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    let run = |name: &str| -> bool { what == "all" || what == name };
    let mut ran_any = false;
    let mut failed: Vec<String> = Vec::new();

    let mut emit = |name: &str, f: &dyn Fn() -> relgo::common::Result<String>| {
        if run(name) {
            ran_any = true;
            match f() {
                Ok(s) => println!("{s}"),
                Err(e) => {
                    eprintln!("{name}: {e}");
                    failed.push(name.to_string());
                }
            }
        }
    };

    emit("stats", &|| figures::dataset_stats(&cfg));
    emit("fig4a", &|| figures::fig4a());
    emit("fig4b", &|| figures::fig4b(&cfg));
    emit("fig7", &|| figures::fig7(&cfg));
    emit("fig8", &|| figures::fig8(&cfg));
    emit("fig9", &|| figures::fig9(&cfg));
    emit("fig10", &|| figures::fig10(&cfg));
    emit("fig11", &|| figures::fig11(&cfg));
    emit("fig12", &|| figures::fig12(&cfg));

    if !ran_any {
        eprintln!(
            "unknown target '{what}'; expected one of: stats fig4a fig4b fig7 fig8 fig9 fig10 fig11 fig12 all"
        );
        std::process::exit(2);
    }
    // A figure that errors must fail the run, not just print to stderr.
    if !failed.is_empty() {
        eprintln!("failed figures: {}", failed.join(" "));
        std::process::exit(1);
    }
}
