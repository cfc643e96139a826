//! Per-program runtime overhead report — a narrow slice of Figure 6 you
//! can eyeball in seconds, including the negative-overhead cases the
//! paper highlights (thinned remFuncs getting inlined).
//!
//! Every build goes through a `khaos-pass` pipeline: the baseline is
//! the `O2+lto` macro-pass, and each Khaos column is the mode's atom
//! followed by the rest of the compiler pipeline.
//!
//! ```sh
//! cargo run --release --example overhead_report
//! ```

use khaos::pass::{PassCtx, Pipeline};
use khaos::vm::{run_with_config, RunConfig};
use khaos::workloads;

fn cycles(m: &khaos_ir::Module) -> u64 {
    let cfg = RunConfig {
        inputs: vec![3, 7, 11],
        ..RunConfig::default()
    };
    run_with_config(m, cfg).expect("program runs").cycles
}

const MODES: [&str; 5] = ["fission", "fusion", "fufi_sep", "fufi_ori", "fufi_all"];

fn main() {
    println!(
        "{:<20} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "program", "base cycles", "Fission", "Fusion", "FuFi.sep", "FuFi.ori", "FuFi.all"
    );
    let baseline = Pipeline::parse("O2+lto").unwrap();
    for mut program in workloads::spec2006().into_iter().take(8) {
        baseline
            .run(&mut program, &mut PassCtx::new(0xC60))
            .expect("baseline build");
        let base = cycles(&program);
        print!("{:<20} {:>12}", program.name, base);
        for atom in MODES {
            let mut m = program.clone();
            Pipeline::parse(&format!("{atom} | O2+lto"))
                .unwrap()
                .run(&mut m, &mut PassCtx::new(0xC60))
                .expect("khaos build");
            let oh = (cycles(&m) as f64 / base as f64 - 1.0) * 100.0;
            print!(" {oh:>8.1}%");
        }
        println!();
    }
    println!("\nNegative numbers are real: fission thins a function below the");
    println!("inlining threshold and the call disappears entirely (paper 4.1).");
}
