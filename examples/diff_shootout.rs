//! Head-to-head of the five diffing techniques against every obfuscation
//! configuration on one SPEC-alike program — a single-program slice of
//! the paper's Figure 8.
//!
//! ```sh
//! cargo run --release --example diff_shootout
//! ```

use khaos::binary::lower_module;
use khaos::diff::{
    binary_similarity, deepbindiff_precision_at_1, precision_at_1, Asm2Vec, BinDiff, DeepBinDiff,
    Safe, VulSeeker,
};
use khaos::pass::{PassCtx, Pipeline};
use khaos::workloads;

/// The eight obfuscated configurations: paper legend name → the build
/// pipeline applied on top of the optimized baseline.
const CONFIGS: [(&str, &str); 8] = [
    ("Sub", "sub | O2+lto"),
    ("Bog", "bog | O2+lto"),
    ("Fla-10", "fla(ratio=0.1) | O2+lto"),
    ("Fission", "fission | O2+lto"),
    ("Fusion", "fusion | O2+lto"),
    ("FuFi.sep", "fufi_sep | O2+lto"),
    ("FuFi.ori", "fufi_ori | O2+lto"),
    ("FuFi.all", "fufi_all | O2+lto"),
];

fn main() {
    let mut base = workloads::spec2006().swap_remove(3); // 429.mcf stand-in
    Pipeline::parse("O2+lto")
        .unwrap()
        .run(&mut base, &mut PassCtx::new(0xC60))
        .expect("baseline build");
    let base_bin = lower_module(&base);
    println!(
        "program: {} ({} functions)\n",
        base.name,
        base.functions.len()
    );

    println!(
        "{:<10} {:>9} {:>11} {:>9} {:>7} {:>13}",
        "config", "BinDiff", "VulSeeker", "Asm2Vec", "SAFE", "DeepBinDiff"
    );

    for (name, spec) in CONFIGS {
        let pipeline = Pipeline::parse(spec).expect("spec parses");
        let mut module = base.clone();
        pipeline
            .run(&mut module, &mut PassCtx::new(0xC60))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let obf_bin = lower_module(&module).with_build_provenance(pipeline.fingerprint());
        println!(
            "{:<10} {:>9.3} {:>11.3} {:>9.3} {:>7.3} {:>13.3}",
            name,
            binary_similarity(&BinDiff::default(), &base_bin, &obf_bin),
            precision_at_1(&VulSeeker::default(), &base_bin, &obf_bin),
            precision_at_1(&Asm2Vec::default(), &base_bin, &obf_bin),
            precision_at_1(&Safe::default(), &base_bin, &obf_bin),
            deepbindiff_precision_at_1(&DeepBinDiff::default(), &base_bin, &obf_bin),
        );
    }
    println!("\nLower is better for the defender. Khaos rows sit below the");
    println!("O-LLVM rows for the learning-based tools; BinDiff stays high");
    println!("because un-stripped symbol names anchor its matches (paper 4.2).");
}
