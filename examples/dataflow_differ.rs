//! The arms race, one move further — the paper's §5 closes with a
//! prediction: *"we predict the potential of data flow representation can
//! be further tapped."* This example plays that move.
//!
//! A defender obfuscates a T-III program with Khaos FuFi.all. Five
//! attacker tools then try to re-identify functions in the shipped
//! binary: the paper's four function-level tools and `DataFlowDiff`, the
//! data-flow-representation tool built from the §5 outlook. The same
//! matchup is repeated on a *stripped* binary — the realistic firmware
//! case where BinDiff loses its symbol-name anchor.
//!
//! ```sh
//! cargo run --release --example dataflow_differ
//! ```

use khaos::binary::lower_module;
use khaos::diff::{extended_differs, precision_at_1};
use khaos::pass::{PassCtx, Pipeline};
use khaos::workloads;

fn main() {
    // The attacker's reference: the open-source library at O2+LTO.
    let mut reference = workloads::tiii().swap_remove(3); // openssl stand-in
    println!(
        "program: {} ({} functions)",
        reference.name,
        reference.functions.len()
    );
    Pipeline::parse("O2+lto")
        .unwrap()
        .run(&mut reference, &mut PassCtx::new(0xC60))
        .expect("baseline build");
    let reference_bin = lower_module(&reference);

    // The defender's shipped binary: Khaos FuFi.all + rest of pipeline.
    let pipeline = Pipeline::parse("fufi_all | O2+lto").expect("spec parses");
    let mut shipped = reference.clone();
    let mut ctx = PassCtx::new(0xC60);
    pipeline.run(&mut shipped, &mut ctx).expect("obfuscation");
    let shipped_bin = lower_module(&shipped).with_build_provenance(pipeline.fingerprint());
    let mut stripped_bin = shipped_bin.clone();
    stripped_bin.strip();

    println!(
        "shipped build: {} functions ({} sepFuncs, {} fusFuncs)\n",
        shipped.functions.len(),
        ctx.fission_stats.sep_funcs,
        ctx.fusion_stats.fus_funcs,
    );

    println!(
        "{:<14} {:>16} {:>16}",
        "tool", "P@1 (unstripped)", "P@1 (stripped)"
    );
    for tool in extended_differs() {
        let p = precision_at_1(tool.as_ref(), &reference_bin, &shipped_bin);
        let ps = precision_at_1(tool.as_ref(), &reference_bin, &stripped_bin);
        println!("{:<14} {:>16.3} {:>16.3}", tool.name(), p, ps);
    }

    println!("\nreading the board:");
    println!(" * every tool drops hard against the un-obfuscated self-match of 1.0");
    println!(" * BinDiff leans on symbol names — the stripped column removes them");
    println!(" * DataFlowDiff carries no symbol or call-graph reliance, so its two");
    println!("   columns are identical: the def-use signal is all it ever had");
}
