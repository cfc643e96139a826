//! The `--quick` programs and Figure-7 builds the release-only sweeps
//! in this directory run over.

// Each test crate that includes this module uses part of it.
#![allow(dead_code)]

use khaos_ir::Module;

/// The `--quick` programs: the trimmed T-I, T-II and T-III suites and the
/// Figure-9 programs.
pub fn quick_programs() -> Vec<Module> {
    let mut t1 = khaos_workloads::spec2006();
    t1.extend(khaos_workloads::spec2017());
    let fig9 = ["400.perlbench", "401.bzip2", "429.mcf", "445.gobmk"];
    let mut programs: Vec<Module> = t1.iter().take(6).cloned().collect();
    for m in t1.into_iter().filter(|m| fig9.contains(&m.name.as_str())) {
        if !programs.iter().any(|p| p.name == m.name) {
            programs.push(m);
        }
    }
    programs.extend(khaos_workloads::coreutils().into_iter().take(8));
    programs.extend(khaos_workloads::tiii().into_iter().take(2));
    programs
}

/// The obfuscation atoms of Figure 7's nine configurations.
pub const FIG7_ATOMS: [&str; 9] = [
    "sub",
    "bog",
    "fla",
    "fla(ratio=0.1)",
    "fission",
    "fusion",
    "fufi_sep",
    "fufi_ori",
    "fufi_all",
];

/// Runs the pipeline `spec` over `m`.
pub fn run(spec: &str, m: &mut Module) {
    let pipeline = khaos_pass::Pipeline::parse(spec).expect("spec parses");
    let mut ctx = khaos_pass::PassCtx::new(0xC60_2023);
    pipeline
        .run(m, &mut ctx)
        .unwrap_or_else(|e| panic!("{spec} on {}: {e}", m.name));
}

/// Calls `visit(label, module)` on every `--quick` program raw, built
/// `O2+lto`, and after each Figure-7 atom both before and after the
/// closing `O2+lto`.
pub fn for_each_build(mut visit: impl FnMut(&str, &Module)) {
    for src in quick_programs() {
        visit(&format!("{}/raw", src.name), &src);
        let mut base = src.clone();
        run("O2+lto", &mut base);
        visit(&format!("{}/O2+lto", src.name), &base);
        for atom in FIG7_ATOMS {
            let mut obf = base.clone();
            run(atom, &mut obf);
            visit(&format!("{}/{atom}", src.name), &obf);
            run("O2+lto", &mut obf);
            visit(&format!("{}/{atom} | O2+lto", src.name), &obf);
        }
    }
}
