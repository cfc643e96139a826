//! # khaos-workloads — synthetic benchmark suites
//!
//! Seeded generators producing KIR programs that stand in for the paper's
//! test suites:
//!
//! * **T-I** — [`spec2006`] (19 programs) and [`spec2017`] (28 programs),
//!   named after the C/C++ SPEC CPU benchmarks of Figure 6, each with a
//!   size/shape profile matching its real counterpart's character
//!   (`gcc`-alikes are big and branchy, `lbm`-alikes are small and
//!   loop-hot, `povray`-alikes are float-heavy…);
//! * **T-II** — [`coreutils`]: 108 small utility programs;
//! * **T-III** — [`tiii`]: five vulnerable-program stand-ins whose
//!   functions carry the names from the paper's Table 3, annotated
//!   `"vulnerable"` for the escape@k experiment.
//!
//! Every program is fully deterministic, terminates quickly under the VM,
//! and exercises the features the obfuscator must handle: loops, cold
//! paths, multiple returns, arrays, globals, direct/indirect/recursive
//! calls, C++-style exception edges, `setjmp`/`longjmp` and a variadic
//! `printf`.

mod generator;
mod suites;

pub use generator::{generate, ProgramProfile};
pub use suites::{coreutils, coreutils_program, spec2006, spec2017, tiii, TIII_CVES};

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_vm::run_to_completion;

    #[test]
    fn suite_sizes_match_paper() {
        assert_eq!(spec2006().len(), 19);
        assert_eq!(spec2017().len(), 28);
        assert_eq!(coreutils().len(), 108);
        assert_eq!(tiii().len(), 5);
    }

    #[test]
    fn all_tiii_vulnerable_functions_present() {
        let programs = tiii();
        let mut found = 0;
        for (prog, funcs) in TIII_CVES {
            let module = programs
                .iter()
                .find(|m| m.name == *prog)
                .unwrap_or_else(|| panic!("program {prog} missing"));
            for (fname, _cve) in *funcs {
                let (_, f) = module
                    .function_by_name(fname)
                    .unwrap_or_else(|| panic!("{prog}: function {fname} missing"));
                assert!(
                    f.has_annotation("vulnerable"),
                    "{prog}:{fname} must be marked"
                );
                found += 1;
            }
        }
        assert_eq!(found, 14, "Table 3 lists 14 vulnerable functions");
    }

    #[test]
    fn a_spec_program_verifies_and_runs() {
        let m = &spec2006()[3]; // 429.mcf — mid-size
        khaos_ir::verify::assert_valid(m);
        let r = run_to_completion(m, &[]).expect("program runs");
        assert!(!r.output.is_empty(), "programs print observable output");
        assert!(r.steps > 1_000, "non-trivial execution");
    }

    #[test]
    fn coreutils_programs_are_small_and_runnable() {
        let m = coreutils_program("cat", 3);
        khaos_ir::verify::assert_valid(&m);
        assert!(m.functions.len() <= 24);
        let r = run_to_completion(&m, &[]).expect("runs");
        assert!(!r.output.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = coreutils_program("ls", 1);
        let b = coreutils_program("ls", 1);
        assert_eq!(a, b);
        let r1 = run_to_completion(&a, &[]).unwrap();
        let r2 = run_to_completion(&b, &[]).unwrap();
        assert_eq!(r1.output, r2.output);
        assert_eq!(r1.cycles, r2.cycles);
    }
}
