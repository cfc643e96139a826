//! The data arena is committed on demand, and every access must return
//! what the eager, zero-filled arena it replaced returns: the same
//! values, the same bytes, the same bounds and trap messages. Each case
//! runs one script of accesses on both arenas and compares the logs:
//! never-written heap and stack bytes, a store straddling the boundary
//! between the lower (globals and heap) and the stack region, `memset`
//! and `memcpy` over committed and uncommitted bytes and across that
//! boundary, a string running into uncommitted bytes, and the last byte
//! of the arena. Globals that do not fit in the arena trap before the
//! first step instead of panicking, and globals that fit run as before.

// The reference names this crate's public items by `crate::` paths;
// these imports make the same paths resolve at this test's root.
use khaos_vm::{Value, FUNC_SPACE_BASE, FUNC_SPACE_STRIDE};

#[path = "../src/memory/reference.rs"]
mod reference;

use khaos_ir::builder::FunctionBuilder;
use khaos_ir::{GInit, Global, GlobalId, Module, Operand, Type};
use khaos_vm::{run_with_config, Memory, RunConfig, Vm, VmError};
use reference::EagerMemory;

/// First mapped data address.
const DATA_BASE: u64 = 0x1000;
/// The arena the scripts run in: 64 KiB, so the stack region starts at
/// `DATA_BASE + 32 KiB` and the arena ends at `DATA_BASE + 64 KiB`.
const SIZE: usize = 1 << 16;
const LIMIT: u64 = DATA_BASE + SIZE as u64;

type Fault = (u64, String);

/// The accesses a script makes, on either arena.
trait Arena {
    fn read(&self, addr: u64, ty: Type) -> Result<Value, Fault>;
    fn write(&mut self, addr: u64, ty: Type, v: Value) -> Result<(), Fault>;
    fn copy(&mut self, dst: u64, src: u64, n: u64) -> Result<(), Fault>;
    fn fill(&mut self, dst: u64, byte: u8, n: u64) -> Result<(), Fault>;
    fn read_cstr(&self, addr: u64) -> Result<Vec<u8>, Fault>;
    fn heap_alloc(&mut self, n: u64) -> Result<u64, Fault>;
    fn stack_alloc(&mut self, size: u32, align: u32) -> Result<u64, Fault>;
    fn global_addr(&self, g: GlobalId) -> u64;
}

macro_rules! arena {
    ($t:ty) => {
        impl Arena for $t {
            fn read(&self, addr: u64, ty: Type) -> Result<Value, Fault> {
                <$t>::read(self, addr, ty).map_err(|e| (e.addr, e.message))
            }
            fn write(&mut self, addr: u64, ty: Type, v: Value) -> Result<(), Fault> {
                <$t>::write(self, addr, ty, v).map_err(|e| (e.addr, e.message))
            }
            fn copy(&mut self, dst: u64, src: u64, n: u64) -> Result<(), Fault> {
                <$t>::copy(self, dst, src, n).map_err(|e| (e.addr, e.message))
            }
            fn fill(&mut self, dst: u64, byte: u8, n: u64) -> Result<(), Fault> {
                <$t>::fill(self, dst, byte, n).map_err(|e| (e.addr, e.message))
            }
            fn read_cstr(&self, addr: u64) -> Result<Vec<u8>, Fault> {
                <$t>::read_cstr(self, addr).map_err(|e| (e.addr, e.message))
            }
            fn heap_alloc(&mut self, n: u64) -> Result<u64, Fault> {
                <$t>::heap_alloc(self, n).map_err(|e| (e.addr, e.message))
            }
            fn stack_alloc(&mut self, size: u32, align: u32) -> Result<u64, Fault> {
                <$t>::stack_alloc(self, size, align).map_err(|e| (e.addr, e.message))
            }
            fn global_addr(&self, g: GlobalId) -> u64 {
                <$t>::global_addr(self, g)
            }
        }
    };
}
arena!(Memory);
arena!(EagerMemory);

/// A module with a string, a word and a function-pointer relocation.
fn module() -> Module {
    let mut m = Module::new("m");
    let mut f = FunctionBuilder::new("f", Type::Void);
    f.ret(None);
    let f = m.push_function(f.finish());
    m.push_global(Global {
        name: "s".into(),
        init: vec![GInit::Bytes(b"hello\0".to_vec())],
        align: 1,
        exported: false,
    });
    m.push_global(Global {
        name: "t".into(),
        init: vec![
            GInit::Int {
                value: -2,
                ty: Type::I32,
            },
            GInit::Zero(3),
            GInit::FuncPtr { func: f, addend: 4 },
        ],
        align: 8,
        exported: false,
    });
    m
}

/// Runs `script` on the on-demand and the eager arena over [`module`]
/// and asserts the two logs are equal. The script gets the stack
/// region's base.
fn same(script: impl Fn(&mut dyn Arena, u64, &mut Vec<String>)) {
    let m = module();
    let mut lazy = Memory::new(&m, SIZE);
    let stack_base = lazy.stack_mark();
    let mut eager = EagerMemory::new(&m, SIZE);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    script(&mut lazy, stack_base, &mut got);
    script(&mut eager, stack_base, &mut want);
    assert!(!want.is_empty(), "the script logged nothing");
    assert_eq!(got, want);
}

/// Logs the bytes `[addr, addr + n)`, one read each.
fn dump(a: &dyn Arena, addr: u64, n: u64, log: &mut Vec<String>) {
    for i in 0..n {
        log.push(format!("{:#x}: {:?}", addr + i, a.read(addr + i, Type::I8)));
    }
}

#[test]
fn never_written_heap_gap_and_stack_top_bytes_read_zero() {
    same(|a, stack_base, log| {
        let h = a.heap_alloc(64).expect("heap");
        let s = a.stack_alloc(64, 16).expect("stack");
        for at in [h, h + 32, stack_base - 8, s, s + 56, LIMIT - 8] {
            for ty in [Type::I8, Type::I32, Type::I64, Type::F32, Type::F64] {
                log.push(format!("{at:#x} {ty}: {:?}", a.read(at, ty)));
            }
        }
        for g in [GlobalId(0), GlobalId(1)] {
            dump(a, a.global_addr(g), 16, log);
        }
    });
}

#[test]
fn an_eight_byte_store_straddling_the_stack_base_round_trips() {
    same(|a, stack_base, log| {
        for at in (stack_base - 7)..stack_base {
            log.push(format!(
                "{:?}",
                a.write(at, Type::I64, Value::Int(0x0102_0304_0506_0708))
            ));
            log.push(format!("{:?}", a.read(at, Type::I64)));
            log.push(format!("{:?}", a.read(at, Type::F64)));
            dump(a, at - 1, 10, log);
            log.push(format!("{:?}", a.write(at, Type::F32, Value::Float(-1.5))));
            log.push(format!("{:?}", a.read(at, Type::F32)));
        }
    });
}

#[test]
fn memset_and_memcpy_over_committed_uncommitted_and_straddling_bytes() {
    same(|a, stack_base, log| {
        let s = a.global_addr(GlobalId(0));
        // Global bytes (committed) into the never-written heap gap, then
        // across the boundary and into the never-written stack top.
        for dst in [stack_base - 200, stack_base - 3, LIMIT - 6] {
            log.push(format!("{:?}", a.copy(dst, s, 6)));
            dump(a, dst - 2, 10, log);
        }
        // A fill over both regions, a zero fill over committed and
        // uncommitted bytes, and a fill of uncommitted stack bytes.
        log.push(format!("{:?}", a.fill(stack_base - 40, 0xab, 80)));
        log.push(format!("{:?}", a.fill(stack_base - 8, 0, 4000)));
        log.push(format!("{:?}", a.fill(LIMIT - 100, 7, 50)));
        dump(a, stack_base - 48, 96, log);
        dump(a, LIMIT - 104, 104, log);
        // Copies out of the straddling bytes, overlapping moves within a
        // region and across the boundary, and a copy of never-written
        // bytes over written ones.
        log.push(format!(
            "{:?}",
            a.copy(stack_base + 500, stack_base - 40, 80)
        ));
        log.push(format!(
            "{:?}",
            a.copy(stack_base - 30, stack_base - 40, 60)
        ));
        log.push(format!("{:?}", a.copy(LIMIT - 98, LIMIT - 100, 50)));
        log.push(format!(
            "{:?}",
            a.copy(stack_base - 40, stack_base + 9000, 20)
        ));
        dump(a, stack_base - 48, 96, log);
        dump(a, stack_base + 496, 88, log);
        dump(a, LIMIT - 104, 104, log);
    });
}

#[test]
fn read_cstr_stops_at_the_first_never_written_byte() {
    same(|a, stack_base, log| {
        log.push(format!("{:?}", a.read_cstr(a.global_addr(GlobalId(0)))));
        for (i, &b) in b"abc".iter().enumerate() {
            let at = stack_base - 3 + i as u64;
            log.push(format!("{:?}", a.write(at, Type::I8, Value::Int(b as i64))));
        }
        // Runs into the never-written stack region.
        log.push(format!("{:?}", a.read_cstr(stack_base - 3)));
        log.push(format!("{:?}", a.read_cstr(stack_base + 77)));
        // Runs into the end of the arena.
        log.push(format!("{:?}", a.fill(LIMIT - 5, b'z', 5)));
        log.push(format!("{:?}", a.read_cstr(LIMIT - 5)));
    });
}

#[test]
fn the_last_byte_is_accessible_and_the_limit_traps() {
    same(|a, _, log| {
        for (at, ty) in [
            (LIMIT - 1, Type::I8),
            (LIMIT, Type::I8),
            (LIMIT - 8, Type::I64),
            (LIMIT - 7, Type::I64),
            (DATA_BASE - 1, Type::I8),
            (DATA_BASE, Type::I64),
            (FUNC_SPACE_BASE + FUNC_SPACE_STRIDE, Type::I64),
            (0, Type::I32),
        ] {
            log.push(format!(
                "{at:#x} {ty} write: {:?}",
                a.write(at, ty, Value::Int(9))
            ));
            log.push(format!("{at:#x} {ty} read: {:?}", a.read(at, ty)));
        }
        log.push(format!("{:?}", a.fill(LIMIT - 4, 1, 4)));
        log.push(format!("{:?}", a.fill(LIMIT - 4, 1, 5)));
        log.push(format!("{:?}", a.copy(LIMIT - 4, DATA_BASE, 4)));
        log.push(format!("{:?}", a.copy(DATA_BASE, LIMIT - 4, 5)));
        log.push(format!("{:?}", a.read_cstr(LIMIT - 1)));
        log.push(format!("{:?}", a.read_cstr(LIMIT)));
    });
}

/// `main` returning the byte at `global + at` of the module's one global.
fn load_global_byte(init: Vec<GInit>, at: i64) -> Module {
    let mut m = Module::new("big");
    let g = m.push_global(Global {
        name: "g".into(),
        init,
        align: 8,
        exported: false,
    });
    let mut f = FunctionBuilder::new("main", Type::I64);
    let base = f.globaladdr(g);
    let p = f.ptradd(Operand::local(base), Operand::const_int(Type::I64, at));
    let b = f.load(Type::I8, Operand::local(p));
    f.ret(Some(Operand::local(b)));
    m.push_function(f.finish());
    m
}

#[test]
fn globals_past_the_arena_trap_before_the_first_step() {
    let m = load_global_byte(
        vec![
            GInit::Zero(5_000_000),
            GInit::Int {
                value: 1,
                ty: Type::I64,
            },
        ],
        0,
    );
    let want = "globals: global `g` does not fit in the 4194304-byte data arena at 0x4c5b40";
    let e = run_with_config(&m, RunConfig::default()).expect_err("the globals overflow");
    assert_eq!(e, VmError::Trap(want.into()));
    let (main, _) = m.function_by_name("main").expect("main");
    let e = Vm::new(&m, RunConfig::default())
        .run(main, &[])
        .expect_err("the globals overflow");
    assert_eq!(e, VmError::Trap(want.into()));
}

#[test]
fn globals_that_fit_run_as_before() {
    // Initialized bytes up to the arena's last byte.
    let config = RunConfig {
        data_size: 4096,
        ..RunConfig::default()
    };
    let m = load_global_byte(vec![GInit::Bytes(vec![0x2a; 4096])], 4095);
    let r = run_with_config(&m, config.clone()).expect("the last byte is in the arena");
    assert_eq!(r.exit_code, 0x2a);
    // Zero-initialized bytes past the arena are never written: the run
    // succeeds, and only an access to them traps.
    let m = load_global_byte(vec![GInit::Zero(5000)], 8);
    assert_eq!(
        run_with_config(&m, config.clone()).expect("runs").exit_code,
        0
    );
    let m = load_global_byte(vec![GInit::Zero(5000)], 4096);
    let e = run_with_config(&m, config).expect_err("past the arena");
    assert!(
        matches!(&e, VmError::Trap(msg) if msg.contains("out-of-bounds access")),
        "{e:?}"
    );
}
