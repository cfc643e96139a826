//! Modules: functions, globals and external declarations.

use crate::function::Function;
use crate::ids::{ExtId, FuncId, GlobalId};
use crate::types::Type;

/// One element of a global initialiser.
///
/// `FuncPtr` models a pointer-sized relocation against a function symbol
/// with an `addend` — the vehicle the paper uses (§A.1) to attach tag bits
/// to statically-initialised function pointers without load-time fixups.
#[derive(Clone, Debug, PartialEq)]
pub enum GInit {
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// An integer value of the given type, stored little-endian.
    Int { value: i64, ty: Type },
    /// A float value of the given type, stored little-endian.
    Float { value: f64, ty: Type },
    /// `size` zero bytes.
    Zero(u32),
    /// A pointer-sized slot relocated to `func`'s address plus `addend`.
    FuncPtr { func: FuncId, addend: i64 },
}

impl GInit {
    /// The number of bytes this element occupies.
    pub fn size(&self) -> u32 {
        match self {
            GInit::Bytes(b) => b.len() as u32,
            GInit::Int { ty, .. } | GInit::Float { ty, .. } => ty.size(),
            GInit::Zero(n) => *n,
            GInit::FuncPtr { .. } => 8,
        }
    }
}

/// A global variable.
#[derive(Clone, Debug, PartialEq)]
pub struct Global {
    /// Symbol name, unique within the module.
    pub name: String,
    /// Initialiser elements, laid out contiguously.
    pub init: Vec<GInit>,
    /// Alignment in bytes.
    pub align: u32,
    /// Whether the global is visible outside the module. Function pointers
    /// stored in exported globals can escape, so fusion must route them
    /// through trampolines rather than tagging them.
    pub exported: bool,
}

impl Global {
    /// A zero-initialised internal global of `size` bytes.
    pub fn zeroed(name: impl Into<String>, size: u32) -> Self {
        Global {
            name: name.into(),
            init: vec![GInit::Zero(size)],
            align: 8,
            exported: false,
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u32 {
        self.init.iter().map(GInit::size).sum()
    }
}

/// An external function declaration, resolved by name at run time by the
/// VM's synthetic libc.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtFunc {
    /// Name, e.g. `"print_i64"` or `"setjmp"`.
    pub name: String,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type.
    pub ret_ty: Type,
    /// True for variadic declarations (e.g. `printf`-alikes).
    pub variadic: bool,
}

/// A translation unit: the unit the obfuscator transforms and the codegen
/// lowers to a binary.
#[derive(Clone, Debug, PartialEq)]
pub struct Module {
    /// Module name (used as the binary name).
    pub name: String,
    /// Function definitions.
    pub functions: Vec<Function>,
    /// Global variables.
    pub globals: Vec<Global>,
    /// External declarations.
    pub externals: Vec<ExtFunc>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
            globals: Vec::new(),
            externals: Vec::new(),
        }
    }

    /// Appends a function and returns its id.
    pub fn push_function(&mut self, f: Function) -> FuncId {
        let id = FuncId::new(self.functions.len());
        self.functions.push(f);
        id
    }

    /// Appends a global and returns its id.
    pub fn push_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId::new(self.globals.len());
        self.globals.push(g);
        id
    }

    /// Declares an external function (or returns the existing id when an
    /// identical declaration is already present).
    pub fn declare_external(&mut self, ext: ExtFunc) -> ExtId {
        if let Some(i) = self.externals.iter().position(|e| e.name == ext.name) {
            return ExtId::new(i);
        }
        let id = ExtId::new(self.externals.len());
        self.externals.push(ext);
        id
    }

    /// Shared access to a function.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to a function.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Looks a function up by name.
    pub fn function_by_name(&self, name: &str) -> Option<(FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId::new(i), f))
    }

    /// Iterates over `(FuncId, &Function)` pairs.
    pub fn iter_functions(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId::new(i), f))
    }

    /// Shared access to a global.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// Shared access to an external declaration.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn external(&self, id: ExtId) -> &ExtFunc {
        &self.externals[id.index()]
    }

    /// Total instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(Function::inst_count).sum()
    }

    /// A stable 64-bit fingerprint of the module's content: FNV-1a over
    /// its [`crate::printer`] text. The printer streams that text into
    /// the hash a token at a time, so the text is never built. The text
    /// round-trips through [`crate::parser`], so it captures everything a
    /// module holds — equal fingerprints mean equal modules (up to 64-bit
    /// collision odds) — and it is the key that build and run memos use.
    pub fn content_fingerprint(&self) -> u64 {
        crate::printer::fnv1a(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup() {
        let mut m = Module::new("m");
        let f = m.push_function(Function::new("foo", Type::Void));
        assert_eq!(m.function(f).name, "foo");
        let (id, _) = m.function_by_name("foo").unwrap();
        assert_eq!(id, f);
        assert!(m.function_by_name("bar").is_none());
    }

    #[test]
    fn external_dedup() {
        let mut m = Module::new("m");
        let e1 = m.declare_external(ExtFunc {
            name: "print_i64".into(),
            params: vec![Type::I64],
            ret_ty: Type::Void,
            variadic: false,
        });
        let e2 = m.declare_external(ExtFunc {
            name: "print_i64".into(),
            params: vec![Type::I64],
            ret_ty: Type::Void,
            variadic: false,
        });
        assert_eq!(e1, e2);
        assert_eq!(m.externals.len(), 1);
    }

    #[test]
    fn global_sizes() {
        let g = Global {
            name: "g".into(),
            init: vec![
                GInit::Int {
                    value: 1,
                    ty: Type::I32,
                },
                GInit::Zero(4),
                GInit::FuncPtr {
                    func: FuncId(0),
                    addend: 12,
                },
            ],
            align: 8,
            exported: false,
        };
        assert_eq!(g.size(), 16);
        assert_eq!(Global::zeroed("z", 64).size(), 64);
    }

    #[test]
    fn content_fingerprint_tracks_content() {
        let mut m = Module::new("m");
        // FNV-1a of "module m\n": the fingerprint is the printed text's.
        assert_eq!(m.content_fingerprint(), 0xace6_b9af_eaa9_b61c);
        let empty = m.content_fingerprint();
        assert_eq!(m.clone().content_fingerprint(), empty);
        m.push_global(Global::zeroed("z", 8));
        assert_ne!(m.content_fingerprint(), empty);
        assert_ne!(Module::new("n").content_fingerprint(), empty);
    }
}
