//! Public entry point for the UDF bytecode compiler.
//!
//! Call [`compile`] on an instrumented UDF (see [`crate::instrument`])
//! **after** [`crate::check`] passes — the lowering relies on the
//! checker's structural guarantees (unique locals, defined-before-use,
//! no nested loops). The result is portable — it does not depend on a
//! property store — and is not executed as is: [`crate::UdfProgram`]'s
//! constructor compiles, then types the ops against the store it is
//! given, and the engine knob `EngineConfig::udf_exec` picks the
//! executor. The only programs `compile` rejects are resource-limit
//! outliers (see [`CompileError`]); those fall back to the tree
//! interpreter with identical semantics, and lint reports the fallback
//! as `W006`.

use crate::bytecode;
use crate::transform::InstrumentedUdf;

pub use crate::bytecode::{CompileError, CompiledUdf};

/// Lowers an instrumented, checked UDF to register bytecode.
///
/// # Errors
///
/// [`CompileError::TooManyRegisters`] when named locals plus expression
/// temporaries exceed the `u8` register file;
/// [`CompileError::TooManyCarried`] when more than 64 locals are carried
/// across machine boundaries.
///
/// # Example
///
/// ```
/// use symple_udf::{compile, instrument, paper_udfs};
/// let inst = instrument(&paper_udfs::bfs_udf()).unwrap();
/// let code = compile(&inst).unwrap();
/// assert!(code.len() > 0);
/// assert_eq!(code.prop_names(), ["frontier".to_string()]);
/// ```
pub fn compile(inst: &InstrumentedUdf) -> Result<CompiledUdf, CompileError> {
    bytecode::lower(inst)
}
