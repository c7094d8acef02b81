// Fixture for unused-pub (never compiled; the engine walk skips
// tests/fixtures/).  The rule tests declare it as crates/x/src/lib.rs and
// supply the other files of the in-memory workspace.

/// Named by another file's code: quiet.
pub fn used_elsewhere() {}

/// Named elsewhere only in a `use` line, a comment and a string: fires.
pub fn only_mentioned() {}

/// Named only by a benchmark/src file: quiet while that file is present.
pub const BENCH_ONLY: u32 = 1;

// l2r: allow(unused-pub) — fixture: the waived firing case
pub static WAIVED: u32 = 2;

/// Not public outside its crate: out of scope.
pub(crate) fn crate_private() {}

#[cfg(test)]
mod tests {
    /// Declared inside a test module: ignored.
    pub fn test_helper() {}
}
