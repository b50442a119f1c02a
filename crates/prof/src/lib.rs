//! Empty on purpose. benchmark/ compat: `benchmark/Cargo.lock` is tracked and names this package, so it stays, codeless, until the first `benchmark` PR (DESIGN.md §11).
