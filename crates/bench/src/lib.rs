//! Benchmark-only crate: `benches/spec_access.rs` (the access path),
//! `benches/early_sync.rs` (chains and ranges against `DirectContext`),
//! `benches/trace_overhead.rs` and `benches/metrics_overhead.rs` (the
//! cost of observation, with their virtual-time neutrality gates).
