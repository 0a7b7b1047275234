//! Placeholder for `proptest`, which only the workspace's dev-dependencies
//! name: cargo resolves every member's dev-dependencies even when it builds
//! none of them, so the benchmark's offline build needs a package by this
//! name. Nothing here is compiled into the benchmark.
