//! Traced benchmark run: spans, counted allocations, per-layer metrics.

#[global_allocator]
static ALLOC: iocov_bench::CountingAlloc = iocov_bench::CountingAlloc;

fn main() -> std::process::ExitCode {
    iocov_perfbench::main_with(Some(iocov_bench::alloc_calls))
}
