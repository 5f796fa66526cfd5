//! Untraced benchmark run: end-to-end metrics, system allocator.

fn main() -> std::process::ExitCode {
    iocov_perfbench::main_with(None)
}
