//! The timed benchmark binary (system allocator, no tracing). Run it
//! through `run.sh`, which builds from source and picks the binary.

fn main() {
    std::process::exit(mavperf::suite::main(false));
}
