//! The traced benchmark binary: the same command line with `--trace 1`,
//! and the counting allocator installed for the allocation metrics.

#[global_allocator]
static COUNTING: mavperf::alloc::Counting = mavperf::alloc::Counting;

fn main() {
    std::process::exit(mavperf::suite::main(true));
}
