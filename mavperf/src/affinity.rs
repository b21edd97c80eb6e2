//! The calling thread's CPU affinity (`sched_getaffinity` /
//! `sched_setaffinity`), so the missions phase can spread its samples over
//! every CPU it may run on.
//!
//! On a shared host each virtual CPU has slow stretches of its own, lasting
//! seconds to tens of seconds, when the program runs up to 1.5x slower. A
//! thread the scheduler leaves on one CPU can spend a whole run in such a
//! stretch; a thread that moves between the CPUs in turn samples all of
//! them.

/// A set of CPUs, as the kernel's `cpu_set_t` (1024 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// The CPUs the calling thread may run on, or `None` where the kernel
    /// does not say.
    pub fn current() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes into
        // the array, which is that large; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// The set holding only `cpu` (below 1024).
    pub fn single(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; 16]);
        set.0[cpu / 64] = 1 << (cpu % 64);
        set
    }

    /// The CPUs in the set, in increasing order.
    pub fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&cpu| self.0[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Restricts the calling thread to the set; false if the kernel refused.
    pub fn apply(&self) -> bool {
        // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes from the
        // array, which is that large; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self.0.as_ptr()) == 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_the_thread_and_restores_it() {
        let all = CpuSet::current().expect("affinity is readable");
        let cpus = all.cpus();
        assert!(!cpus.is_empty());
        let last = *cpus.last().unwrap();
        std::thread::spawn(move || {
            assert!(CpuSet::single(last).apply());
            assert_eq!(CpuSet::current().unwrap().cpus(), vec![last]);
            assert!(all.apply());
            assert_eq!(CpuSet::current().unwrap(), all);
        })
        .join()
        .unwrap();
    }
}
