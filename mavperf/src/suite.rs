//! One run: the three timed phases, or the traced pass, and the command
//! line around them.

use crate::metrics::{Outcome, END_TO_END, PER_LAYER, REPORTED};
use crate::stats::ratio;
use crate::{alloc, missions, service, sweep, trace, Scale, Workload};
use mav_types::sha256_hex;
use std::time::{Duration, Instant};

/// A phase's weight in the split of the measured time; the selected
/// workload's phase counts twice. Missions weigh most because their five
/// gated minima need every application's episodes to come round many
/// times; the service's latency median settles within a few thousand jobs.
/// Shares: 36/55/9% on `sweep`, 13/80/7% on `missions`, 20/60/20% on
/// `service`.
fn weight(workload: Workload, phase: Workload) -> f64 {
    let base = match phase {
        Workload::Sweep => 2.0,
        Workload::Missions => 6.0,
        Workload::Service => 1.0,
    };
    if phase == workload {
        2.0 * base
    } else {
        base
    }
}

/// The share of the measured time `phase` gets when `workload` is selected.
pub fn share(workload: Workload, phase: Workload) -> f64 {
    let total: f64 = Workload::ALL.iter().map(|&p| weight(workload, p)).sum();
    weight(workload, phase) / total
}

/// Cycles a timed run is cut into. Each cycle gives every phase one slice,
/// so each phase samples the whole run rather than one stretch of it, and
/// slow and fast periods of a shared host fall on all phases alike.
pub const CYCLES: u32 = 6;

/// Runs `slice` with what a phase has left of the time `due` to it by the
/// end of this cycle, after the `used` time of its earlier slices, and adds
/// the slice's time to `used`. A slice stops at the first operation that
/// ends past its budget; the overrun comes off the next slice, so each
/// phase runs for its share of the run and the run for `--seconds`.
fn budgeted(due: Duration, used: &mut Duration, slice: impl FnOnce(Duration)) {
    let start = Instant::now();
    slice(due.saturating_sub(*used));
    *used += start.elapsed();
}

/// The timed run: every phase for its [`share`] of `seconds`, interleaved
/// over [`CYCLES`] cycles. Every end-to-end and reported metric is set.
pub fn timed_run(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let slice = |phase: Workload| {
        Duration::from_secs_f64(seconds * share(workload, phase) / f64::from(CYCLES))
    };
    let cpu_before = alloc::cpu_ticks();
    let mut sweep = sweep::Timed::setup(seed, scale);
    let mut missions = missions::Timed::setup(seed, scale);
    let mut service = service::Timed::setup(seed, scale);
    let mut used = [Duration::ZERO; 3];
    for cycle in 0..CYCLES {
        if cycle > 0 {
            sweep.set_up_again();
            missions.set_up_again();
        }
        let due = |phase: Workload| slice(phase) * (cycle + 1);
        budgeted(due(Workload::Sweep), &mut used[0], |b| sweep.slice(b));
        budgeted(due(Workload::Missions), &mut used[1], |b| missions.slice(b));
        budgeted(due(Workload::Service), &mut used[2], |b| service.slice(b));
    }
    let mut out = sweep.finish();
    out.absorb(missions.finish());
    out.absorb(service.finish());
    let digest = sha256_hex(format!("{}{}", sweep.digest(), missions.digest()).as_bytes());
    let setups = [
        ("sweep", sweep.setup_secs()),
        ("missions", missions.setup_secs()),
        ("service", service.setup_secs()),
    ];
    out.set("setup_s", setups.iter().map(|(_, (secs, _))| secs).sum());
    out.set("peak_rss_mb", alloc::peak_rss_mb());
    out.note(format!("sim_digest {digest}"));
    let cpu = alloc::cpu_ticks().since(cpu_before);
    out.note(format!(
        "host: {:.1}% of CPU time stolen by other guests during the run",
        100.0 * ratio(cpu.steal as f64, cpu.total as f64)
    ));
    let setups: Vec<String> = setups
        .iter()
        .map(|(phase, (secs, count))| format!("{phase} {secs:.6} s (fastest of {count})"))
        .collect();
    out.note(format!("setup: {}", setups.join(", ")));
    for def in REPORTED {
        let value = out.values.get(def.name).copied().unwrap_or(f64::NAN);
        out.note(format!(
            "reported, not gated: {} {value} {}",
            def.name, def.unit
        ));
    }
    out
}

const USAGE: &str =
    "usage: mavperf --workload <sweep|missions|service> --seed <n> --seconds <n> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run instead of timed.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs per `args` and returns the outcome with the metric set it reports.
pub fn run(args: &Args) -> (Outcome, &'static [crate::metrics::MetricDef]) {
    if args.trace {
        (trace::run(args.workload, args.seed, Scale::Full), PER_LAYER)
    } else {
        (
            timed_run(args.workload, args.seed, args.seconds, Scale::Full),
            END_TO_END,
        )
    }
}

/// The command-line entry point of both binaries. Only the traced binary
/// counts allocations (`counting`), so only it accepts `--trace 1`.
/// Prints the notes, then the result line last; returns the exit code.
pub fn main(counting: bool) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    if args.trace != counting {
        eprintln!(
            "error: --trace {} runs on the {} binary (use run.sh)",
            u8::from(args.trace),
            if args.trace {
                "mavperf-trace"
            } else {
                "mavperf"
            }
        );
        return 2;
    }
    let (outcome, defs) = run(&args);
    for line in &outcome.notes {
        println!("# {line}");
    }
    for reason in &outcome.failures {
        println!("# FAILED: {reason}");
    }
    println!("{}", outcome.result_line(defs));
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn shares_fill_the_run_and_favour_the_selected_phase() {
        for workload in Workload::ALL {
            let total: f64 = Workload::ALL.iter().map(|&p| share(workload, p)).sum();
            assert!((total - 1.0).abs() < 1e-12);
            for other in Workload::ALL.into_iter().filter(|&p| p != workload) {
                assert!(share(workload, workload) > share(other, workload));
            }
        }
        assert!((share(Workload::Missions, Workload::Missions) - 12.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args =
            parse_args(&argv("--workload missions --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(args.workload, Workload::Missions);
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sweep --seed 1 --seconds 0 --trace 0",
            "--workload sweep --seed 1 --seconds 1 --trace 2",
            "--workload sweep --seconds 1 --trace 0",
            "--workload sweep --seed 1 --seconds 1 --trace",
            "--workload sweep --seed 1 --seconds 1 --trace 0 --smoke",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
