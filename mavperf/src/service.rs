//! The `service` phase: a fresh in-process `mav_server::Server` on an
//! ephemeral loopback port (2 workers, queue of 64), driven by `nproc / 2`
//! (at least one) closed-loop keep-alive clients that each submit, poll,
//! fetch and then delete a job.
//!
//! Jobs follow `server_load`'s 5:1 mission:sweep mix of small Scanning
//! specs, with seeds derived from the workload seed. The cold phase sends
//! only unique specs to a fresh server that has seen none of them, so it
//! must record no cache hit; the warm phase resubmits the finished specs in
//! a sparse, reordered spelling and must hit the cache on every job with
//! the cold run's exact result bytes.

use crate::client::{delete_job, run_job, Client, JobRun};
use crate::metrics::Outcome;
use crate::stats::{fastest, median, quantile, ratio};
use crate::{host_threads, micros, permutation, splitmix64, timed, Scale};
use mav_core::reliability::reliability_sweep_classified_observed;
use mav_core::{run_mission_with_scratch, with_episode_scratch, SweepRunner};
use mav_server::http::Request;
use mav_server::{handle, JobSpec, Server, ServiceOptions};
use mav_types::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups timed before the first slice; every later slice adds its own.
const SETUPS: usize = 3;

/// Share of each service slice spent on cold jobs; warm jobs are about
/// five times faster, so this evens out the windows each phase collects.
const COLD_SHARE: f64 = 0.75;

/// The seed of job `index`.
fn job_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index)) % 1_000_000_007
}

/// Whether job `index` is a sweep (every sixth job) rather than a mission.
fn is_sweep(index: u64) -> bool {
    index % 6 == 5
}

/// The cold-phase spelling of job `index`. Mission specs spell out the
/// default `physics_dt`.
pub fn cold_spec(seed: u64, index: u64) -> String {
    let s = job_seed(seed, index);
    if is_sweep(index) {
        format!(
            r#"{{"type":"sweep","scenario":{{"application":"scanning","base_seed":{s},"extents":[14.0],"densities":[0.4],"noise_levels":[0.0]}},"episodes":2,"shard_size":2}}"#
        )
    } else {
        format!(
            r#"{{"type":"mission","config":{{"application":"scanning","seed":{s},"environment":{{"extent":14.0}},"camera":{{"width":16,"height":12}},"time_budget_secs":90.0,"physics_dt":0.05}}}}"#
        )
    }
}

/// The warm-phase spelling of job `index`: the same job with its keys
/// reordered, extra whitespace and (for missions) the defaulted field left
/// out. The server must canonicalise it to the cold spec's cache key.
pub fn warm_spec(seed: u64, index: u64) -> String {
    let s = job_seed(seed, index);
    if is_sweep(index) {
        format!(
            r#"{{ "shard_size": 2, "episodes": 2, "scenario": {{ "noise_levels": [0.0], "densities": [0.4], "extents": [14.0], "base_seed": {s}, "application": "scanning" }}, "type": "sweep" }}"#
        )
    } else {
        format!(
            r#"{{ "config": {{ "time_budget_secs": 90.0, "camera": {{ "height": 12, "width": 16 }}, "environment": {{ "extent": 14.0 }}, "seed": {s}, "application": "scanning" }}, "type": "mission" }}"#
        )
    }
}

/// The server every slice starts: the defaults of `mav-server`.
fn options() -> ServiceOptions {
    ServiceOptions {
        workers: 2,
        queue_capacity: 64,
    }
}

/// Window sizes, in jobs. Throughput is taken per window of `rate`
/// completions inside one slice, and the median over windows is reported,
/// so a burst of host noise moves one window, not the result. p99 is taken
/// per window of `tail` completions over the phase (a window of 1000
/// leaves ten samples beyond its p99), and the lower quartile over windows
/// is reported: on a shared host, scheduler stalls of several ms land in
/// some windows and set their p99, while a tail the program causes shows
/// in every window.
#[derive(Debug, Clone, Copy)]
struct Windows {
    rate: usize,
    tail: usize,
}

fn windows(scale: Scale) -> Windows {
    match scale {
        Scale::Full => Windows {
            rate: 250,
            tail: 1000,
        },
        Scale::Smoke => Windows { rate: 4, tail: 12 },
    }
}

/// One finished job of a phase.
struct Done {
    index: u64,
    latency_ms: f64,
    /// Seconds from the phase start to the job's deletion.
    at_s: f64,
}

/// Drives one phase: `clients` threads, each taking the next position
/// `k` and running job `spec(k)` — submit, poll, fetch, `check` the
/// result, then delete the finished job so the job table stays bounded —
/// until `budget` has passed and at least `floor` jobs were taken.
/// Returns the finished jobs and the failures.
fn drive(
    clients: &mut [Client],
    budget: Duration,
    floor: u64,
    spec: &(dyn Fn(u64) -> (u64, String) + Sync),
    check: &(dyn Fn(u64, &JobRun) -> Result<(), String> + Sync),
) -> (Vec<Done>, Vec<String>) {
    let next = AtomicU64::new(0);
    let done: Mutex<Vec<Done>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (next, done, errors) = (&next, &done, &errors);
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= floor && start.elapsed() >= budget {
                        break;
                    }
                    let (index, body) = spec(k);
                    let submitted = Instant::now();
                    let finished = run_job(client, &body).and_then(|run| {
                        let latency_ms = submitted.elapsed().as_secs_f64() * 1e3;
                        let checked = check(index, &run);
                        delete_job(client, run.id)?;
                        checked.map(|()| Done {
                            index,
                            latency_ms,
                            at_s: start.elapsed().as_secs_f64(),
                        })
                    });
                    match finished {
                        Ok(done) => local.push(done),
                        Err(e) => errors
                            .lock()
                            .expect("error list lock")
                            .push(format!("job {index}: {e}")),
                    }
                }
                done.lock().expect("job list lock").extend(local);
            });
        }
    });
    (
        done.into_inner().expect("job list lock"),
        errors.into_inner().expect("error list lock"),
    )
}

/// Starts a fresh server and connects `count` clients to it.
fn start(count: usize) -> std::io::Result<(Server, Vec<Client>)> {
    let server = Server::start("127.0.0.1:0", options())?;
    let clients = (0..count)
        .map(|_| Client::connect(server.addr()))
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok((server, clients))
}

/// Latency and throughput samples of one phase (cold or warm), gathered
/// slice by slice. Rate windows never straddle slices, so the time other
/// phases run between slices never counts against the service.
#[derive(Default)]
struct Samples {
    /// Latencies in completion order across the phase.
    latencies: Vec<f64>,
    window_rates: Vec<f64>,
}

impl Samples {
    fn add(&mut self, mut jobs: Vec<Done>, windows: Windows) {
        jobs.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        let n = windows.rate;
        for w in jobs.chunks_exact(n) {
            self.window_rates
                .push(ratio((n - 1) as f64, w[n - 1].at_s - w[0].at_s));
        }
        self.latencies.extend(jobs.iter().map(|d| d.latency_ms));
    }

    fn report(&self, out: &mut Outcome, phase: &str, windows: Windows) {
        let mut tails: Vec<f64> = self
            .latencies
            .chunks_exact(windows.tail)
            .map(|w| quantile(w, 0.99))
            .collect();
        if tails.is_empty() {
            tails.push(quantile(&self.latencies, 0.99));
        }
        let rate = median(&self.window_rates);
        let p50 = median(&self.latencies);
        let p99 = quantile(&tails, 0.25);
        out.set(&format!("jobs_per_s.{phase}"), rate);
        out.set(&format!("job_ms_p50.{phase}"), p50);
        out.set(&format!("job_ms_p99.{phase}"), p99);
        let tails: Vec<String> = tails.iter().map(|ms| format!("{ms:.2}")).collect();
        out.note(format!(
            "service {phase}: {} jobs: {rate:.1} jobs/s (median of {} windows), p50 {p50:.3} ms, p99 {p99:.3} ms (lower quartile of window p99s {})",
            self.latencies.len(),
            self.window_rates.len(),
            tails.join(" ")
        ));
    }
}

/// The timed service phase, driven slice by slice. Every slice runs on a
/// fresh server, so its cache holds only that slice's cold results: cold
/// jobs can only miss, warm jobs must hit, and memory stays bounded by one
/// slice's work.
pub struct Timed {
    seed: u64,
    windows: Windows,
    clients: usize,
    /// The server and clients of the next slice: the set-up's for the first.
    running: Option<(Server, Vec<Client>)>,
    next_cold: u64,
    next_warm: u64,
    cold: Samples,
    warm: Samples,
    /// Seconds of every set-up timed so far.
    setups: Vec<f64>,
    out: Outcome,
}

impl Timed {
    /// Set-up: binding the server, spawning its threads and connecting the
    /// clients, timed [`SETUPS`] times; the last server runs the first
    /// slice. Every later slice's fresh server is a set-up too.
    pub fn setup(seed: u64, scale: Scale) -> Timed {
        // Half the cores: each client and the server thread answering it then
        // fit the host without oversubscribing it.
        let clients = (host_threads() / 2).max(1);
        let mut out = Outcome::default();
        let mut setups = Vec::with_capacity(SETUPS);
        let mut running: Option<(Server, Vec<Client>)> = None;
        for _ in 0..SETUPS {
            if let Some((server, conns)) = running.take() {
                drop(conns);
                server.stop();
            }
            let (started, elapsed) = timed(|| start(clients));
            setups.push(elapsed.as_secs_f64());
            match started {
                Ok(pair) => running = Some(pair),
                Err(e) => {
                    out.check(false, || format!("server start: {e}"));
                    break;
                }
            }
        }
        Timed {
            seed,
            windows: windows(scale),
            clients,
            running,
            next_cold: 0,
            next_warm: 0,
            cold: Samples::default(),
            warm: Samples::default(),
            setups,
            out,
        }
    }

    /// The fastest set-up in seconds, and how many were timed.
    pub fn setup_secs(&self) -> (f64, usize) {
        (fastest(&self.setups), self.setups.len())
    }

    fn record(&mut self, phase: &str, errors: Vec<String>, jobs: usize) {
        self.out.attempted += (jobs + errors.len()) as u64;
        for e in errors {
            self.out.fail(format!("{phase} {e}"));
        }
    }

    /// Cold jobs for [`COLD_SHARE`] of the slice, then warm resubmissions of
    /// this slice's cold jobs; each at least one rate window of jobs.
    pub fn slice(&mut self, budget: Duration) {
        let started = self.running.take().map_or_else(
            || {
                let (started, elapsed) = timed(|| start(self.clients));
                self.setups.push(elapsed.as_secs_f64());
                started
            },
            Ok,
        );
        let (server, mut conns) = match started {
            Ok(pair) => pair,
            Err(e) => {
                self.out.check(false, || format!("server start: {e}"));
                return;
            }
        };
        let seed = self.seed;
        let floor = self.windows.rate as u64;
        let first = self.next_cold;
        let results: Mutex<BTreeMap<u64, String>> = Mutex::new(BTreeMap::new());
        let (cold, errors) = drive(
            &mut conns,
            budget.mul_f64(COLD_SHARE),
            floor,
            &|k| (first + k, cold_spec(seed, first + k)),
            &|index, run| {
                results
                    .lock()
                    .expect("cold results lock")
                    .insert(index, run.result.clone());
                if run.cached {
                    Err("cold job was a cache hit".into())
                } else {
                    Ok(())
                }
            },
        );
        self.record("cold", errors, cold.len());
        // Positions handed out past the last job taken are simply skipped.
        self.next_cold = cold
            .iter()
            .map(|d| d.index + 1)
            .max()
            .unwrap_or(first)
            .max(first);
        let finished: Vec<u64> = cold.iter().map(|d| d.index).collect();
        self.cold.add(cold, self.windows);

        if !finished.is_empty() {
            let cold_results = results.into_inner().expect("cold results lock");
            let order = permutation(finished.len(), splitmix64(seed ^ first));
            let offset = self.next_warm;
            let (warm, errors) = drive(
                &mut conns,
                budget.mul_f64(1.0 - COLD_SHARE),
                floor,
                &|k| {
                    let index = finished[order[((offset + k) % finished.len() as u64) as usize]];
                    (index, warm_spec(seed, index))
                },
                &|index, run| {
                    if !run.cached {
                        Err("warm job missed the cache".into())
                    } else if cold_results.get(&index) != Some(&run.result) {
                        Err("warm result bytes differ from the cold run".into())
                    } else {
                        Ok(())
                    }
                },
            );
            self.next_warm += (warm.len() + errors.len()) as u64;
            self.record("warm", errors, warm.len());
            self.warm.add(warm, self.windows);
        }
        drop(conns);
        server.stop();
    }

    /// The phase's outcome with its metrics set.
    pub fn finish(&mut self) -> Outcome {
        if let Some((server, conns)) = self.running.take() {
            drop(conns);
            server.stop();
        }
        let mut out = std::mem::take(&mut self.out);
        self.cold.report(&mut out, "cold", self.windows);
        self.warm.report(&mut out, "warm", self.windows);
        out
    }
}

/// In-process execution time of a job spec, in ms: what a worker spends
/// on it once dequeued, on a warm per-thread scratch as a worker has.
fn execution_ms(body: &str) -> f64 {
    match mav_server::parse_spec(body.as_bytes()) {
        Ok(JobSpec::Mission { config }) => {
            timed(|| with_episode_scratch(|scratch| run_mission_with_scratch(*config, scratch)))
                .1
                .as_secs_f64()
                * 1e3
        }
        Ok(JobSpec::Sweep {
            scenario,
            episodes,
            shard_size,
        }) => {
            let runner = SweepRunner::new().with_threads(1);
            timed(|| {
                reliability_sweep_classified_observed(
                    &runner,
                    &scenario,
                    episodes,
                    shard_size,
                    &|_| {},
                )
            })
            .1
            .as_secs_f64()
                * 1e3
        }
        Err(_) => 0.0,
    }
}

fn get(path: String) -> Request {
    Request {
        method: "GET".into(),
        path,
        body: Vec::new(),
        keep_alive: true,
    }
}

/// Median µs of `reps` calls of `f`.
fn median_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| micros(&mut f).1).collect();
    median(&samples)
}

/// The traced service pass over `specs` (cold and warm spellings of each
/// job) on a fresh server with one client: spec parsing and cache keys,
/// JSON on the result documents, HTTP overhead over the in-process
/// `server::handle`, cache-hit ratios per phase, queue wait and refusals.
/// With `attribute`, the warm job's client latency is split into those
/// layers and the remainder reported as `unattributed_share`.
pub fn traced_pass(specs: &[(String, String)], attribute: bool) -> Outcome {
    const REPS: usize = 15;
    let mut out = Outcome::default();
    let (server, mut conns) = match start(1) {
        Ok(pair) => pair,
        Err(e) => {
            out.check(false, || format!("server start: {e}"));
            return out;
        }
    };
    let client = &mut conns[0];
    let service = server.service();

    let mut rejected = 0u64;
    let mut jobs = Vec::new();
    let mut waits = Vec::new();
    let mut cold_hits = 0usize;
    for (cold, _) in specs {
        let submitted = Instant::now();
        match run_job(client, cold) {
            Ok(run) => {
                let latency_ms = submitted.elapsed().as_secs_f64() * 1e3;
                waits.push(latency_ms - execution_ms(cold));
                cold_hits += usize::from(run.cached);
                out.check(!run.cached, || {
                    format!("cold job {} was a cache hit", run.id)
                });
                jobs.push(run);
            }
            Err(e) => {
                rejected += u64::from(e.contains("429"));
                out.check(false, || format!("traced cold job: {e}"));
            }
        }
    }
    let mut warm_hits = 0usize;
    let mut warm_latency = Vec::new();
    for ((_, warm), cold_run) in specs.iter().zip(&jobs) {
        let submitted = Instant::now();
        match run_job(client, warm) {
            Ok(run) => {
                warm_latency.push(submitted.elapsed().as_secs_f64() * 1e6);
                warm_hits += usize::from(run.cached);
                out.check(run.cached && run.result == cold_run.result, || {
                    format!(
                        "warm resubmission of job {} did not return its cached bytes",
                        cold_run.id
                    )
                });
            }
            Err(e) => {
                rejected += u64::from(e.contains("429"));
                out.check(false, || format!("traced warm job: {e}"));
            }
        }
    }
    let n = specs.len() as f64;
    out.set("service.cache_hit_ratio.cold", ratio(cold_hits as f64, n));
    out.set("service.cache_hit_ratio.warm", ratio(warm_hits as f64, n));
    out.set("service.queue_wait_ms_p50", median(&waits));
    out.set("service.rejected_429", rejected as f64);

    let mut parse = Vec::new();
    let mut key = Vec::new();
    let mut json_parse = Vec::new();
    let mut json_write = Vec::new();
    let mut http = Vec::new();
    let mut handle_post = Vec::new();
    let mut handle_status = Vec::new();
    let mut handle_result = Vec::new();
    for ((_, warm), run) in specs.iter().zip(&jobs) {
        parse.push(median_us(REPS, || mav_server::parse_spec(warm.as_bytes())));
        if let Ok(spec) = mav_server::parse_spec(warm.as_bytes()) {
            key.push(median_us(REPS, || spec.cache_key()));
        }
        let kib = run.result.len() as f64 / 1024.0;
        json_parse.push(median_us(REPS, || Json::parse(&run.result)).max(0.0) / kib);
        if let Ok(doc) = Json::parse(&run.result) {
            let written = doc.to_string_compact().len() as f64 / 1024.0;
            json_write.push(median_us(REPS, || doc.to_string_compact()) / written);
        }
        let result_path = format!("/jobs/{}/result", run.id);
        let over_http = median_us(REPS, || client.request("GET", &result_path, ""));
        let request = get(result_path);
        let in_process = median_us(REPS, || handle(service, &request));
        http.push(over_http - in_process);
        handle_result.push(in_process);
        let status = get(format!("/jobs/{}", run.id));
        handle_status.push(median_us(REPS, || handle(service, &status)));
        let post = Request {
            method: "POST".into(),
            path: "/jobs".into(),
            body: warm.clone().into_bytes(),
            keep_alive: true,
        };
        handle_post.push(median_us(REPS, || handle(service, &post)));
    }
    let http_us = median(&http);
    let post_us = median(&handle_post);
    out.set("spec.parse_us", median(&parse));
    out.set("spec.cache_key_us", median(&key));
    out.set("json.parse_us_per_kb", median(&json_parse));
    out.set("json.serialize_us_per_kb", median(&json_write));
    out.set("http.overhead_us", http_us);
    out.set("service.handle_us", post_us);
    if attribute {
        // A warm job is two requests: the submit, answered from the cache
        // with the job already done, and the result GET.
        let layers = post_us + median(&handle_result) + 2.0 * http_us;
        let job = median(&warm_latency);
        out.set("unattributed_share", ratio(job - layers, job));
    }
    drop(conns);
    server.stop();
    out
}
