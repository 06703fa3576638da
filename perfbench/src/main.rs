//! The MANETKit reproduction's benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale small]
//! perfbench --record <first-seed> <last-seed>
//! perfbench --phy-sanity
//! ```
//!
//! With `--trace 0` it sets up and runs the workload repeatedly for
//! `--seconds` host seconds, checks every run, and reports the median
//! set-up time, run time and frame throughput plus the process's peak
//! resident memory. With `--trace 1` it runs the workload once untraced
//! and once traced, and reports the per-layer ledger (see `ledger.rs`).
//! The last line of standard output is the result object.
//!
//! `--record` prints the reference fingerprint digests for a seed range
//! (the contents of `references.txt`); `--phy-sanity` drives the phy
//! engine at the full E19 heavy-load shape for comparison with the
//! figures measured on it with in-program counters.

mod check;
mod ledger;
mod workload;

use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use campaign::TrafficSpec;
use netsim::{SimDuration, Topology};

use crate::ledger::{median_f64, quantile};
use crate::workload::{Scale, Workload};

/// Runs in a `--trace 0` measurement, whatever `--seconds` says: enough
/// for a median.
const MIN_RUNS: u32 = 3;

/// `setup_s` is timed on set-ups made on their own before the measured
/// runs, each built after the previous world was dropped, so every sample
/// starts from the same heap state. Set-up is short, so its median needs
/// more samples than the runs give: the set-ups take a twentieth of the
/// budget, at least `SETUP_MIN` and at most `SETUP_MAX` of them.
const SETUP_SHARE: u32 = 20;
const SETUP_MIN: u32 = 5;
const SETUP_MAX: u32 = 1000;

/// Simulated span of the phy probe.
const PHY_PROBE_SPAN: SimDuration = SimDuration::from_secs(3);

/// Host time each codec replay repeats for.
const CODEC_BUDGET: Duration = Duration::from_millis(200);

struct Args {
    workload: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
    scale: Scale,
}

enum Mode {
    Measure(Args),
    Record(u64, u64),
    PhySanity,
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str, text: &str| -> Result<u64, String> {
        text.parse()
            .map_err(|_| format!("{flag}: not a whole number: {text:?}"))
    };
    if args.first().map(String::as_str) == Some("--phy-sanity") {
        return Ok(Mode::PhySanity);
    }
    if args.first().map(String::as_str) == Some("--record") {
        let (first, last) = match args {
            [_, a, b] => (number("--record", a)?, number("--record", b)?),
            _ => return Err("--record needs <first-seed> <last-seed>".into()),
        };
        return Ok(Mode::Record(first, last));
    }
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds = number("--seconds", value("--seconds")?)?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace is 0 or 1, not {other:?}")),
    };
    let scale = match args.iter().position(|a| a == "--scale") {
        None => Scale::Full,
        Some(_) => match value("--scale")? {
            "small" => Scale::Small,
            other => return Err(format!("--scale is small, not {other:?}")),
        },
    };
    Ok(Mode::Measure(Args {
        workload,
        seed: number("--seed", value("--seed")?)?,
        budget: Duration::from_secs(seconds),
        trace,
        scale,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Mode::Measure(args)) => {
            print_build(&args);
            let result = if args.trace {
                traced(&args)
            } else {
                untraced(&args)
            };
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Ok(Mode::Record(first, last)) => {
            record(first, last);
            ExitCode::SUCCESS
        }
        Ok(Mode::PhySanity) => {
            phy_sanity();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One metric of the result object.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result object: the last line of standard output.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Build and input facts, one JSON line ahead of the result.
fn print_build(args: &Args) {
    println!(
        "{{\"build\": {{\"profile\": \"{}\", \"trace_feature\": {}, \"nproc\": {}, \"workload\": \"{}\", \"seed\": {}, \"scale\": \"{:?}\", \"reference_recorded\": {}}}}}",
        if cfg!(debug_assertions) { "debug" } else { "release" },
        cfg!(feature = "trace"),
        std::thread::available_parallelism().map_or(1, usize::from),
        args.workload.name(),
        args.seed,
        args.scale,
        args.scale == Scale::Full && check::reference(args.workload, args.seed).is_some(),
    );
}

/// Runs `f`, turning a panic into a failure message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// The end-to-end measurement: set up and run until the host budget is
/// spent, checking every run; medians of the passing runs.
fn untraced(args: &Args) -> Report {
    let spec = args.workload.spec(args.seed, args.scale);
    let budget = args.budget;
    let (mut setup_s, mut run_s, mut frames_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut first_digest = None;
    let setups_started = Instant::now();
    let mut setups = 0;
    while setups < SETUP_MIN
        || (setups < SETUP_MAX && setups_started.elapsed() < budget / SETUP_SHARE)
    {
        setups += 1;
        let timed_setup = || {
            let start = Instant::now();
            let ready = black_box(workload::setup(&spec, &|agent| agent));
            let elapsed = start.elapsed();
            drop(ready);
            elapsed
        };
        match guarded(timed_setup) {
            Ok(elapsed) => setup_s.push(elapsed.as_secs_f64()),
            Err(e) => {
                // A failed set-up is a failed operation; a successful one
                // is only a timing sample (the runs count as operations).
                attempted += 1;
                failed += 1;
                eprintln!("perfbench: {} set-up failed: {e}", spec.workload.name());
            }
        }
    }
    let started = Instant::now();
    let mut runs = 0;
    loop {
        let elapsed = started.elapsed();
        if runs >= MIN_RUNS {
            // Stop when one more run (at the mean so far) would overrun.
            let mean = elapsed / runs;
            if elapsed + mean > budget {
                break;
            }
        }
        runs += 1;
        attempted += 1;
        let verdict = guarded(|| workload::timed_run(&spec)).and_then(|(outcome, seconds)| {
            let digest = check::check(&spec, &outcome)?;
            if *first_digest.get_or_insert(digest) != digest {
                return Err(format!("run {runs} is not deterministic"));
            }
            Ok((outcome, seconds))
        });
        match verdict {
            Ok((outcome, seconds)) => {
                run_s.push(seconds);
                frames_per_s.push(outcome.frames() as f64 / seconds);
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: {} run {runs} failed: {e}", spec.workload.name());
            }
        }
    }
    eprintln!(
        "perfbench: {} seed {}: {runs} runs, {failed} failed, run_s min {:.3} max {:.3}",
        spec.workload.name(),
        args.seed,
        run_s.iter().copied().fold(f64::INFINITY, f64::min),
        run_s.iter().copied().fold(0.0, f64::max),
    );
    Report {
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", median_f64(setup_s), "s"),
            metric("run_s", median_f64(run_s), "s"),
            metric("frames_per_s", median_f64(frames_per_s), "1/s"),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        ],
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The per-layer measurement: one untraced run, one traced run of the
/// same inputs (their fingerprints must agree), then the layer probes.
fn traced(args: &Args) -> Report {
    let spec = args.workload.spec(args.seed, args.scale);
    let (mut attempted, mut failed) = (0, 0);
    let mut fail = |what: &str, e: String| {
        failed += 1;
        eprintln!("perfbench: {} {what} failed: {e}", spec.workload.name());
    };

    attempted += 1;
    let plain = guarded(|| workload::timed_run(&spec))
        .and_then(|(outcome, seconds)| Ok((check::check(&spec, &outcome)?, seconds)));
    let plain = plain.map_err(|e| fail("untraced run", e)).ok();

    attempted += 1;
    let traced = guarded(|| ledger::traced_run(&spec)).and_then(|t| {
        let digest = check::check(&spec, &t.outcome)?;
        match &plain {
            Some((want, _)) if *want != digest => Err(format!(
                "traced fingerprint {digest:016x} differs from the untraced {want:016x}"
            )),
            _ => Ok(t),
        }
    });
    let Ok(t) = traced.map_err(|e| fail("traced run", e)) else {
        return Report {
            attempted,
            failed,
            metrics: Vec::new(),
        };
    };

    let untraced_run_s = plain.as_ref().map_or(0.0, |(_, seconds)| *seconds);
    attempted += 1;
    let metrics = guarded(|| layer_metrics(&spec, &t, untraced_run_s)).unwrap_or_else(|e| {
        fail("layer probes", e);
        Vec::new()
    });
    Report {
        attempted,
        failed,
        metrics,
    }
}

/// The per-layer ledger of a traced run (`untraced_run_s` is the paired
/// untraced run's time, 0 when it failed).
fn layer_metrics(spec: &workload::Spec, t: &ledger::Traced, untraced_run_s: f64) -> Vec<Metric> {
    let frames = t.agents.frame_ns.len() as f64;
    let per_frame = |count: f64| if frames > 0.0 { count / frames } else { 0.0 };
    let totals = &t.outcome.totals;
    let bus_events: u64 = totals
        .agent_counters
        .iter()
        .filter(|(name, _)| name.starts_with("bus.") && name.ends_with(".events_in"))
        .map(|(_, v)| v)
        .sum();
    let us = |ns: &[u64], q: f64| {
        quantile(
            &mut ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>(),
            q,
        )
    };
    let mut pending: Vec<f64> = t.pending.iter().map(|&p| p as f64).collect();
    let pending_p50 = quantile(&mut pending, 0.5);
    let pending_max = quantile(&mut pending, 1.0);

    let all_frames: Vec<&[u8]> = t
        .agents
        .captured
        .iter()
        .flatten()
        .map(|(_, b)| b.as_slice())
        .collect();
    let (decode_ns, encode_ns) = ledger::codec_ns(&all_frames, CODEC_BUDGET);
    let table1 = ledger::table1(&t.agents.captured);
    let phy = match spec.phy.model {
        model if model.is_ideal() => ledger::PhyLedger::default(),
        model => {
            let topology = spec.scenario.topology().build();
            ledger::phy_probe(
                &model,
                &topology,
                &spec.scenario.traffic()[0],
                PHY_PROBE_SPAN,
            )
        }
    };
    let netsim_s = t.netsim_ns as f64 / 1e9;

    vec![
        metric(
            "simkern.hold_ns",
            ledger::hold_ns(pending_p50 as usize, spec.seed),
            "ns",
        ),
        metric("simkern.pending_p50", pending_p50, "count"),
        metric("simkern.pending_max", pending_max, "count"),
        metric("netsim.self_s", netsim_s, "s"),
        metric(
            "netsim.ns_per_frame",
            t.netsim_ns as f64 / (t.outcome.frames().max(1)) as f64,
            "ns",
        ),
        metric("phy.enqueue_ns", phy.enqueue_ns, "ns"),
        metric("phy.complete_ns", phy.complete_ns, "ns"),
        metric("phy.stale_share", phy.stale_share, "ratio"),
        metric("phy.resched_per_call", phy.resched_per_call, "count"),
        metric("phy.active_mean", phy.active_mean, "count"),
        metric("core.self_s", t.agents.callback_ns as f64 / 1e9, "s"),
        metric("core.frame_us_p50", us(&t.agents.frame_ns, 0.5), "us"),
        metric("core.frame_us_p99", us(&t.agents.frame_ns, 0.99), "us"),
        metric("core.timer_us_p50", us(&t.agents.timer_ns, 0.5), "us"),
        metric("core.callbacks", t.agents.callbacks as f64, "count"),
        metric(
            "core.bus_rounds_per_frame",
            per_frame(totals.agent_counter("bus.dispatch_rounds") as f64),
            "count",
        ),
        metric(
            "core.bus_events_per_frame",
            per_frame(bus_events as f64),
            "count",
        ),
        metric("packetbb.decode_ns", decode_ns, "ns"),
        metric("packetbb.encode_ns", encode_ns, "ns"),
        metric(
            "packetbb.bytes_per_frame",
            per_frame(t.agents.frame_bytes as f64),
            "B",
        ),
        metric(
            "olsr.route_syncs_per_frame",
            per_frame(totals.agent_counter("tc_processed") as f64),
            "count",
        ),
        metric("table1.olsr_mkit_ns", table1.olsr_mkit_ns, "ns"),
        metric("table1.olsr_mono_ns", table1.olsr_mono_ns, "ns"),
        metric("table1.dymo_mkit_ns", table1.dymo_mkit_ns, "ns"),
        metric("table1.dymo_mono_ns", table1.dymo_mono_ns, "ns"),
        metric(
            "adapt.tick_us",
            median_f64(t.tick_ns.iter().map(|&n| n as f64 / 1e3).collect()),
            "us",
        ),
        metric(
            "adapt.switch_ms",
            median_f64(t.switch_ns.iter().map(|&n| n as f64 / 1e6).collect()),
            "ms",
        ),
        metric("adapt.switches", t.outcome.switches as f64, "count"),
        metric("stats.snapshot_us", t.snapshot_us, "us"),
        metric(
            "bench.trace_overhead",
            if untraced_run_s > 0.0 {
                t.run_s / untraced_run_s - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
        metric("rss.nodes", t.outcome.nodes as f64, "count"),
        metric(
            "rss.latency_samples",
            (totals.delivery_latencies_us.len() + totals.phy_queue_wait_us.len()) as f64,
            "count",
        ),
    ]
}

/// Prints `workload seed digest` for every workload and seed in range.
fn record(first: u64, last: u64) {
    for workload in Workload::ALL {
        for seed in first..=last {
            let spec = workload.spec(seed, Scale::Full);
            let (outcome, _) = workload::timed_run(&spec);
            match check::check_against(&spec, &outcome, None) {
                Ok(digest) => println!("{} {seed} {digest:016x}", workload.name()),
                Err(e) => eprintln!("perfbench: {} seed {seed} fails: {e}", workload.name()),
            }
        }
    }
}

/// Drives the phy engine at the full E19 heavy-load shape (800 nodes,
/// radius 0.08, 360 flows of 84-byte datagrams every 250 ms, placement
/// seed 42, flow seed 7, 128 kbit/s shared airtime).
fn phy_sanity() {
    let model = netsim::PhyModel::SharedAirtime(netsim::Channel {
        bits_per_sec: workload::PHY_BITS_PER_SEC,
        queue_frames: workload::PHY_QUEUE_FRAMES,
    });
    let topology = Topology::random_spatial(800, 0.08, 42);
    let traffic =
        TrafficSpec::random_flows(360, SimDuration::from_millis(250), workload::PHY_PAYLOAD, 7);
    let started = Instant::now();
    let phy = ledger::phy_probe(&model, &topology, &traffic, PHY_PROBE_SPAN);
    println!(
        "e19 heavy/air128k phy probe, {} s simulated: active_mean {:.1}, stale_share {:.3}, resched_per_call {:.2}, enqueue {:.0} ns, complete {:.0} ns, {} frames, {:.2} s host",
        PHY_PROBE_SPAN.as_secs_f64(),
        phy.active_mean,
        phy.stale_share,
        phy.resched_per_call,
        phy.enqueue_ns,
        phy.complete_ns,
        phy.frames,
        started.elapsed().as_secs_f64(),
    );
}
