//! `perfbench` — the repository's layered, offline serving benchmark.
//!
//! ```text
//! perfbench --workload <model-http|ops-openloop|cold-start|all>
//!           --seed <n> --seconds <RUN_SECONDS> --trace <0|1>
//! ```
//!
//! A run prints a fingerprint, a table of every metric with its unit,
//! and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and the metrics: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. The program exits non-zero
//! when any output differs from its oracle. `--workload all` runs each
//! workload in a child process of its own. `README.md` beside
//! `Cargo.toml` describes the workloads and the layer → metric →
//! workload map.

mod cold_start;
mod model_http;
mod ops_openloop;
mod probes;
mod report;
mod serving;
mod spans;
mod stats;
mod sys;

use std::collections::HashMap;
use std::process::{Command, ExitCode};

use report::{Metrics, TARGETS};
use serving::BootSummary;
use spans::SpanLog;

const WORKLOADS: [&str; 3] = ["model-http", "ops-openloop", "cold-start"];
/// Seconds one run measures. The benchmark sets it, not the caller, so
/// every run of every commit measures the same length and the bounds in
/// `BENCHMARK.json` (which records it as `run_seconds`) stay comparable;
/// `--seconds` must repeat it.
const RUN_SECONDS: u64 = 25;
/// Seconds of the short traced pass of each workload a traced run did
/// not select.
const PROBE_SECONDS: f64 = 2.0;
/// The traced run fails when more than this share of a traced forward
/// is explained by no layer.
const COVERAGE_LIMIT: f64 = 0.05;

/// What one workload run produced.
pub struct Outcome {
    /// Requests (or compiles) attempted.
    pub attempted: u64,
    /// Failed or refused.
    pub failed: u64,
    /// Answered, but not bit-identical to the oracle.
    pub wrong: u64,
    /// End-to-end metrics (untraced).
    pub e2e: Metrics,
    /// Human-readable remarks printed with the table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome with the given counts and metrics.
    #[must_use]
    pub fn new(attempted: u64, failed: u64, wrong: u64, e2e: Metrics) -> Outcome {
        Outcome {
            attempted,
            failed,
            wrong,
            e2e,
            notes: Vec::new(),
        }
    }

    fn count(&mut self, (attempted, failed, wrong): (u64, u64, u64)) {
        self.attempted += attempted;
        self.failed += failed;
        self.wrong += wrong;
    }
}

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <model-http|ops-openloop|cold-start|all> --seed <n> \
         --seconds {RUN_SECONDS} --trace <0|1>"
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds != RUN_SECONDS {
        return Err(format!(
            "the run length is fixed: --seconds must be {RUN_SECONDS}"
        ));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        trace,
    })
}

fn untraced(workload: &str, seed: u64) -> Result<Outcome, String> {
    let seconds = RUN_SECONDS as f64;
    match workload {
        "model-http" => model_http::run(seed, seconds),
        "ops-openloop" => ops_openloop::run(seed, seconds),
        "cold-start" => cold_start::run(seed, seconds),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The traced run. The selected workload runs half its time untraced
/// and half traced; the gap between the two medians is
/// `trace.overhead_frac`. The other two workloads run a short traced
/// pass, so every layer is measured on every run whichever workload
/// was asked for. Layer probes around single public calls come first.
fn traced(workload: &str, seed: u64, log: &mut SpanLog) -> Result<(Outcome, Metrics), String> {
    let mut m = Metrics::default();
    let half = RUN_SECONDS as f64 / 2.0;

    let (mut isa, mut plan) = (HashMap::new(), HashMap::new());
    for target in TARGETS {
        let (p, intrinsic) = model_http::probe_plan(target)?;
        let ns = probes::isa_execute_ns(target, &intrinsic)
            .ok_or(format!("{target}: no instruction `{intrinsic}`"))?;
        m.set(format!("isa.execute_ns.{target}"), ns);
        isa.insert(target.to_string(), ns);
        plan.insert(target.to_string(), p);
        let rho = probes::sim_spearman(target).ok_or(format!("{target}: no rank correlation"))?;
        m.set(format!("sim.spearman.{target}"), rho);
    }

    let mut selected: Option<Outcome> = None;
    let mut tally = Outcome::new(0, 0, 0, Metrics::default());

    let fx = model_http::setup(seed)?;
    let (door, boot) = model_http::boot(&fx)?;
    let secs = if workload == "model-http" {
        let base = model_http::drive(&fx, &door, 0, half, false);
        tally.count(base.counts());
        let traced = model_http::drive(&fx, &door, 1, half, true);
        m.set(
            "trace.overhead_frac",
            model_http::p50_ms(&traced) / model_http::p50_ms(&base) - 1.0,
        );
        selected = Some(model_http::outcome(&BootSummary::of(&[boot]), vec![base])?);
        traced
    } else {
        model_http::drive(&fx, &door, 0, PROBE_SECONDS, true)
    };
    tally.count(secs.counts());
    model_http::layers(&door, &secs, &isa, &plan, log, &mut m);
    drop((door, fx));

    let fx = ops_openloop::setup(seed)?;
    let (door, boot) = ops_openloop::boot(&fx)?;
    m.set(
        "bench.saturating_rps",
        ops_openloop::saturating_rps(&fx, &door, 1.0)?,
    );
    let rate = ops_openloop::OFFERED_RPS;
    if workload == "ops-openloop" {
        let base = ops_openloop::drive(&fx, &door, rate, half, false);
        tally.count(base.counts());
        let base_p50 = ops_openloop::p50_ms(&base);
        selected = Some(ops_openloop::outcome(
            &BootSummary::of(&[boot]),
            vec![base],
        )?);
        let before = ops_openloop::fusion_counters(&door);
        let traced = ops_openloop::drive(&fx, &door, rate, half, true);
        tally.count(traced.counts());
        m.set(
            "trace.overhead_frac",
            ops_openloop::p50_ms(&traced) / base_p50 - 1.0,
        );
        ops_openloop::layers(&door, &traced, before, log, &mut m);
    } else {
        let before = ops_openloop::fusion_counters(&door);
        let traced = ops_openloop::drive(&fx, &door, rate, PROBE_SECONDS, true);
        tally.count(traced.counts());
        ops_openloop::layers(&door, &traced, before, log, &mut m);
    }
    drop((door, fx));

    let fx = cold_start::setup(seed);
    let cycles = if workload == "cold-start" {
        let base = cold_start::run_cycles(&fx, half, None);
        let traced = cold_start::run_cycles(&fx, half, Some(&mut *log));
        m.set(
            "trace.overhead_frac",
            cold_start::p50_ms(&traced) / cold_start::p50_ms(&base) - 1.0,
        );
        let out = cold_start::outcome(&fx, &base)?;
        tally.count((out.attempted, out.failed, out.wrong));
        selected = Some(out);
        traced
    } else {
        cold_start::run_cycles(&fx, 0.0, Some(&mut *log))
    };
    tally.count(cold_start::counts(&cycles));
    cold_start::layers(&fx, &cycles, log, &mut m);

    let mut out = selected.expect("the selected workload ran");
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.wrong = tally.wrong;
    Ok((out, m))
}

fn self_time_table(log: &SpanLog) -> String {
    let table = log.layer_table();
    let total: u64 = table.values().map(|&(_, us)| us).sum();
    let mut rows: Vec<_> = table.into_iter().collect();
    rows.sort_by_key(|(_, (_, us))| std::cmp::Reverse(*us));
    let mut out = "== self time by layer (traced run)\n".to_string();
    for (name, (count, us)) in rows {
        out.push_str(&format!(
            "  {name:<24} {count:>8} spans {:>12.3} ms {:>6.2}%\n",
            us as f64 / 1e3,
            100.0 * us as f64 / total.max(1) as f64
        ));
    }
    out
}

/// Run one workload and print its report; returns whether every output
/// was correct.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let mut fp = sys::Fingerprint::capture(workload, args.seed);
    if fp.overloaded() {
        println!("warning: the machine was busier than its cores when the run started");
    }
    let mut log = SpanLog::default();
    let (out, layers) = if args.trace {
        let (mut out, m) = traced(workload, args.seed, &mut log)?;
        out.notes.push(
            "peak_rss_mb is not measured here: the traced run sets up every workload in one \
             process"
                .to_string(),
        );
        (out, Some(m))
    } else {
        let mut out = untraced(workload, args.seed)?;
        // The high-water mark only rises; it is this workload's own
        // because an untraced run is one process running one workload.
        out.e2e.set("peak_rss_mb", sys::peak_rss_mb());
        (out, None)
    };
    fp.finish();

    println!("fingerprint {}", fp.json());
    let mut correct = out.wrong == 0;
    let e2e_title = if args.trace {
        format!("{workload}: end to end (untraced half of the traced run)")
    } else {
        format!("{workload}: end to end")
    };
    let mut e2e_shown = out.e2e.clone();
    e2e_shown.set("wrong_outputs", out.wrong as f64);
    e2e_shown.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let mut shown = report::end_to_end();
    shown.extend(report::UNBOUNDED.iter().map(|&(n, u)| (n.to_string(), u)));
    print!("{}", report::table(&e2e_title, &e2e_shown, &shown));
    for note in &out.notes {
        println!("  note: {note}");
    }
    let line = match layers {
        Some(m) => {
            print!(
                "{}",
                report::table(&format!("{workload}: per layer"), &m, &report::per_layer())
            );
            print!("{}", self_time_table(&log));
            let gap = m.get("trace.coverage_gap_frac").unwrap_or(f64::INFINITY);
            if gap > COVERAGE_LIMIT {
                println!(
                    "coverage check FAILED: {:.2}% of traced forwards unexplained",
                    gap * 100.0
                );
                correct = false;
            } else {
                println!(
                    "coverage check passed: {:.2}% of traced forwards unexplained",
                    gap * 100.0
                );
            }
            let path = sys::out_dir().join(format!("spans-{workload}-{}.json", args.seed));
            log.write_chrome(&path)
                .map_err(|e| format!("span file: {e}"))?;
            println!("spans written to {}", path.display());
            report::result_line(correct, out.attempted, out.failed, &m, &report::per_layer())
        }
        None => report::result_line(
            correct,
            out.attempted,
            out.failed,
            &out.e2e,
            &report::end_to_end(),
        ),
    };
    if out.wrong > 0 {
        println!("{} outputs differed from their oracle", out.wrong);
    }
    println!("{line}");
    Ok(correct)
}

/// `--workload all`: each workload in a child process of its own, so
/// process-wide figures such as the memory high-water mark stay each
/// workload's own.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let (seed, seconds) = (args.seed.to_string(), RUN_SECONDS.to_string());
    let trace = if args.trace { "1" } else { "0" };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload, "--seed", seed.as_str()])
            .args(["--seconds", seconds.as_str(), "--trace", trace])
            .status()
            .map_err(|e| format!("{workload}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // Start the span clock before any engine exists.
    let _ = spans::now_us();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args.workload, &args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
