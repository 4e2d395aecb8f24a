//! Tracing integration: the 8-thread contention soak (satellite 4) and
//! the whole-model HTTP acceptance path — one `POST /v1/execute` graph
//! request yields a retrievable trace whose spans cover admission,
//! queue, one tape dispatch per plan step, and the epilogue, and the
//! collector's Chrome export parses as valid JSON.
//!
//! The JSON validator below is a minimal hand-rolled recursive-descent
//! checker (no serde in this workspace) — it accepts exactly the JSON
//! value grammar, which is all "loads in chrome://tracing" requires of
//! the export's *syntax*.

use std::sync::Arc;
use std::time::Duration;

use unit_core::pipeline::TuningConfig;
use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
use unit_graph::OpSpec;
use unit_serve::net::http_request;
use unit_serve::{
    HttpServer, HttpServerConfig, Scheduler, SchedulerConfig, ServeEngine, ServeRequest,
    TRACE_EXEMPLARS, TRACE_RING_CAPACITY,
};

const TIMEOUT: Duration = Duration::from_secs(30);

fn fast_tuning() -> TuningConfig {
    TuningConfig {
        cpu: CpuTuneMode::ParallelUnroll,
        gpu: GpuTuneMode::Generic,
    }
}

/// Validate `input` as one complete JSON value. Returns `Err` with a
/// byte offset + reason on the first syntax violation.
fn validate_json(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, "true"),
        Some(b'f') => parse_literal(b, pos, "false"),
        Some(b'n') => parse_literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos:?}")),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b.get(*pos..*pos + lit.len()) == Some(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos:?}"))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos:?}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos:?}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // [
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos:?}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos:?}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                let esc = b.get(*pos + 1).copied();
                match esc {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                    Some(b'u') => {
                        let hex = b.get(*pos + 2..*pos + 6).ok_or("truncated \\u escape")?;
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(format!("bad \\u escape at byte {pos:?}"));
                        }
                        *pos += 6;
                    }
                    _ => return Err(format!("bad escape at byte {pos:?}")),
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at {pos:?}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
    }
    if *pos == start || (*pos == start + 1 && b[start] == b'-') {
        return Err(format!("empty number at byte {start}"));
    }
    Ok(())
}

#[test]
fn json_validator_accepts_and_rejects() {
    for good in [
        "{}",
        "[]",
        "{\"a\":[1,2.5,-3e8,true,false,null,\"x\\n\\u0041\"]}",
        "  {\"traceEvents\":[{\"ph\":\"X\"}]} ",
    ] {
        assert!(validate_json(good).is_ok(), "{good}");
    }
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "{\"a\" 1}",
        "\"unterminated",
        "{} trailing",
        "{\"a\":\"\u{1}\"}",
    ] {
        assert!(validate_json(bad).is_err(), "{bad:?} should be rejected");
    }
}

/// Satellite 4: eight client threads hammer one traced scheduler. No
/// torn spans, memory stays bounded, and every finished trace is either
/// retained in the ring or counted as dropped (mirrored in the
/// `trace_dropped` metric). The Chrome export must stay valid JSON
/// under the load.
#[test]
fn eight_thread_soak_keeps_traces_consistent_and_bounded() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 48;
    let engine = Arc::new(ServeEngine::new(fast_tuning()).with_tracing());
    let scheduler = Arc::new(Scheduler::start(
        Arc::clone(&engine),
        SchedulerConfig::default(),
    ));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let scheduler = Arc::clone(&scheduler);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Two shapes so batches fuse sometimes and split
                    // sometimes; both compile once and then hit caches.
                    let op = if (t + i) % 2 == 0 {
                        OpSpec::gemm(8, 8, 8)
                    } else {
                        OpSpec::gemm(16, 16, 16)
                    };
                    let (_, rx) = scheduler
                        .submit(ServeRequest {
                            model: format!("soak-{t}"),
                            target: "x86-avx512-vnni".to_string(),
                            op,
                            seed: t * PER_THREAD + i,
                        })
                        .expect("submit");
                    let resp = rx.recv().expect("response");
                    assert!(resp.result.is_ok(), "{:?}", resp.result);
                    assert!(resp.trace_id.is_some(), "tracing is on: ids required");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("soak thread");
    }

    let tracer = engine.tracer();
    let metrics = engine.metrics();
    let total = THREADS * PER_THREAD;
    assert_eq!(
        metrics.traces_recorded(),
        total,
        "every request finished a trace"
    );

    // Accounting: a finished trace is in the ring XOR counted dropped,
    // so in-ring occupancy is exactly recorded - dropped.
    let in_ring = metrics.traces_recorded() - metrics.trace_dropped();
    assert!(in_ring <= TRACE_RING_CAPACITY as u64);
    assert!(
        metrics.trace_dropped() >= total - TRACE_RING_CAPACITY as u64,
        "overflow must be counted, not silently grown"
    );
    let retained = tracer.traces();
    assert!(
        retained.len() as u64 <= in_ring + TRACE_EXEMPLARS as u64,
        "bounded memory: ring plus exemplars only"
    );

    // No torn spans anywhere: concurrent recording never produced a
    // span with inverted bounds, an empty name, or an unfinished trace.
    for trace in &retained {
        assert!(trace.end_us().is_some(), "retained traces are finished");
        let spans = trace.spans();
        assert!(!spans.is_empty(), "trace {} has no spans", trace.id);
        for span in &spans {
            assert!(!span.name.is_empty());
            assert!(
                span.end_us >= span.start_us,
                "torn span {} in trace {}",
                span.name,
                trace.id
            );
            assert!(span.lane > 0, "lane ids are minted from 1");
        }
        // The serve-path taxonomy: every request passed admission,
        // waited in the queue, and sent a reply.
        for required in ["admission", "queue", "reply"] {
            assert!(
                spans.iter().any(|s| s.name == required),
                "trace {} is missing `{required}`",
                trace.id
            );
        }
    }

    let export = tracer.export_chrome();
    validate_json(&export).expect("chrome export is valid JSON");

    drop(scheduler);
}

/// The PR's acceptance path: a single whole-model `POST /v1/execute`
/// yields a retrievable trace covering admission, queue, one
/// `tape_dispatch` per plan step, and the epilogue — and the fleet's
/// trace/metrics endpoints serve it.
#[test]
fn whole_model_http_request_yields_a_complete_timeline() {
    let engine = Arc::new(ServeEngine::new(fast_tuning()).with_tracing());
    let scheduler = Arc::new(Scheduler::start(engine, SchedulerConfig::default()));
    let server = HttpServer::start(Arc::clone(&scheduler), HttpServerConfig::default())
        .expect("bind front-end");
    let addr = server.local_addr();

    // Dev profile serves the structurally-identical micro model (same 8
    // plan steps); release serves transformer-tiny itself.
    let graph = if cfg!(debug_assertions) {
        "transformer-micro"
    } else {
        "transformer-tiny"
    };
    let body = format!("graph {graph}\ntarget x86-avx512-vnni\nseed 7\nmode fused\n");
    let (status, response) =
        http_request(addr, "POST", "/v1/execute", &body, TIMEOUT).expect("model request");
    assert_eq!(status, 200, "{response}");
    let steps: usize = response
        .lines()
        .find_map(|l| l.strip_prefix("steps "))
        .expect("steps line")
        .parse()
        .expect("steps parses");
    assert_eq!(steps, 8, "the transformer plans serve as 8 dispatches");
    let trace_id = response
        .lines()
        .find_map(|l| l.strip_prefix("trace "))
        .expect("tracing is on: the body names its trace");

    let (status, timeline) =
        http_request(addr, "GET", &format!("/v1/trace/{trace_id}"), "", TIMEOUT)
            .expect("trace fetch");
    assert_eq!(status, 200, "{timeline}");
    assert!(
        timeline.starts_with(&format!("trace {trace_id}\n")),
        "{timeline}"
    );
    for required in ["admission", "queue", "epilogue", "reply"] {
        assert!(
            timeline.contains(&format!("span {required} ")),
            "timeline is missing `{required}`:\n{timeline}"
        );
    }
    let dispatches = timeline
        .lines()
        .filter(|l| l.starts_with("span tape_dispatch "))
        .count();
    assert_eq!(dispatches, steps, "one tape dispatch per plan step");
    let epilogues = timeline
        .lines()
        .filter(|l| l.starts_with("span epilogue "))
        .count();
    assert_eq!(epilogues, steps, "one epilogue span per plan step");
    // The dispatch spans carry the tape execution profile.
    assert!(timeline.contains("ops_retired="), "{timeline}");

    // Unknown ids are 404s, not errors.
    let (status, _) =
        http_request(addr, "GET", "/v1/trace/999999999", "", TIMEOUT).expect("miss fetch");
    assert_eq!(status, 404);

    let (status, export) =
        http_request(addr, "GET", "/v1/traces?export=chrome", "", TIMEOUT).expect("export");
    assert_eq!(status, 200);
    validate_json(&export).expect("chrome export is valid JSON");
    assert!(export.contains("\"ph\":\"X\""), "complete events");
    assert!(export.contains(&format!("\"pid\":{trace_id}")), "{export}");

    let (status, prom) = http_request(addr, "GET", "/metrics?format=prometheus", "", TIMEOUT)
        .expect("prometheus metrics");
    assert_eq!(status, 200);
    for series in [
        "# TYPE unit_serve_request_latency_us histogram",
        "unit_serve_request_latency_us_bucket{le=\"+Inf\"}",
        "unit_serve_queue_wait_us_sum",
        "unit_serve_service_us_count",
        "unit_serve_traces_recorded",
    ] {
        assert!(prom.contains(series), "missing `{series}`:\n{prom}");
    }

    server.shutdown();
}
