//! HTTP front-end integration: a real replica behind a real TCP socket.
//! Responses must be bit-identical to `run_reference`, the status
//! mapping must hold on the wire, and shutdown must be clean (the port
//! refuses new connections afterwards).

use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use unit_core::pipeline::TuningConfig;
use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
use unit_graph::OpSpec;
use unit_interp::{alloc_op_buffers, random_fill, run_reference};
use unit_isa::registry;
use unit_serve::net::{encode_typed_buf, http_request};
use unit_serve::{HttpServer, HttpServerConfig, Scheduler, SchedulerConfig, ServeEngine};

const TIMEOUT: Duration = Duration::from_secs(30);

fn start_server() -> (Arc<Scheduler>, HttpServer) {
    start_server_with(HttpServerConfig::default())
}

fn start_server_with(config: HttpServerConfig) -> (Arc<Scheduler>, HttpServer) {
    let tuning = TuningConfig {
        cpu: CpuTuneMode::ParallelUnroll,
        gpu: GpuTuneMode::Generic,
    };
    let engine = Arc::new(ServeEngine::new(tuning));
    let scheduler = Arc::new(Scheduler::start(engine, SchedulerConfig::default()));
    let server = HttpServer::start(Arc::clone(&scheduler), config).expect("bind front-end");
    (scheduler, server)
}

/// The reference output for `(target, op, seed)`, encoded exactly like
/// the server encodes its response buffers.
fn reference_encoding(target: &str, op: &OpSpec, seed: u64) -> String {
    let desc = registry::target_by_id(target).expect("registered target");
    let (lowered, _) = unit_graph::layout::op_for_target(op, &desc);
    let mut bufs = alloc_op_buffers(&lowered);
    random_fill(&mut bufs, seed);
    run_reference(&lowered, &mut bufs).expect("reference executes");
    encode_typed_buf(&bufs.swap_remove(lowered.output.0 as usize))
}

#[test]
fn execute_over_http_is_bit_identical_to_run_reference() {
    let (scheduler, server) = start_server();
    let addr = server.local_addr();
    let target = "x86-avx512-vnni";
    let op = OpSpec::gemm(16, 16, 16);

    for seed in [0u64, 7, 42] {
        let body = format!(
            "model m\ntarget {target}\nop {}\nseed {seed}\n",
            op.encode()
        );
        let (status, response) =
            http_request(addr, "POST", "/v1/execute", &body, TIMEOUT).expect("request");
        assert_eq!(status, 200, "{response}");
        let expected = reference_encoding(target, &op, seed);
        let (_, payload) = response
            .split_once("dtype ")
            .unwrap_or_else(|| panic!("no buffer in response: {response}"));
        assert_eq!(
            format!("dtype {payload}"),
            expected,
            "seed {seed}: HTTP payload diverged from run_reference"
        );
        // Repeating the request is bit-identical (served from cache) —
        // modulo the per-request `id` line, which must increment.
        let (status, again) =
            http_request(addr, "POST", "/v1/execute", &body, TIMEOUT).expect("repeat");
        assert_eq!(status, 200);
        let strip_id = |s: &str| -> String {
            s.lines()
                .filter(|l| !l.starts_with("id "))
                .map(|l| format!("{l}\n"))
                .collect()
        };
        assert_eq!(
            strip_id(&again),
            strip_id(&response),
            "seed {seed}: responses are not stable"
        );
    }

    let (status, metrics) = http_request(addr, "GET", "/metrics", "", TIMEOUT).expect("metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.starts_with("# unit-serve metrics v6\n"),
        "{metrics}"
    );
    assert!(metrics.contains("http_requests "), "{metrics}");
    let (status, health) = http_request(addr, "GET", "/healthz", "", TIMEOUT).expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(health, "ok\n");

    // Clean shutdown: the socket stops accepting and the scheduler
    // still drains in-process submissions afterwards.
    server.shutdown();
    assert!(
        http_request(addr, "GET", "/healthz", "", Duration::from_millis(500)).is_err(),
        "port must refuse connections after shutdown"
    );
    let (_, rx) = scheduler
        .submit(unit_serve::ServeRequest {
            model: "m".to_string(),
            target: target.to_string(),
            op,
            seed: 0,
        })
        .expect("scheduler outlives the front-end");
    assert!(rx.recv().unwrap().result.is_ok());
}

#[test]
fn whole_model_serving_over_http_is_mode_invariant() {
    let (_scheduler, server) = start_server();
    let addr = server.local_addr();
    let target = "x86-avx512-vnni";

    // Fused: the whole transformer forward as one artifact. The
    // smoke-sized encoder keeps the interpreted forward inside the
    // socket timeouts on the dev profile; the full transformer-tiny
    // model runs through the same route in the release differential
    // suites and the e2e_latency bench.
    let body = format!("graph transformer-micro\ntarget {target}\nseed 11\n");
    let (status, fused) =
        http_request(addr, "POST", "/v1/execute", &body, TIMEOUT).expect("request");
    assert_eq!(status, 200, "{fused}");
    assert!(
        fused.contains("ok\nmodel transformer-micro\nmode fused\n"),
        "{fused}"
    );
    assert!(fused.contains("\nsteps 8\n"), "{fused}");
    assert!(fused.contains("\nfused_epilogue_ops 17\n"), "{fused}");
    assert!(fused.contains("\nshape 1 8 16\n"), "{fused}");

    // Unfused: same plan, same bits, zero fused ops.
    let body = format!("graph transformer-micro\ntarget {target}\nseed 11\nmode unfused\n");
    let (status, unfused) =
        http_request(addr, "POST", "/v1/execute", &body, TIMEOUT).expect("request");
    assert_eq!(status, 200, "{unfused}");
    assert!(unfused.contains("\nmode unfused\n"), "{unfused}");
    assert!(unfused.contains("\nfused_epilogue_ops 0\n"), "{unfused}");
    let data = |resp: &str| {
        resp.lines()
            .find(|l| l.starts_with("data "))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no data line: {resp}"))
    };
    assert_eq!(
        data(&fused),
        data(&unfused),
        "serving mode must never be observable in the payload"
    );

    // 400: unknown graph, bad mode, missing seed.
    for body in [
        "graph resnet-900\ntarget x86-avx512-vnni\nseed 0",
        "graph transformer-tiny\ntarget x86-avx512-vnni\nseed 0\nmode sideways",
        "graph transformer-tiny\ntarget x86-avx512-vnni",
        "graph transformer-tiny\ntarget no-such-target\nseed 0",
    ] {
        let (status, text) =
            http_request(addr, "POST", "/v1/execute", body, TIMEOUT).expect("request");
        assert_eq!(status, 400, "{body:?} -> {text}");
    }

    server.shutdown();
}

#[test]
fn wire_status_mapping_holds() {
    let (_scheduler, server) = start_server();
    let addr = server.local_addr();

    // 400: malformed body, unknown target, bad op.
    for body in [
        "not a request",
        "model m\ntarget no-such-target\nop gemm:1:8:8:8\nseed 0",
        "model m\ntarget x86-avx512-vnni\nop gemm:0:0:0:0\nseed 0",
    ] {
        let (status, text) =
            http_request(addr, "POST", "/v1/execute", body, TIMEOUT).expect("request");
        assert_eq!(status, 400, "{body:?} -> {text}");
    }

    // 404 / 405.
    let (status, _) = http_request(addr, "GET", "/nope", "", TIMEOUT).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_request(addr, "GET", "/v1/execute", "", TIMEOUT).unwrap();
    assert_eq!(status, 405);
    let (status, _) = http_request(addr, "POST", "/metrics", "", TIMEOUT).unwrap();
    assert_eq!(status, 405);

    // 413: a body over the limit is rejected before parsing.
    let huge = "x".repeat(32 * 1024);
    let (status, _) = http_request(addr, "POST", "/v1/execute", &huge, TIMEOUT).unwrap();
    assert_eq!(status, 413);

    // 500: an execution error (validation failure inside the engine)
    // comes back as a typed server error, not a dropped connection.
    let body = "model bad|model\ntarget x86-avx512-vnni\nop gemm:1:8:8:8\nseed 0";
    let (status, text) = http_request(addr, "POST", "/v1/execute", body, TIMEOUT).unwrap();
    assert!(
        status == 400 || status == 500,
        "invalid model id maps to a client/server error, got {status}: {text}"
    );

    server.shutdown();
}

#[test]
fn over_cap_connection_gets_503_and_counts_as_an_http_error() {
    let (scheduler, server) = start_server_with(HttpServerConfig {
        max_connections: 1,
        ..HttpServerConfig::default()
    });
    let addr = server.local_addr();
    // A takes the only slot: its handler blocks reading a request that
    // never comes. The single accept loop takes A before B.
    let idle = TcpStream::connect(addr).expect("connect A");
    // B sends nothing, so the server's close after the 503 is a clean
    // FIN rather than a reset.
    let mut over_cap = TcpStream::connect(addr).expect("connect B");
    over_cap
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    let mut response = String::new();
    over_cap
        .read_to_string(&mut response)
        .expect("read the 503");
    assert!(response.starts_with("HTTP/1.1 503 "), "{response}");
    let metrics = scheduler.engine().metrics();
    assert_eq!(metrics.http_errors(), 1, "the 503 is a non-2xx response");
    assert_eq!(metrics.http_requests(), 0, "no request was parsed");
    drop(idle);
    server.shutdown();
}
