//! A minimal blocking HTTP/1.1 client: one connection per request,
//! `connection: close`, which is the whole protocol the service speaks.

use crate::measure::Tally;
use crate::trace::Tracer;
use ensemfdet::MonitorConfig;
use ensemfdet_service::api::{parse_csv_pairs, Api, ApiConfig};
use ensemfdet_service::http::Request;
use ensemfdet_service::server::{Server, ServerConfig, ServerHandle};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A response: status code and parsed JSON body (`Null` if not JSON).
pub struct Reply {
    pub status: u16,
    pub json: Value,
}

/// Sends one request and reads the whole response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("{method} {path}: send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: read: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: response without a header end"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    let json = serde_json::from_slice(&raw[split + 4..]).unwrap_or(Value::Null);
    Ok(Reply { status, json })
}

/// `POST` with a JSON body, requiring `expect` as the status.
pub fn post_json(addr: SocketAddr, path: &str, body: &str, expect: u16) -> Result<Value, String> {
    let r = request(addr, "POST", path, "application/json", body.as_bytes())?;
    if r.status != expect {
        return Err(format!("POST {path}: status {} ({})", r.status, r.json));
    }
    Ok(r.json)
}

/// `POST /v1/transactions` with a `text/csv` body; returns the number of
/// records acknowledged, which must be every record of the body.
pub fn post_csv(addr: SocketAddr, body: &[u8]) -> Result<u64, String> {
    let r = request(addr, "POST", "/v1/transactions", "text/csv", body)?;
    if r.status != 200 {
        return Err(format!(
            "POST /v1/transactions: status {} ({})",
            r.status, r.json
        ));
    }
    let sent = crate::data::records(body);
    match r.json["ingested"].as_u64() {
        Some(n) if n == sent => Ok(n),
        other => Err(format!(
            "POST /v1/transactions: {other:?} of {sent} records acknowledged"
        )),
    }
}

/// `GET` requiring status 200.
pub fn get(addr: SocketAddr, path: &str) -> Result<Value, String> {
    let r = request(addr, "GET", path, "application/json", b"")?;
    if r.status != 200 {
        return Err(format!("GET {path}: status {} ({})", r.status, r.json));
    }
    Ok(r.json)
}

/// A finished scan job as the client observed it.
pub struct ScanJob {
    /// From sending `POST /v1/scans` until a poll read `done`.
    pub latency_s: f64,
    /// The job's `queue_wait_millis` as the service reported it.
    pub queue_wait_ms: f64,
    /// The job's `result` object.
    pub result: Value,
}

/// Submits a scan with `overrides` and polls it every `poll` until it
/// reads `done`. A `failed` job, or any other status, is an error.
pub fn scan(addr: SocketAddr, overrides: &str, poll: Duration) -> Result<ScanJob, String> {
    let started = std::time::Instant::now();
    let submitted = post_json(addr, "/v1/scans", overrides, 202)?;
    let id = submitted["job_id"]
        .as_u64()
        .ok_or_else(|| "POST /v1/scans: no job_id".to_string())?;
    let path = format!("/v1/scans/{id}");
    loop {
        let job = get(addr, &path)?;
        match job["status"].as_str() {
            Some("done") => {
                return Ok(ScanJob {
                    latency_s: started.elapsed().as_secs_f64(),
                    queue_wait_ms: job["queue_wait_millis"].as_f64().unwrap_or(0.0),
                    result: job["result"].clone(),
                })
            }
            Some("queued" | "running") => std::thread::sleep(poll),
            other => return Err(format!("scan job {id} ended as {other:?}: {job}")),
        }
    }
}

/// The flagged account keys of a scan result, sorted.
pub fn flagged(result: &Value) -> Vec<String> {
    let mut keys: Vec<String> = result["flagged"]
        .as_array()
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    keys.sort();
    keys
}

/// The service configuration every service workload runs: scans only on
/// request (automatic scans off), the given detector and scan mode, and
/// 2 ensemble and 2 ingest-parse workers.
pub fn api_config(detector: ensemfdet::EnsemFdetConfig, follow: bool) -> ApiConfig {
    ApiConfig {
        monitor: MonitorConfig {
            detector,
            scan_interval: usize::MAX,
            alert_threshold: crate::data::THRESHOLD,
            min_transactions: usize::MAX,
        },
        follow,
        workers: 2,
        ingest_workers: 2,
        ..ApiConfig::default()
    }
}

/// Times `bodies` through the ingest path without a socket: each through
/// `parse_csv_pairs` alone, then through `Api::handle` on a socket-free
/// service that first took `preload`. Returns the two lists of
/// milliseconds; a body the handler refuses counts as a failed operation.
pub fn socket_free_ingest(
    config: ApiConfig,
    preload: &[&[u8]],
    bodies: &[&[u8]],
    tracer: &Tracer,
    tally: &mut Tally,
) -> (Vec<f64>, Vec<f64>) {
    let api = Api::new(config);
    let post = |body: &[u8]| Request {
        method: "POST".into(),
        path: "/v1/transactions".into(),
        content_type: "text/csv".into(),
        body: body.to_vec(),
    };
    for body in preload {
        api.handle(&post(body));
    }
    let (mut parse_ms, mut handle_ms) = (vec![], vec![]);
    for body in bodies {
        let t0 = Instant::now();
        let parsed = tracer.span("api.parse_csv", None, |_| {
            parse_csv_pairs(body, config.ingest_workers).map(|p| p.len())
        });
        parse_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(parsed.ok());
        let request = post(body);
        let t0 = Instant::now();
        let status = tracer.span("api.handle", None, |_| api.handle(&request).status);
        handle_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tally.op(if status == 200 {
            Ok(())
        } else {
            Err(format!("socket-free ingest answered {status}"))
        });
    }
    (parse_ms, handle_ms)
}

/// Starts the service in-process on an ephemeral loopback port. Stop it
/// with [`ServerHandle::shutdown`], which joins every thread it started.
pub fn start_service(config: ApiConfig) -> ServerHandle {
    Server::bind_with("127.0.0.1:0", Api::new(config), ServerConfig::default())
        .and_then(Server::start)
        .expect("bind and start the service on a loopback port")
}
