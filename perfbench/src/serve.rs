//! `server_mixed`: the service in-process at default settings, driven
//! over real TCP by two client threads.
//!
//! - One connection sends an **open-loop** cheap mix at a fixed rate:
//!   `/healthz`, seeded `/landscape?genome=` point queries and
//!   `/landscape?bits=` subspace queries at 22–26 bits, which the set-up
//!   fill has made warm-cache hits. Latency runs from when each request
//!   was due; lateness is how far behind schedule it was sent.
//! - The other runs a **closed loop** of `/evolve` requests, alternating
//!   a gait rules-mode request sized so the engine spans every core with
//!   a `problem: "fsm_traces"` request.
//!
//! Every response must be 200, and a sample of requests must answer
//! byte-for-byte what a direct `dispatch` of the same bytes answers.

use crate::trace::{LocalTrace, Tracer};
use crate::{median_or_zero, stats, Ctx, HostSpeed, Outcome, SetupTimes, SplitMix, Tally};
use leonardo_server::api::genome_hex;
use leonardo_server::http::{read_request, Response, DEFAULT_MAX_BODY_BYTES};
use leonardo_server::server::dispatch;
use leonardo_server::{start, ServerConfig, ServerHandle};
use leonardo_telemetry::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered rate of the cheap open loop, requests per second: 1 % of the
/// rate one closed-loop connection sustains on this mix while the
/// `/evolve` loop saturates every core (48–57 k requests/s measured on a
/// 2-vCPU host; see the README), so a request almost never waits behind
/// the one before it and the cheap path takes under 1 % of one core.
const CHEAP_RATE: f64 = 500.0;
/// Distinct cheap requests generated per run (the schedule cycles them).
const CHEAP_REQUESTS: usize = 1024;
/// Cheap requests whose bodies are compared with a direct dispatch.
const CHEAP_SAMPLE: usize = 48;
/// The cold fill at set-up caches every chunk of this subspace.
const FILL_BITS: u32 = 26;
/// Server starts (bind + cold fill) timed before the traffic, and before
/// each of the [`WINDOWS`]; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_REPS_PER_WINDOW: usize = 4;
/// Host-speed probes before each window and after the last.
const PROBES_PER_WINDOW: usize = 2;
/// Measurement windows the run's time is split into; a traced run
/// alternates untraced and traced ones.
const WINDOWS: usize = 8;
/// A gait request is 32 fills of the server's default 64-lane x64 engine,
/// so every engine refills lanes on up to 16 cores.
const GAIT_SEEDS: usize = 2048;
/// Every paper-parameter gait trial converges inside this budget.
const GAIT_GENERATIONS: u64 = 30_000;
/// `fsm_traces` campaigns per request, at the registry campaigns' budget:
/// on 2 cores such a request lasts 1.5–2 times as long as a gait request,
/// so the closed loop spends comparable time in `rtl::bitslice` and
/// `evo::ga`.
const FSM_SEEDS: usize = 16;
const FSM_GENERATIONS: u64 = 4_000;
/// Mean work of one gait trial (cycles) and one `fsm_traces` campaign
/// (evaluations) over many seeds; `pass_s` scales each request's time to
/// this nominal work.
const NOMINAL_CYCLES_PER_TRIAL: f64 = 74_000.0;
const NOMINAL_EVALS_PER_FSM_CAMPAIGN: f64 = 50_500.0;

/// A keep-alive client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Send one request and read its response: status and body.
    pub fn exchange(&mut self, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(raw)?;
        let bad = |why: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("unparseable status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length"))?;
        if length > DEFAULT_MAX_BODY_BYTES * 16 {
            return Err(bad("response body too large"));
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// A client that reconnects after a transport error and counts every
/// request it makes: a transport error, a refused connection or a
/// non-200 status is a failed operation.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    /// The response body of a 200, or `None` (counted as failed).
    pub fn request(&mut self, raw: &[u8], tally: &Mutex<Tally>) -> Option<Vec<u8>> {
        let result = match self.conn.as_mut() {
            Some(c) => c.exchange(raw),
            None => Conn::connect(self.addr).and_then(|mut c| {
                let r = c.exchange(raw);
                self.conn = Some(c);
                r
            }),
        };
        let mut tally = tally.lock().expect("no client panicked");
        match result {
            Ok((200, body)) => {
                tally.record(true, String::new);
                Some(body)
            }
            Ok((status, body)) => {
                let text = String::from_utf8_lossy(&body).into_owned();
                tally.record(false, || {
                    format!("{} answered {status}: {text}", head_line(raw))
                });
                None
            }
            Err(e) => {
                self.conn = None;
                tally.record(false, || format!("{}: {e}", head_line(raw)));
                None
            }
        }
    }
}

fn head_line(raw: &[u8]) -> String {
    let text = String::from_utf8_lossy(raw);
    text.lines().next().unwrap_or("").to_string()
}

pub fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nhost: perfbench\r\n\r\n").into_bytes()
}

fn post(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Cheap {
    Healthz,
    Point,
    Subspace,
}

struct Input {
    cheap: Vec<(Cheap, Vec<u8>)>,
    gait: Vec<u8>,
    fsm: Vec<u8>,
}

/// The cheap mix gives each route an equal share, as `loadgen --mix all`
/// does: half `/healthz`, half `/landscape`, split evenly between point
/// and subspace queries.
fn input(ctx: &Ctx) -> Input {
    let mut rng = SplitMix::new(ctx.seed);
    let cheap = (0..CHEAP_REQUESTS)
        .map(|_| match rng.below(4) {
            0 | 1 => (Cheap::Healthz, get("/healthz")),
            2 => {
                let genome = rng.below(1 << 36);
                (
                    Cheap::Point,
                    get(&format!("/landscape?genome={}", genome_hex(genome))),
                )
            }
            _ => (
                Cheap::Subspace,
                get(&format!("/landscape?bits={}", 22 + rng.below(5))),
            ),
        })
        .collect();
    let list = |n: usize, rng: &mut SplitMix| -> String {
        (0..n)
            .map(|_| (rng.next_u64() as u32).to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let gait = format!(
        r#"{{"seeds":[{}],"max_generations":{GAIT_GENERATIONS}}}"#,
        list(GAIT_SEEDS, &mut rng)
    );
    let fsm = format!(
        r#"{{"problem":"fsm_traces","seeds":[{}],"max_generations":{FSM_GENERATIONS}}}"#,
        list(FSM_SEEDS, &mut rng)
    );
    Input {
        cheap,
        gait: post("/evolve", &gait),
        fsm: post("/evolve", &fsm),
    }
}

/// Bind a server at default settings and fill its landscape cache cold.
fn set_up(tally: &Mutex<Tally>) -> ServerHandle {
    let handle = start(ServerConfig::default()).expect("bind a loopback port");
    let mut client = Client::new(handle.addr());
    client.request(&get(&format!("/landscape?bits={FILL_BITS}")), tally);
    handle
}

/// What the closed `/evolve` loop observed.
#[derive(Default)]
struct Evolve {
    /// Latency of every gait and every `fsm_traces` `/evolve` request, ms.
    gait_ms: Vec<f64>,
    fsm_ms: Vec<f64>,
    /// Start, end (seconds into the window) and nominal seconds of each
    /// completed gait + fsm pair.
    pairs: Vec<[f64; 3]>,
    trials: u64,
    elapsed_s: f64,
    /// Every distinct body seen per request kind (one when deterministic).
    gait_bodies: Vec<Vec<u8>>,
    fsm_bodies: Vec<Vec<u8>>,
}

impl Evolve {
    fn all_ms(&self) -> Vec<f64> {
        self.gait_ms.iter().chain(&self.fsm_ms).copied().collect()
    }
}

/// What one measurement window observed.
#[derive(Default)]
struct Window {
    /// One pass per completed evolve pair: the pair's nominal seconds and
    /// the latency of the cheap requests due while it ran (their count
    /// times their median).
    passes: Vec<[f64; 2]>,
    cheap_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// The first cheap responses and the index of their request.
    cheap_bodies: Vec<(usize, Vec<u8>)>,
    evolve: Evolve,
}

impl Window {
    /// Fold a later window of the same kind into this one.
    fn absorb(&mut self, later: Window) {
        self.passes.extend(later.passes);
        self.cheap_ms.extend(later.cheap_ms);
        self.late_ms.extend(later.late_ms);
        let room = CHEAP_SAMPLE.saturating_sub(self.cheap_bodies.len());
        self.cheap_bodies
            .extend(later.cheap_bodies.into_iter().take(room));
        let (e, l) = (&mut self.evolve, later.evolve);
        e.gait_ms.extend(l.gait_ms);
        e.fsm_ms.extend(l.fsm_ms);
        e.trials += l.trials;
        e.elapsed_s += l.elapsed_s;
        for (seen, bodies) in [
            (&mut e.gait_bodies, l.gait_bodies),
            (&mut e.fsm_bodies, l.fsm_bodies),
        ] {
            for body in bodies {
                if !seen.contains(&body) {
                    seen.push(body);
                }
            }
        }
    }
}

/// Sum of `field` over a response's `trials` rows.
fn work_of(body: &[u8], field: &str) -> Option<f64> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let trials = doc.get("trials")?.as_array()?;
    trials.iter().map(|t| t.get(field)?.as_f64()).sum()
}

/// One request, traced when `local` is set; returns the body of a 200
/// and the latency in seconds.
fn timed_request(
    client: &mut Client,
    raw: &[u8],
    tally: &Mutex<Tally>,
    local: &mut Option<LocalTrace<'_>>,
    name: &'static str,
) -> (Option<Vec<u8>>, f64) {
    let t = Instant::now();
    let span = local.as_mut().map(|l| l.open(name, 0));
    let body = client.request(raw, tally);
    if let (Some(l), Some(h)) = (local.as_mut(), span) {
        l.close(h);
    }
    (body, t.elapsed().as_secs_f64())
}

fn evolve_loop(
    input: &Input,
    addr: SocketAddr,
    start: Instant,
    stop: &AtomicBool,
    tally: &Mutex<Tally>,
    tracer: Option<&Tracer>,
) -> Evolve {
    let mut local = tracer.map(Tracer::local);
    let mut client = Client::new(addr);
    let mut e = Evolve::default();
    // the work in a gait and in an fsm body; each request answers one
    // body (checked after the run), so it is read from the first pair
    let mut work = None;
    while !stop.load(Ordering::Acquire) {
        let from = start.elapsed().as_secs_f64();
        let (gait, gait_s) = timed_request(
            &mut client,
            &input.gait,
            tally,
            &mut local,
            "client.evolve.gait",
        );
        let (fsm, fsm_s) = timed_request(
            &mut client,
            &input.fsm,
            tally,
            &mut local,
            "client.evolve.fsm",
        );
        e.gait_ms.push(gait_s * 1e3);
        e.fsm_ms.push(fsm_s * 1e3);
        let (Some(gait), Some(fsm)) = (gait, fsm) else {
            continue;
        };
        let end = start.elapsed().as_secs_f64();
        e.trials += (GAIT_SEEDS + FSM_SEEDS) as u64;
        let (cycles, evals) =
            *work.get_or_insert_with(|| (work_of(&gait, "cycles"), work_of(&fsm, "evaluations")));
        match (cycles, evals) {
            (Some(cycles), Some(evals)) => e.pairs.push([
                from,
                end,
                gait_s * GAIT_SEEDS as f64 * NOMINAL_CYCLES_PER_TRIAL / cycles
                    + fsm_s * FSM_SEEDS as f64 * NOMINAL_EVALS_PER_FSM_CAMPAIGN / evals,
            ]),
            _ => tally
                .lock()
                .expect("no client panicked")
                .record(false, || "an /evolve body lacks its trial rows".to_string()),
        }
        for (seen, body) in [(&mut e.gait_bodies, gait), (&mut e.fsm_bodies, fsm)] {
            if !seen.contains(&body) {
                seen.push(body);
            }
        }
    }
    e.elapsed_s = start.elapsed().as_secs_f64();
    e
}

/// Run both loops for `seconds`: the cheap open loop on this thread, the
/// evolve closed loop on one more. A pass is one evolve pair plus the
/// latency of the cheap requests due while it ran, so a slower cheap
/// path lengthens the pass as a slower engine does.
fn window(
    input: &Input,
    addr: SocketAddr,
    seconds: f64,
    tally: &Mutex<Tally>,
    tracer: Option<&Tracer>,
) -> Window {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let mut evolve =
            Some(scope.spawn(|| evolve_loop(input, addr, start, &stop, tally, tracer)));
        let mut local = tracer.map(Tracer::local);
        let mut client = Client::new(addr);
        let mut w = Window::default();
        // the schedule runs on until the last evolve pair has ended, so
        // every pair sees every cheap request due while it ran
        let mut evolve_end = f64::INFINITY;
        for i in 0.. {
            let due_s = i as f64 / CHEAP_RATE;
            if due_s >= seconds {
                stop.store(true, Ordering::Release);
            }
            if evolve.as_ref().is_some_and(|h| h.is_finished()) {
                let h = evolve.take().expect("checked above");
                w.evolve = h.join().expect("evolve client thread");
                evolve_end = w.evolve.elapsed_s;
            }
            if due_s >= evolve_end {
                break;
            }
            let due = start + Duration::from_secs_f64(due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let idx = i % input.cheap.len();
            let sent = Instant::now();
            let (body, _) = timed_request(
                &mut client,
                &input.cheap[idx].1,
                tally,
                &mut local,
                "client.cheap",
            );
            let done = Instant::now();
            w.late_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
            w.cheap_ms
                .push(done.duration_since(due).as_secs_f64() * 1e3);
            if let (Some(body), true) = (body, w.cheap_bodies.len() < CHEAP_SAMPLE) {
                w.cheap_bodies.push((idx, body));
            }
        }
        for p in &w.evolve.pairs {
            let due = (0..).map(|i| i as f64 / CHEAP_RATE);
            let waits_ms: Vec<f64> = due
                .zip(&w.cheap_ms)
                .filter(|(d, _)| (p[0]..p[1]).contains(d))
                .map(|(_, &ms)| ms)
                .collect();
            // at their median latency: a stall of the shared host's vCPUs
            // delays every request due in it, and would otherwise decide
            // the pass
            let waits_s = waits_ms.len() as f64 * median_or_zero(&waits_ms) * 1e-3;
            w.passes.push([p[2], waits_s]);
        }
        w
    })
}

/// A direct `dispatch` of the raw request bytes, as the server would.
fn direct(handle: &ServerHandle, raw: &[u8]) -> Response {
    let request = read_request(&mut BufReader::new(raw), DEFAULT_MAX_BODY_BYTES)
        .expect("the benchmark's own requests parse");
    dispatch(handle.state(), &request)
}

/// Correctness, outside the timed window: each deterministic request
/// answered one body only, and sampled bodies equal a direct dispatch.
fn check(input: &Input, handle: &ServerHandle, w: &Window, tally: &Mutex<Tally>) {
    let mut tally = tally.lock().expect("no client panicked");
    for (what, bodies, raw) in [
        ("gait", &w.evolve.gait_bodies, &input.gait),
        ("fsm_traces", &w.evolve.fsm_bodies, &input.fsm),
    ] {
        tally.record(bodies.len() == 1, || {
            format!(
                "{} distinct bodies for one {what} /evolve request",
                bodies.len()
            )
        });
        if let Some(first) = bodies.first() {
            let direct = direct(handle, raw);
            tally.record(direct.status == 200 && &direct.body == first, || {
                format!("served {what} /evolve body differs from a direct dispatch")
            });
        }
    }
    for (idx, body) in &w.cheap_bodies {
        let raw = &input.cheap[*idx].1;
        let direct = direct(handle, raw);
        tally.record(direct.status == 200 && &direct.body == body, || {
            format!("served `{}` differs from a direct dispatch", head_line(raw))
        });
    }
}

/// Fill the workload's named figures from an untraced window.
fn figures(w: &Window, out: &mut Outcome) {
    out.passes = w.passes.iter().map(|p| p[0] + p[1]).collect();
    out.figures
        .insert("cheap_p50_ms", median_or_zero(&w.cheap_ms));
    if let Some(p99) = stats::tail_percentile(&w.cheap_ms, 99.0) {
        out.figures.insert("cheap_p99_ms", p99);
    }
    out.figures
        .insert("evolve_p50_ms", median_or_zero(&w.evolve.all_ms()));
    out.figures.insert(
        "evolve_trials_per_s",
        w.evolve.trials as f64 / w.evolve.elapsed_s,
    );
}

/// Mean microseconds per call of `f` over `reps` calls.
fn us_per(reps: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
}

/// Per-layer figures from outside the server: the HTTP codec and the
/// handlers timed on the workload's own requests, the client-observed
/// wait left over, and the server's own counters.
fn layers(input: &Input, handle: &ServerHandle, w: &Window, out: &mut Outcome) {
    let sample: Vec<&Vec<u8>> = w
        .cheap_bodies
        .iter()
        .map(|(i, _)| &input.cheap[*i].1)
        .collect();
    let parse_us = median_or_zero(
        &sample
            .iter()
            .map(|raw| {
                us_per(200, || {
                    let mut reader = BufReader::new(raw.as_slice());
                    std::hint::black_box(read_request(&mut reader, DEFAULT_MAX_BODY_BYTES).ok());
                })
            })
            .collect::<Vec<_>>(),
    );
    let write_us = median_or_zero(
        &w.cheap_bodies
            .iter()
            .map(|(_, body)| {
                let response = Response::json(200, body.clone());
                us_per(200, || {
                    let mut wire = Vec::new();
                    std::hint::black_box(response.write_to(&mut wire, false).ok());
                })
            })
            .collect::<Vec<_>>(),
    );
    let dispatch_us = |kinds: &[Cheap]| -> f64 {
        let times: Vec<f64> = w
            .cheap_bodies
            .iter()
            .filter(|(i, _)| kinds.contains(&input.cheap[*i].0))
            .map(|(i, _)| us_per(20, || drop(direct(handle, &input.cheap[*i].1))))
            .collect();
        median_or_zero(&times)
    };
    let healthz_us = dispatch_us(&[Cheap::Healthz]);
    let landscape_us = dispatch_us(&[Cheap::Point, Cheap::Subspace]);
    let cheap_us = dispatch_us(&[Cheap::Healthz, Cheap::Point, Cheap::Subspace]);
    let evolve_dispatch_us =
        |raw: &[u8]| median_or_zero(&[(); 5].map(|()| us_per(1, || drop(direct(handle, raw)))));
    let gait_us = evolve_dispatch_us(&input.gait);
    let fsm_us = evolve_dispatch_us(&input.fsm);
    let evolve_us = (gait_us + fsm_us) / 2.0;
    // what the client waited beyond the codec and the handler, per kind
    let evolve_wait_us = (median_or_zero(&w.evolve.gait_ms) * 1e3 - gait_us
        + median_or_zero(&w.evolve.fsm_ms) * 1e3
        - fsm_us)
        / 2.0
        - parse_us
        - write_us;
    let state = handle.state();
    let (hits, misses) = (state.oracle.hits() as f64, state.oracle.misses() as f64);
    let m = &state.metrics;
    let values = [
        ("server.http.parse_us", parse_us),
        ("server.http.write_us", write_us),
        ("server.dispatch_us.healthz", healthz_us),
        ("server.dispatch_us.landscape", landscape_us),
        ("server.dispatch_us.evolve", evolve_us),
        (
            "server.wait_us.cheap",
            median_or_zero(&w.cheap_ms) * 1e3 - parse_us - cheap_us - write_us,
        ),
        ("server.wait_us.evolve", evolve_wait_us),
        ("server.oracle.hit_ratio", hits / (hits + misses).max(1.0)),
        ("server.status.2xx", m.ok_2xx.load(Ordering::Relaxed) as f64),
        (
            "server.status.4xx",
            m.err_4xx.load(Ordering::Relaxed) as f64,
        ),
        (
            "server.status.5xx",
            m.err_5xx.load(Ordering::Relaxed) as f64,
        ),
        (
            "client.late_ms_p99",
            stats::tail_percentile(&w.late_ms, 99.0).unwrap_or(0.0),
        ),
    ];
    for (name, value) in values {
        out.layer(name, value);
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let tally = Mutex::new(Tally::default());
    let input = input(ctx);
    let mut setup = SetupTimes::default();
    let handle = setup.sample(SETUP_REPS, || set_up(&tally));
    let addr = handle.addr();

    // set-ups are timed before every window, so `setup_s` sees the host
    // conditions of the whole run as the passes do; a traced run
    // alternates untraced and traced windows, so drift in the host's
    // speed cannot masquerade as tracing overhead
    let tracer = Tracer::new();
    let mut untraced = Window::default();
    let mut traced = Window::default();
    let begin = Instant::now();
    let probe = |speed: &mut HostSpeed| {
        for _ in 0..PROBES_PER_WINDOW {
            speed.probe(ctx.threads);
        }
    };
    // the window of each untraced pass, whose probes bracket it
    let mut pass_window = Vec::new();
    for i in 0..WINDOWS {
        drop(setup.sample(SETUP_REPS_PER_WINDOW, || set_up(&tally)));
        probe(&mut out.speed);
        let left = ctx.seconds - begin.elapsed().as_secs_f64();
        let seconds = left.max(0.0) / (WINDOWS - i) as f64;
        if ctx.trace && i % 2 == 1 {
            traced.absorb(window(&input, addr, seconds, &tally, Some(&tracer)));
        } else {
            let w = window(&input, addr, seconds, &tally, None);
            pass_window.extend(std::iter::repeat_n(i, w.passes.len()));
            untraced.absorb(w);
        }
    }
    probe(&mut out.speed);
    figures(&untraced, &mut out);
    out.slowdowns = pass_window
        .iter()
        .map(|&i| {
            let from = i * PROBES_PER_WINDOW;
            out.speed.slowdown(from..from + 2 * PROBES_PER_WINDOW)
        })
        .collect();
    check(&input, &handle, &untraced, &tally);
    if ctx.trace {
        check(&input, &handle, &traced, &tally);
        layers(&input, &handle, &traced, &mut out);
        out.layer(
            "trace.overhead",
            median_or_zero(
                &traced
                    .passes
                    .iter()
                    .map(|p| p[0] + p[1])
                    .collect::<Vec<_>>(),
            ) / median_or_zero(&out.passes),
        );
        let path = ctx
            .out_dir
            .join(format!("trace-server_mixed-{}.jsonl", ctx.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            let mut t = tally.lock().expect("no client panicked");
            t.record(false, || format!("cannot write {}: {e}", path.display()));
        }
    }
    // every client connection is closed by now, so stop drains at once
    drop(handle);
    out.setup_s = setup.median();
    out.tally = tally.into_inner().expect("no client panicked");
    out.config = vec![
        ("plane_widths", Json::Arr(vec![Json::Str("x64".into())])),
        ("client_threads", Json::Num(2.0)),
        ("connections", Json::Num(2.0)),
        ("server_threads", Json::Num(ctx.threads.min(8) as f64)),
        ("cheap_rate_per_s", Json::Num(CHEAP_RATE)),
        ("windows", Json::Num(WINDOWS as f64)),
        (
            "pass_evolve_s",
            Json::Num(median_or_zero(
                &untraced.passes.iter().map(|p| p[0]).collect::<Vec<_>>(),
            )),
        ),
        (
            "pass_cheap_wait_s",
            Json::Num(median_or_zero(
                &untraced.passes.iter().map(|p| p[1]).collect::<Vec<_>>(),
            )),
        ),
        ("cheap_requests", Json::Num(untraced.cheap_ms.len() as f64)),
        (
            "evolve_requests",
            Json::Num(untraced.evolve.all_ms().len() as f64),
        ),
        ("gait_seeds_per_request", Json::Num(GAIT_SEEDS as f64)),
        (
            "gait_p50_ms",
            Json::Num(median_or_zero(&untraced.evolve.gait_ms)),
        ),
        (
            "fsm_p50_ms",
            Json::Num(median_or_zero(&untraced.evolve.fsm_ms)),
        ),
        ("fsm_seeds_per_request", Json::Num(FSM_SEEDS as f64)),
    ];
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_requests_are_counted() {
        let handle = start(ServerConfig::default()).expect("bind");
        let tally = Mutex::new(Tally::default());
        let mut client = Client::new(handle.addr());
        assert!(client.request(&get("/healthz"), &tally).is_some());
        // a route that does not exist, and a malformed parameter
        assert!(client.request(&get("/nope"), &tally).is_none());
        assert!(client
            .request(&get("/landscape?bits=banana"), &tally)
            .is_none());
        drop(client);
        drop(handle);
        // nothing listens on a freshly released port: refused
        let free = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = free.local_addr().expect("addr");
        drop(free);
        assert!(Client::new(addr)
            .request(&get("/healthz"), &tally)
            .is_none());
        let t = tally.into_inner().expect("tally");
        assert_eq!((t.attempted, t.failed), (4, 3));
    }

    #[test]
    fn served_bodies_match_direct_dispatch() {
        let ctx = Ctx {
            workload: "server_mixed".to_string(),
            seed: 5,
            seconds: 0.2,
            trace: false,
            threads: 2,
            out_dir: std::path::PathBuf::from("."),
        };
        let input = input(&ctx);
        let tally = Mutex::new(Tally::default());
        let handle = set_up(&tally);
        let w = window(&input, handle.addr(), 0.2, &tally, None);
        check(&input, &handle, &w, &tally);
        let t = tally.into_inner().expect("tally");
        assert_eq!(t.failed, 0, "{:?}", t.notes);
        assert!(!w.cheap_bodies.is_empty() && w.evolve.gait_bodies.len() == 1);
    }
}
