//! `serve-mixed`: an in-process `adcomp serve` daemon on loopback, driven
//! in a closed loop by one client thread. It `put`s new objects at LIGHT
//! with heavy-tailed sizes and mixed classes, then issues ranged `get`s
//! over the preloaded (sealed) objects with Zipf-skewed object choice and
//! ranges of one to several blocks. The stored working set is about twice
//! the block-cache budget.
//!
//! PUTs and GETs run one after the other: with a PUT thread beside the GET
//! thread, both rates swung by 30–40 % (quartile spread over ten runs) on
//! a 2-vCPU host, as the two clients and their handler threads contended
//! for the CPUs.
//!
//! The daemon keeps every transfer for its lifetime, so each round starts
//! a fresh daemon, preloads it (set-up), runs a fixed amount of work and
//! shuts it down.

use crate::check::{put_matches, same_bytes, Tally};
use crate::layers::shadow_pass;
use crate::trace::Tracer;
use crate::{
    derive_seed, heavy_tailed_sizes, mb_per_s, median, quantile, run_rounds, shuffle, Outcome,
    RunConfig,
};
use adcomp::codecs::crc32::{crc32, crc32_bitwise};
use adcomp::codecs::CodecId;
use adcomp::corpus::{generate, Class, Prng};
use adcomp::serve::proto::{read_get_payload, read_response, write_request};
use adcomp::serve::{get, put, PutOptions, Request, Response, ServeConfig, Server};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const TENANT: &str = "bench";
const KIB: usize = 1024;
/// Decoded-block cache budget of the daemon.
const CACHE_BYTES: u64 = 8 << 20;
/// Preloaded objects: about twice the cache budget in total.
const PRELOAD_OBJECTS: usize = 300;
/// Objects PUT in each round's measured phase.
const PUT_OBJECTS: usize = 512;
/// Ranged GETs in each round's measured phase.
const GETS: usize = 1200;
/// Object sizes: Pareto shape and bounds. These and the other traffic
/// parameters are this benchmark's assumptions; README.md gives the reason
/// for each value.
const SIZE_ALPHA: f64 = 1.2;
const SIZE_MIN: usize = 16 * KIB;
const SIZE_MAX: usize = 1024 * KIB;
/// GET range lengths: one to several 128 KiB blocks.
const RANGE_MIN: usize = 16 * KIB;
const RANGE_MAX: usize = 512 * KIB;
/// Zipf exponent of the GET object choice.
const ZIPF_S: f64 = 1.0;
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// PUT level: LIGHT.
const PUT_LEVEL: usize = 1;

struct Object {
    id: u64,
    data: Vec<u8>,
    crc: u32,
}

struct GetReq {
    obj: usize,
    offset: u64,
    len: u64,
}

struct Inputs {
    preload: Vec<Object>,
    puts: Vec<Object>,
    gets: Vec<GetReq>,
}

/// Seed of the request-mix shape (which size class is how popular, which
/// range length goes with which object), the same for every run seed; the
/// run seed picks contents, offsets and order.
const SHAPE_SEED: u64 = 0x005E_ED0F_5A4E;

/// Objects with the same multiset of (size, class) pairs for every seed:
/// classes go round 40 % HIGH, 40 % MODERATE, 20 % LOW over the sizes in
/// ascending order, and the seed shuffles the pairs and fills contents.
fn objects(n: usize, first_id: u64, seed: u64) -> Vec<Object> {
    const CLASSES: [Class; 5] = [
        Class::High,
        Class::Moderate,
        Class::Low,
        Class::Moderate,
        Class::High,
    ];
    let mut rng = Prng::new(seed);
    let mut pairs: Vec<(usize, Class)> = heavy_tailed_sizes(n, SIZE_MIN, SIZE_MAX, SIZE_ALPHA)
        .into_iter()
        .enumerate()
        .map(|(k, len)| (len, CLASSES[k % CLASSES.len()]))
        .collect();
    shuffle(&mut pairs, &mut rng);
    pairs
        .into_iter()
        .enumerate()
        .map(|(i, (len, class))| {
            let id = first_id + i as u64;
            Object {
                id,
                data: generate(class, len, derive_seed(seed, id)),
                crc: 0,
            }
        })
        .collect()
}

/// GET requests with exact Zipf counts per popularity rank. Which object
/// size holds which rank, and the range length of each request, follow
/// [`SHAPE_SEED`]; the run seed orders the requests and picks offsets.
fn get_requests(preload: &[Object], seed: u64) -> Vec<GetReq> {
    let n = preload.len();
    let mut shape = Prng::new(SHAPE_SEED);
    let mut by_size: Vec<usize> = (0..n).collect();
    by_size.sort_by_key(|&i| (preload[i].data.len(), i));
    shuffle(&mut by_size, &mut shape);
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut objs = Vec::with_capacity(GETS);
    let mut acc = 0.0;
    for (rank, w) in weights.iter().enumerate() {
        let before = (acc * GETS as f64 / total).round() as usize;
        acc += w;
        let after = (acc * GETS as f64 / total).round() as usize;
        objs.extend(std::iter::repeat_n(by_size[rank], after - before));
    }
    let mut lens = heavy_tailed_sizes(objs.len(), RANGE_MIN, RANGE_MAX, 1.0);
    shuffle(&mut lens, &mut shape);
    let mut pairs: Vec<(usize, usize)> = objs.into_iter().zip(lens).collect();
    let mut rng = Prng::new(seed);
    shuffle(&mut pairs, &mut rng);
    pairs
        .into_iter()
        .map(|(obj, len)| {
            let size = preload[obj].data.len();
            let len = len.min(size);
            let offset = rng.below((size - len) as u64 + 1);
            GetReq {
                obj,
                offset,
                len: len as u64,
            }
        })
        .collect()
}

fn make_inputs(seed: u64) -> Inputs {
    let preload = objects(PRELOAD_OBJECTS, 1, derive_seed(seed, 300));
    let puts = objects(
        PUT_OBJECTS,
        1 + PRELOAD_OBJECTS as u64,
        derive_seed(seed, 301),
    );
    let gets = get_requests(&preload, derive_seed(seed, 302));
    Inputs {
        preload,
        puts,
        gets,
    }
}

fn put_opts(id: u64) -> PutOptions {
    PutOptions {
        tenant: TENANT.to_string(),
        transfer_id: id,
        io_timeout: IO_TIMEOUT,
        level: Some(PUT_LEVEL),
        ..PutOptions::default()
    }
}

/// One PUT, timed; then its check against the server's verified prefix
/// and the object's reference CRC.
fn put_checked(server: &Server, obj: &Object) -> (Result<u32, String>, f64) {
    let t = Instant::now();
    let report = put(server.local_addr(), &obj.data, &put_opts(obj.id));
    let secs = t.elapsed().as_secs_f64();
    let checked = report
        .map_err(|e| format!("put {}: {e}", obj.id))
        .and_then(|r| {
            put_matches(
                obj.data.len(),
                server.verified_len(TENANT, obj.id),
                r.crc,
                obj.crc,
            )?;
            Ok(r.attempts)
        });
    (checked, secs)
}

/// A ranged GET through the `serve::proto` calls, split into connect,
/// accept (lookup plus covering-block decode) and payload.
fn get_proto(
    tr: &mut Tracer,
    addr: SocketAddr,
    op: u64,
    req: &GetReq,
    id: u64,
) -> io::Result<(Vec<u8>, [f64; 3])> {
    let (sock, connect_s) = tr.time_s("get.connect", op, || -> io::Result<TcpStream> {
        let s = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(s)
    });
    let mut sock = sock?;
    let request = Request::Get {
        tenant: TENANT.to_string(),
        transfer_id: id,
        offset: req.offset,
        len: req.len,
    };
    let (resp, accept_s) = tr.time_s("get.accept", op, || {
        write_request(&mut sock, &request)?;
        read_response(&mut sock)
    });
    let n = match resp? {
        Response::Accept { start_offset, .. } if start_offset <= req.len => start_offset,
        other => return Err(io::Error::other(format!("get refused: {other:?}"))),
    };
    let (bytes, payload_s) = tr.time_s("get.payload", op, || read_get_payload(&mut sock, n));
    Ok((bytes?, [connect_s, accept_s, payload_s]))
}

/// What the PUT thread did in one measured phase.
#[derive(Default)]
struct PutSide {
    bytes: u64,
    attempts: u64,
    ms: Vec<f64>,
    checks: Vec<Result<(), String>>,
}

/// What the GET thread did in one measured phase; `parts` (connect,
/// accept, payload seconds) and `hit` are filled in traced rounds only.
struct GetSide {
    bytes: u64,
    secs: f64,
    ms: Vec<f64>,
    parts: Vec<[f64; 3]>,
    hit: Vec<bool>,
    checks: Vec<Result<(), String>>,
    tracer: Tracer,
}

fn put_side(server: &Server, inputs: &Inputs) -> PutSide {
    let mut p = PutSide::default();
    for obj in &inputs.puts {
        let (r, secs) = put_checked(server, obj);
        p.ms.push(secs * 1e3);
        p.bytes += obj.data.len() as u64;
        if let Ok(a) = &r {
            p.attempts += u64::from(*a);
        }
        p.checks.push(r.map(|_| ()));
    }
    p
}

/// GETs go through `client::get` unless `proto` is set; traced runs set it
/// in every round, so their untraced rounds time the same GET path and the
/// difference is the cost of tracing alone.
fn get_side(
    server: &Server,
    inputs: &Inputs,
    proto: bool,
    traced: bool,
    damage: bool,
    t0: Instant,
) -> GetSide {
    let addr = server.local_addr();
    let mut g = GetSide {
        bytes: 0,
        secs: 0.0,
        ms: Vec::new(),
        parts: Vec::new(),
        hit: Vec::new(),
        checks: Vec::new(),
        tracer: Tracer::new(traced, t0),
    };
    for (i, req) in inputs.gets.iter().enumerate() {
        let obj = &inputs.preload[req.obj];
        // PUTs never touch the block cache, so a GET that adds no miss
        // was served from it.
        let misses = server.cache_stats().misses;
        let t = Instant::now();
        let got = if proto {
            get_proto(&mut g.tracer, addr, i as u64, req, obj.id).map(|(b, p)| {
                if traced {
                    g.parts.push(p);
                }
                b
            })
        } else {
            get(addr, TENANT, obj.id, req.offset, req.len, IO_TIMEOUT)
        };
        let secs = t.elapsed().as_secs_f64();
        if traced {
            g.hit.push(server.cache_stats().misses == misses);
        }
        g.secs += secs;
        g.ms.push(secs * 1e3);
        let check = match got {
            Ok(mut b) => {
                if damage && i == 0 && !b.is_empty() {
                    b[0] ^= 0x01;
                }
                g.bytes += b.len() as u64;
                let lo = req.offset as usize;
                same_bytes(&obj.data[lo..lo + req.len as usize], &b)
            }
            Err(e) => Err(format!("get {}: {e}", obj.id)),
        };
        g.checks.push(check);
    }
    g
}

/// The measured phase: the PUT list, then the GET list, from one client
/// thread in a closed loop.
fn phase(
    server: &Server,
    inputs: &Inputs,
    proto: bool,
    traced: bool,
    damage: bool,
    t0: Instant,
    tally: &mut Tally,
) -> (PutSide, GetSide) {
    let mut p = put_side(server, inputs);
    let mut g = get_side(server, inputs, proto, traced, damage, t0);
    for c in p.checks.drain(..) {
        tally.record("put", c);
    }
    for c in g.checks.drain(..) {
        tally.record("ranged get", c);
    }
    (p, g)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let mut tally = Tally::default();
    let mut tr = Tracer::new(false, t0);
    let mut setups = Vec::new();
    // Two views of the untraced rounds. The gated rates use per-operation
    // latencies, indexed by the operation's place in the fixed PUT and GET
    // lists: each operation's median over the rounds, summed. The rates the
    // client saw (bytes over the total time of a round's PUTs or GETs,
    // median over rounds) go on the summary line ungated: on a shared
    // 2-vCPU host, contention from other tenants stretched a share of the
    // operations of whole runs and moved those rates by over 30 % between
    // runs, which per-operation medians set aside.
    let (mut put_ms, mut get_ms): (Vec<Vec<f64>>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
    let (mut put_bytes, mut get_bytes) = (0u64, 0u64);
    let (mut put_seen, mut get_seen, mut gets_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut all_get_ms = Vec::new();
    let mut ref_crcs: Option<(Vec<u32>, Vec<u32>)> = None;
    let mut layer: Vec<(String, f64, &'static str)> = Vec::new();
    let (mut traced_get_s, mut plain_get_s) = (Vec::new(), Vec::new());
    let mut gen = (0u64, 0.0f64);
    let mut unattributed = Vec::new();

    let rounds = run_rounds(cfg.seconds, |round| {
        let traced_round = cfg.traced && round % 2 == 1;
        let t_setup = Instant::now();
        let mut inputs = make_inputs(cfg.seed);
        let gen_s = t_setup.elapsed().as_secs_f64();
        // Reference CRCs are the benchmark's own, computed bit by bit once.
        let (pre, puts) = ref_crcs.get_or_insert_with(|| {
            (
                inputs
                    .preload
                    .iter()
                    .map(|o| crc32_bitwise(&o.data))
                    .collect(),
                inputs.puts.iter().map(|o| crc32_bitwise(&o.data)).collect(),
            )
        });
        for (o, c) in inputs.preload.iter_mut().zip(pre.iter()) {
            o.crc = *c;
        }
        for (o, c) in inputs.puts.iter_mut().zip(puts.iter()) {
            o.crc = *c;
        }
        let t_daemon = Instant::now();
        let server = match Server::start(ServeConfig {
            cache_bytes: CACHE_BYTES,
            io_timeout: IO_TIMEOUT,
            ..ServeConfig::default()
        }) {
            Ok(s) => s,
            Err(e) => {
                tally.record("daemon start", Err(e.to_string()));
                return;
            }
        };
        let mut preload_ok = true;
        for obj in &inputs.preload {
            let r = put_checked(&server, obj).0.map(|_| ());
            preload_ok &= r.is_ok();
            tally.record("preload put", r);
        }
        let setup_s = gen_s + t_daemon.elapsed().as_secs_f64();
        setups.push(setup_s);
        if round == 0 {
            out.inputs_crc = inputs
                .preload
                .iter()
                .chain(&inputs.puts)
                .fold(0, |a, o| a ^ crc32(&o.data));
            out.inputs_crc ^= inputs.gets.iter().fold(0u32, |a, g| {
                a.rotate_left(5) ^ (g.offset as u32) ^ (g.len as u32) ^ g.obj as u32
            });
        }
        if !preload_ok {
            server.shutdown();
            return;
        }
        let stats0 = server.stats();
        let cache0 = server.cache_stats();
        let (put_res, get_res) = phase(
            &server,
            &inputs,
            cfg.traced,
            traced_round,
            cfg.damage && round == 0,
            t0,
            &mut tally,
        );
        let stats1 = server.stats();
        let cache1 = server.cache_stats();
        server.shutdown();
        if traced_round {
            traced_get_s.push(get_res.secs);
            gen.0 += inputs
                .preload
                .iter()
                .chain(&inputs.puts)
                .map(|o| o.data.len() as u64)
                .sum::<u64>();
            gen.1 += gen_s;
            let parts =
                |k: usize| -> Vec<f64> { get_res.parts.iter().map(|p| p[k] * 1e3).collect() };
            let accept: Vec<f64> = parts(1);
            let pick = |hit: bool| -> Vec<f64> {
                accept
                    .iter()
                    .zip(&get_res.hit)
                    .filter(|(_, h)| **h == hit)
                    .map(|(a, _)| *a)
                    .collect()
            };
            let d = |a: u64, b: u64| (b - a) as f64;
            let lookups = d(cache0.hits + cache0.misses, cache1.hits + cache1.misses);
            let spans_s: f64 = get_res.parts.iter().map(|p| p.iter().sum::<f64>()).sum();
            unattributed.push((get_res.secs - spans_s).max(0.0));
            layer = vec![
                ("put.attempts".into(), put_res.attempts as f64, "count"),
                (
                    "put.retries".into(),
                    put_res.attempts.saturating_sub(inputs.puts.len() as u64) as f64,
                    "count",
                ),
                ("put.object_ms_p50".into(), median(&put_res.ms), "ms"),
                ("get.connect_ms".into(), median(&parts(0)), "ms"),
                ("get.accept_ms".into(), median(&accept), "ms"),
                ("get.accept_hit_ms".into(), median(&pick(true)), "ms"),
                ("get.accept_miss_ms".into(), median(&pick(false)), "ms"),
                ("get.payload_ms".into(), median(&parts(2)), "ms"),
                ("cache.hits".into(), d(cache0.hits, cache1.hits), "count"),
                (
                    "cache.misses".into(),
                    d(cache0.misses, cache1.misses),
                    "count",
                ),
                (
                    "cache.evictions".into(),
                    d(cache0.evictions, cache1.evictions),
                    "count",
                ),
                (
                    "cache.hit_ratio".into(),
                    d(cache0.hits, cache1.hits) / lookups.max(1.0),
                    "ratio",
                ),
                (
                    "cache.resident_MiB".into(),
                    cache1.resident_bytes as f64 / (1 << 20) as f64,
                    "MiB",
                ),
                (
                    "serve.accepted".into(),
                    d(stats0.accepted, stats1.accepted),
                    "count",
                ),
                (
                    "serve.completed".into(),
                    d(stats0.completed, stats1.completed),
                    "count",
                ),
                ("serve.shed".into(), d(stats0.shed, stats1.shed), "count"),
            ];
            let mut shadow_tr = get_res.tracer;
            let all: Vec<u8> = inputs
                .puts
                .iter()
                .flat_map(|o| o.data.iter().copied())
                .collect();
            match shadow_pass(&mut shadow_tr, &all, |_| CodecId::QlzLight) {
                Ok(s) => {
                    let mut tmp = Outcome::default();
                    s.report(&mut tmp);
                    for (k, (v, u)) in tmp.metrics {
                        layer.push((k, v, u));
                    }
                }
                Err(e) => tally.record("shadow", Err(e)),
            }
            tr.absorb(shadow_tr);
        } else {
            plain_get_s.push(get_res.secs);
            all_get_ms.extend_from_slice(&get_res.ms);
            (put_bytes, get_bytes) = (put_res.bytes, get_res.bytes);
            for (per_op, samples) in [(&mut put_ms, &put_res.ms), (&mut get_ms, &get_res.ms)] {
                per_op.resize(samples.len(), Vec::new());
                for (v, x) in per_op.iter_mut().zip(samples) {
                    v.push(*x);
                }
            }
            let put_s = put_res.ms.iter().sum::<f64>() / 1e3;
            put_seen.push(mb_per_s(put_res.bytes, put_s));
            get_seen.push(mb_per_s(get_res.bytes, get_res.secs));
            gets_per_s.push(get_res.ms.len() as f64 / get_res.secs.max(1e-9));
        }
    });
    out.tally = tally;
    out.rounds = rounds;
    out.put("setup_s", median(&setups), "s");
    let put_s: f64 = put_ms.iter().map(|v| median(v) / 1e3).sum();
    let get_s: f64 = get_ms.iter().map(|v| median(v) / 1e3).sum();
    out.put("write_MBps", mb_per_s(put_bytes, put_s), "MB/s");
    out.put("read_MBps", mb_per_s(get_bytes, get_s), "MB/s");
    out.note("put_MBps", mb_per_s(put_bytes, put_s));
    out.note("put_seen_MBps", median(&put_seen));
    out.note("get_seen_MBps", median(&get_seen));
    out.note("get_per_s", median(&gets_per_s));
    out.note("get_p50_ms", median(&all_get_ms));
    out.note("get_p99_ms", quantile(&all_get_ms, 0.99));
    out.note("get_samples", all_get_ms.len() as f64);
    if cfg.traced {
        for (k, v, u) in layer {
            out.put(&k, v, u);
        }
        out.put("corpus.gen_MBps", mb_per_s(gen.0, gen.1), "MB/s");
        out.put("unattributed_s", median(&unattributed), "s");
        out.put(
            "trace.overhead_s",
            median(&traced_get_s) - median(&plain_get_s),
            "s",
        );
        crate::layers::write_spans(&tr, "serve-mixed", cfg.seed);
    }
    out
}
