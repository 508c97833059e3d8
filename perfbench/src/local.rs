//! `local-roundtrip`: one serial thread compresses each corpus segment
//! from a file into a buffered file with `AdaptiveWriter`, then decodes it
//! back with `AdaptiveReader`, the way `adcomp compress` / `decompress` do.
//!
//! Segments cover every ladder level on each compressibility class, plus a
//! portfolio segment over an interleaved heterogeneous corpus. Each
//! segment is sized so it costs roughly the same time as the others, so no
//! single level dominates the aggregate.

use crate::check::{decoded_matches, same_bytes, Tally};
use crate::layers::{codec_name, shadow_pass, Shadow, TimedIo};
use crate::trace::Tracer;
use crate::{derive_seed, mb_per_s, median, run_rounds, Outcome, RunConfig};
use adcomp::codecs::crc32::{crc32, crc32_bitwise};
use adcomp::codecs::frame::DEFAULT_BLOCK_LEN;
use adcomp::codecs::{CodecId, LevelSet};
use adcomp::core::model::StaticModel;
use adcomp::core::portfolio;
use adcomp::core::{AdaptiveReader, AdaptiveWriter, WallClock};
use adcomp::corpus::{generate, Class, Prng};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

const KIB: usize = 1024;
const MIB: usize = 1024 * 1024;

/// Stream label per level; index 4 is the portfolio segment.
const STREAM_NAMES: [&str; 5] = ["NO", "LIGHT", "MEDIUM", "HEAVY", "PORTFOLIO"];
const PORTFOLIO: usize = 4;
/// Controller level the portfolio segment runs at: its nominated ladder
/// slot 2 holds HUFF for text, COLUMNAR for runs and LIGHT for noise.
const PORTFOLIO_LEVEL: usize = 2;
const PORTFOLIO_LEN: usize = 6 * MIB;
/// How many times a run sets up its inputs (set-up time is their median).
const SETUP_REPS: usize = 3;

/// Segment length per (level, class), chosen from measured codec speeds
/// so every segment takes a similar share of the round.
fn segment_len(level: usize, class: Class) -> usize {
    match (level, class) {
        (0, _) => 8 * MIB,
        (1, Class::High) => 12 * MIB,
        (1, Class::Moderate) => 4 * MIB,
        (1, Class::Low) => 8 * MIB,
        (2, Class::High) => 3 * MIB,
        (2, Class::Moderate) => 512 * KIB,
        (2, Class::Low) => 768 * KIB,
        (3, Class::High) => 1536 * KIB,
        (3, _) => 256 * KIB,
        _ => unreachable!("four ladder levels"),
    }
}

struct Segment {
    /// Index into [`STREAM_NAMES`].
    stream: usize,
    label: String,
    data: Vec<u8>,
    input: PathBuf,
    output: PathBuf,
}

/// Chunks of 64–192 KiB drawn from the three classes in seeded order.
fn heterogeneous(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Prng::new(seed);
    let mut out = Vec::with_capacity(len);
    let mut i = 0u64;
    while out.len() < len {
        let class = Class::ALL[rng.below(3) as usize];
        let n = (rng.range(64, 193) as usize * KIB).min(len - out.len());
        out.extend_from_slice(&generate(class, n, derive_seed(seed, i)));
        i += 1;
    }
    out
}

/// Generates every segment and writes it to its input file.
fn setup(seed: u64, dir: &Path) -> io::Result<(Vec<Segment>, f64)> {
    let mut segs = Vec::new();
    let mut gen_s = 0.0;
    for (ci, class) in Class::ALL.into_iter().enumerate() {
        for (level, name) in STREAM_NAMES[..4].iter().enumerate() {
            let t = Instant::now();
            let data = generate(
                class,
                segment_len(level, class),
                derive_seed(seed, (ci * 4 + level) as u64),
            );
            gen_s += t.elapsed().as_secs_f64();
            let label = format!("{name}/{}", class.name());
            segs.push(Segment {
                stream: level,
                label,
                data,
                input: PathBuf::new(),
                output: PathBuf::new(),
            });
        }
    }
    let t = Instant::now();
    let data = heterogeneous(PORTFOLIO_LEN, derive_seed(seed, 100));
    gen_s += t.elapsed().as_secs_f64();
    segs.push(Segment {
        stream: PORTFOLIO,
        label: "PORTFOLIO/MIXED".into(),
        data,
        input: PathBuf::new(),
        output: PathBuf::new(),
    });
    for (i, s) in segs.iter_mut().enumerate() {
        s.input = dir.join(format!("in-{i}"));
        s.output = dir.join(format!("out-{i}.adc"));
        let mut f = BufWriter::new(File::create(&s.input)?);
        f.write_all(&s.data)?;
        f.flush()?;
    }
    Ok((segs, gen_s))
}

/// One segment's compress + decompress, as the CLI would run them.
struct Pass {
    compress_s: f64,
    decompress_s: f64,
    wire_bytes: u64,
    source_read_s: f64,
    sink_write_s: f64,
    blocks_per_codec: Vec<u64>,
}

fn roundtrip(seg: &Segment, decoded: &mut Vec<u8>, timed: bool) -> io::Result<Pass> {
    let t = Instant::now();
    let mut input = BufReader::new(TimedIo::new(File::open(&seg.input)?, timed));
    let output = BufWriter::new(TimedIo::new(File::create(&seg.output)?, timed));
    let level = if seg.stream == PORTFOLIO {
        PORTFOLIO_LEVEL
    } else {
        seg.stream
    };
    let mut w = AdaptiveWriter::with_params(
        output,
        LevelSet::paper_default(),
        Box::new(StaticModel::new(level, 4)),
        DEFAULT_BLOCK_LEN,
        2.0,
        Box::new(WallClock::new()),
    );
    w.set_portfolio(seg.stream == PORTFOLIO);
    io::copy(&mut input, &mut w)?;
    let (mut out, stats) = w.finish()?;
    out.flush()?;
    let compress_s = t.elapsed().as_secs_f64();
    let sink_write_s = out.get_ref().spent.as_secs_f64();
    let mut source_read_s = input.get_ref().spent.as_secs_f64();
    drop(out);

    let t = Instant::now();
    let mut r = AdaptiveReader::new(BufReader::new(TimedIo::new(
        File::open(&seg.output)?,
        timed,
    )));
    decoded.clear();
    r.read_to_end(decoded)?;
    let decompress_s = t.elapsed().as_secs_f64();
    source_read_s += r.into_inner().get_ref().spent.as_secs_f64();
    Ok(Pass {
        compress_s,
        decompress_s,
        wire_bytes: stats.wire_bytes,
        source_read_s,
        sink_write_s,
        blocks_per_codec: stats.blocks_per_codec,
    })
}

#[derive(Default)]
struct TracedSums {
    stream_c: [f64; 5],
    stream_d: [f64; 5],
    stream_bytes: [u64; 5],
    source_read_s: Vec<f64>,
    sink_write_s: Vec<f64>,
    unattributed_s: Vec<f64>,
    measured_traced: Vec<f64>,
    measured_plain: Vec<f64>,
    shadow: Shadow,
    crc_decode_no_s: f64,
    /// NO-level decode of the same compressed bytes from memory instead
    /// of a file: the in-memory side of the CLI-versus-memory gap.
    inmem_no_s: f64,
    inmem_no_bytes: u64,
    probe_s: f64,
    probe_blocks: u64,
    portfolio_blocks: Vec<u64>,
    gen_s: f64,
    gen_bytes: u64,
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let dir = PathBuf::from(format!(".bench_tmp/local-{}", std::process::id()));
    let mut out = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.tally.record("temp directory", Err(e.to_string()));
        return out;
    }
    let t0 = Instant::now();
    let mut tr = Tracer::new(false, t0);
    let mut tally = Tally::default();
    let (mut app_total, mut wire_total) = (0u64, 0u64);
    let mut sums = TracedSums::default();
    let mut decoded = Vec::new();

    // Set up several times and keep the last set: set-up time is reported
    // as the median, and every round then runs the same operations.
    let mut setups = Vec::new();
    let mut segs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        match setup(cfg.seed, &dir) {
            Ok((s, gen_s)) => {
                setups.push(t.elapsed().as_secs_f64());
                sums.gen_s += gen_s;
                sums.gen_bytes += s.iter().map(|x| x.data.len() as u64).sum::<u64>();
                segs = s;
            }
            Err(e) => {
                out.tally.record("setup", Err(e.to_string()));
                let _ = std::fs::remove_dir_all(&dir);
                return out;
            }
        }
    }
    out.inputs_crc = segs.iter().fold(0, |acc, s| {
        acc ^ crc32(&s.data).rotate_left(s.stream as u32)
    });
    let ref_crcs: Vec<u32> = segs.iter().map(|s| crc32_bitwise(&s.data)).collect();
    // Per-segment times of every untraced round; the reported rates use
    // each segment's median time, so one disturbed round moves nothing.
    let mut seg_c: Vec<Vec<f64>> = vec![Vec::new(); segs.len()];
    let mut seg_d: Vec<Vec<f64>> = vec![Vec::new(); segs.len()];

    let rounds = run_rounds(cfg.seconds, |round| {
        // Traced runs alternate untraced and traced rounds, so the tracing
        // overhead is measured on the same inputs.
        let traced_round = cfg.traced && round % 2 == 1;
        let mut rt = Tracer::new(traced_round, t0);
        let root = rt.begin("round", round);
        let (mut c_s, mut d_s) = (0.0, 0.0);
        let (mut src_s, mut sink_s) = (0.0, 0.0);
        for (i, seg) in segs.iter().enumerate() {
            let op = round * 100 + i as u64;
            let span = rt.begin("stream.roundtrip", op);
            let pass = roundtrip(seg, &mut decoded, traced_round);
            rt.end(span);
            let pass = match pass {
                Ok(p) => p,
                Err(e) => {
                    tally.record(&seg.label, Err(e.to_string()));
                    continue;
                }
            };
            if cfg.damage && round == 0 && i == 0 {
                let mid = decoded.len() / 2;
                decoded[mid] ^= 0x01;
            }
            let vspan = rt.begin("verify", op);
            // The first round also checks a bit-at-a-time CRC-32 of every
            // output; later rounds compare bytes only.
            let verdict = if round == 0 {
                decoded_matches(&seg.data, ref_crcs[i], &decoded)
            } else {
                same_bytes(&seg.data, &decoded)
            };
            rt.end(vspan);
            tally.record(&seg.label, verdict);
            c_s += pass.compress_s;
            d_s += pass.decompress_s;
            app_total += seg.data.len() as u64;
            wire_total += pass.wire_bytes;
            src_s += pass.source_read_s;
            sink_s += pass.sink_write_s;
            if !traced_round {
                seg_c[i].push(pass.compress_s);
                seg_d[i].push(pass.decompress_s);
            } else {
                sums.stream_c[seg.stream] += pass.compress_s;
                sums.stream_d[seg.stream] += pass.decompress_s;
                sums.stream_bytes[seg.stream] += seg.data.len() as u64;
                if seg.stream == PORTFOLIO {
                    sums.portfolio_blocks = pass.blocks_per_codec.clone();
                }
            }
        }
        rt.end(root);
        if traced_round {
            // The round's self time: what no span inside it accounts for.
            sums.unattributed_s
                .push(rt.totals().get("round").map_or(0.0, |t| t.self_s));
            sums.measured_traced.push(c_s + d_s);
            sums.source_read_s.push(src_s);
            sums.sink_write_s.push(sink_s);
            shadow_round(&mut rt, &segs, &mut sums, &mut tally);
            tr.absorb(rt);
        } else if cfg.traced {
            sums.measured_plain.push(c_s + d_s);
        }
    });
    let bytes: u64 = segs.iter().map(|s| s.data.len() as u64).sum();
    let c_med: f64 = seg_c.iter().map(|v| median(v)).sum();
    let d_med: f64 = seg_d.iter().map(|v| median(v)).sum();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    out.tally = tally;
    out.rounds = rounds;
    out.put("setup_s", median(&setups), "s");
    out.put("write_MBps", mb_per_s(bytes, c_med), "MB/s");
    out.put("read_MBps", mb_per_s(bytes, d_med), "MB/s");
    out.note("compress_MBps", mb_per_s(bytes, c_med));
    out.note("decompress_MBps", mb_per_s(bytes, d_med));
    out.note("wire_ratio", wire_total as f64 / app_total.max(1) as f64);
    if cfg.traced {
        report_traced(&mut out, &sums);
        crate::layers::write_spans(&tr, "local-roundtrip", cfg.seed);
    }
    out
}

/// The traced round's shadow pass: codec, CRC-32, frame and probe timings
/// on the same blocks the streams carried.
fn shadow_round(rt: &mut Tracer, segs: &[Segment], sums: &mut TracedSums, tally: &mut Tally) {
    let levels = LevelSet::paper_default();
    let shadow_root = rt.begin("shadow", 0);
    for seg in segs {
        let mut probe_s = 0.0;
        let res = if seg.stream == PORTFOLIO {
            shadow_pass(rt, &seg.data, |block| {
                let t = Instant::now();
                let ladder = portfolio::nominate(&portfolio::probe(block));
                probe_s += t.elapsed().as_secs_f64();
                ladder[PORTFOLIO_LEVEL]
            })
        } else {
            shadow_pass(rt, &seg.data, |_| levels.id(seg.stream))
        };
        if seg.stream == 0 {
            match decode_in_memory(rt, seg) {
                Ok(secs) => {
                    sums.inmem_no_s += secs;
                    sums.inmem_no_bytes += seg.data.len() as u64;
                }
                Err(e) => tally.record(&format!("in-memory {}", seg.label), Err(e)),
            }
        }
        match res {
            Ok(s) => {
                if seg.stream == 0 {
                    sums.crc_decode_no_s += s.crc_decode_s;
                }
                if seg.stream == PORTFOLIO {
                    sums.probe_s += probe_s;
                    sums.probe_blocks += s.blocks.iter().sum::<u64>();
                }
                sums.shadow.merge(&s);
            }
            Err(e) => tally.record(&format!("shadow {}", seg.label), Err(e)),
        }
    }
    rt.end(shadow_root);
}

/// Decodes a segment's compressed file from a buffer in memory with
/// `AdaptiveReader`; returns the decode time.
fn decode_in_memory(rt: &mut Tracer, seg: &Segment) -> Result<f64, String> {
    let wire = std::fs::read(&seg.output).map_err(|e| e.to_string())?;
    let mut decoded = Vec::with_capacity(seg.data.len());
    let (res, secs) = rt.time_s("stream.decode_in_memory", 0, || {
        AdaptiveReader::new(&wire[..]).read_to_end(&mut decoded)
    });
    res.map_err(|e| e.to_string())?;
    same_bytes(&seg.data, &decoded)?;
    Ok(secs)
}

fn report_traced(out: &mut Outcome, s: &TracedSums) {
    for (i, name) in STREAM_NAMES.iter().enumerate() {
        out.put(
            &format!("stream.{name}.compress_MBps"),
            mb_per_s(s.stream_bytes[i], s.stream_c[i]),
            "MB/s",
        );
        out.put(
            &format!("stream.{name}.decompress_MBps"),
            mb_per_s(s.stream_bytes[i], s.stream_d[i]),
            "MB/s",
        );
    }
    out.put(
        "stream.NO.decompress_in_memory_MBps",
        mb_per_s(s.inmem_no_bytes, s.inmem_no_s),
        "MB/s",
    );
    out.put("stream.source_read_s", median(&s.source_read_s), "s");
    out.put("stream.sink_write_s", median(&s.sink_write_s), "s");
    s.shadow.report(out);
    out.put(
        "crc32.share.decode_NO",
        s.crc_decode_no_s / s.stream_d[0].max(1e-12),
        "ratio",
    );
    out.put(
        "portfolio.probe_us_per_block",
        s.probe_s * 1e6 / s.probe_blocks.max(1) as f64,
        "us",
    );
    for id in CodecId::REGISTRY {
        let n = s.portfolio_blocks.get(id as usize).copied().unwrap_or(0);
        out.put(
            &format!("portfolio.blocks.{}", codec_name(id)),
            n as f64,
            "count",
        );
    }
    out.put("corpus.gen_MBps", mb_per_s(s.gen_bytes, s.gen_s), "MB/s");
    out.put("unattributed_s", median(&s.unattributed_s), "s");
    out.put(
        "trace.overhead_s",
        median(&s.measured_traced) - median(&s.measured_plain),
        "s",
    );
}
